#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made so far by the calling thread (operator new in
/// all its forms), counted by alloc_hook.cpp's global replacement.
std::uint64_t alloc_count();

}  // namespace perfbench

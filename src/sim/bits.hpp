// Bit-granular reads/writes over packet bytes: P4 fields are arbitrary
// bit slices (9-bit ports, 4-bit IHL, 1-bit flags), so the executor
// addresses them as (bit offset, width) within the packet.
//
// A slice is lowered once into the bytes that hold it (ByteSlice) and
// then read or written with one big-endian load or store of at most
// nine bytes. read_bits/write_bits lower on every call; the compiled
// engine lowers each field reference at compile time and keeps only
// the bounds compare per packet. Both go through the same load/store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace dejavu::sim {

/// Mask a value to `width` bits.
constexpr std::uint64_t mask_to_width(std::uint64_t v, std::size_t width) {
  return width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
}

/// A bit slice of width <= 64 lowered to bytes: the slice lies in the
/// `bytes` bytes from `byte` on, and `shift` bits of the last of them
/// follow it. `bytes` is at most 9 (a 64-bit slice that does not start
/// on a byte boundary) and 0 only for an empty slice on a byte boundary.
struct ByteSlice {
  std::uint32_t byte = 0;
  std::uint8_t bytes = 0;
  std::uint8_t shift = 0;
  std::uint64_t mask = 0;  ///< the slice's width, as a low-bit mask
};

/// Lower the slice of `width` (<= 64) bits at `bit_offset`.
constexpr ByteSlice lower_bits(std::size_t bit_offset, std::size_t width) {
  const std::size_t lead = bit_offset % 8;
  const std::size_t bytes = (lead + width + 7) / 8;
  return ByteSlice{static_cast<std::uint32_t>(bit_offset / 8),
                   static_cast<std::uint8_t>(bytes),
                   static_cast<std::uint8_t>(bytes * 8 - lead - width),
                   mask_to_width(~std::uint64_t{0}, width)};
}

namespace detail {

/// Big-endian value of the first min(s.bytes, 8) bytes of the slice.
inline std::uint64_t load_head(const std::byte* p, const ByteSlice& s) {
  const std::size_t n = s.bytes < 8 ? s.bytes : 8;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v = (v << 8) | std::to_integer<std::uint64_t>(p[i]);
  }
  return v;
}

inline void store_head(std::byte* p, const ByteSlice& s, std::uint64_t v) {
  const std::size_t n = s.bytes < 8 ? s.bytes : 8;
  for (std::size_t i = n; i-- > 0;) {
    p[i] = static_cast<std::byte>(v & 0xff);
    v >>= 8;
  }
}

}  // namespace detail

/// Read slice `s` of the bytes at `base`, MSB-first (network bit
/// order). The caller has checked that base[s.byte, s.byte + s.bytes)
/// is in bounds.
inline std::uint64_t load_bits(const std::byte* base, const ByteSlice& s) {
  const std::byte* p = base + s.byte;
  const std::uint64_t head = detail::load_head(p, s);
  if (s.bytes > 8) {  // ninth byte: shift < 8 here
    return ((head << (8 - s.shift)) |
            (std::to_integer<std::uint64_t>(p[8]) >> s.shift)) &
           s.mask;
  }
  return (head >> s.shift) & s.mask;
}

/// Write the low bits of `value` into slice `s` of the bytes at `base`,
/// MSB-first, leaving every bit outside the slice as it was. Same
/// bounds precondition as load_bits.
inline void store_bits(std::byte* base, const ByteSlice& s,
                       std::uint64_t value) {
  std::byte* p = base + s.byte;
  value &= s.mask;
  std::uint64_t head = detail::load_head(p, s);
  if (s.bytes > 8) {
    const unsigned up = 8u - s.shift;
    head = (head & ~(s.mask >> up)) | (value >> up);
    const auto low_mask = static_cast<std::uint8_t>(s.mask << s.shift);
    const auto low = static_cast<std::uint8_t>(
        (std::to_integer<std::uint8_t>(p[8]) & ~low_mask) |
        static_cast<std::uint8_t>(value << s.shift));
    p[8] = static_cast<std::byte>(low);
  } else {
    head = (head & ~(s.mask << s.shift)) | (value << s.shift);
  }
  detail::store_head(p, s, head);
}

namespace detail {

inline void check_slice(std::size_t size, std::size_t bit_offset,
                        std::size_t width) {
  if (width > 64) throw std::out_of_range("bit width > 64");
  if (bit_offset + width > size * 8) {
    throw std::out_of_range("bit slice beyond buffer end");
  }
}

}  // namespace detail

/// Read `width` bits (<= 64) starting `bit_offset` bits into `data`,
/// MSB-first (network bit order). Throws std::out_of_range when the
/// slice exceeds the buffer or is wider than 64 bits.
inline std::uint64_t read_bits(std::span<const std::byte> data,
                               std::size_t bit_offset, std::size_t width) {
  detail::check_slice(data.size(), bit_offset, width);
  return load_bits(data.data(), lower_bits(bit_offset, width));
}

/// Write the low `width` bits of `value` at the slice, MSB-first.
/// Throws like read_bits.
inline void write_bits(std::span<std::byte> data, std::size_t bit_offset,
                       std::size_t width, std::uint64_t value) {
  detail::check_slice(data.size(), bit_offset, width);
  store_bits(data.data(), lower_bits(bit_offset, width), value);
}

}  // namespace dejavu::sim

// Byte-buffer primitives: big-endian (network order) reads/writes over
// contiguous byte ranges, plus a growable buffer used by packet codecs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dejavu::net {

/// Read an unsigned big-endian integer of `N` bytes starting at `data`.
/// Preconditions are checked by the callers via span sizes.
std::uint16_t read_be16(std::span<const std::byte> data, std::size_t offset);
std::uint32_t read_be24(std::span<const std::byte> data, std::size_t offset);
std::uint32_t read_be32(std::span<const std::byte> data, std::size_t offset);
std::uint64_t read_be64(std::span<const std::byte> data, std::size_t offset);
std::uint8_t read_u8(std::span<const std::byte> data, std::size_t offset);

void write_be16(std::span<std::byte> data, std::size_t offset, std::uint16_t v);
void write_be24(std::span<std::byte> data, std::size_t offset, std::uint32_t v);
void write_be32(std::span<std::byte> data, std::size_t offset, std::uint32_t v);
void write_be64(std::span<std::byte> data, std::size_t offset, std::uint64_t v);
void write_u8(std::span<std::byte> data, std::size_t offset, std::uint8_t v);

/// Render a byte range as lowercase hex, two digits per byte, for
/// diagnostics and test failure messages.
std::string to_hex(std::span<const std::byte> data);

/// Parse a hex string (even length, no separators) into bytes.
/// Throws std::invalid_argument on malformed input.
std::vector<std::byte> from_hex(std::string_view hex);

/// A growable byte buffer with bounds-checked structured accessors.
/// Used as the backing store of packets; cheap to move, explicit to copy.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size) : bytes_(size) {}
  explicit Buffer(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}

  /// Spare capacity a copy keeps, so that pushing an encapsulation
  /// header (the 20-byte SFC header) into the copy does not reallocate.
  static constexpr std::size_t kHeadroom = 32;

  Buffer(const Buffer& other) { *this = other; }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      bytes_.reserve(other.size() + kHeadroom);
      bytes_.assign(other.bytes_.begin(), other.bytes_.end());
    }
    return *this;
  }
  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;

  std::size_t size() const noexcept { return bytes_.size(); }
  bool empty() const noexcept { return bytes_.empty(); }

  std::span<const std::byte> view() const noexcept { return bytes_; }
  std::span<std::byte> mutable_view() noexcept { return bytes_; }

  /// Bounds-checked subrange; throws std::out_of_range when the range
  /// does not fit.
  std::span<const std::byte> slice(std::size_t offset, std::size_t len) const;
  std::span<std::byte> mutable_slice(std::size_t offset, std::size_t len);

  /// Append raw bytes at the end.
  void append(std::span<const std::byte> data);

  /// Insert `len` zero bytes at `offset`, shifting the tail right.
  /// Used when pushing a header (e.g. the SFC header) into a packet.
  void insert_zeros(std::size_t offset, std::size_t len);

  /// Remove `len` bytes at `offset`, shifting the tail left.
  void erase(std::size_t offset, std::size_t len);

  bool operator==(const Buffer&) const = default;

 private:
  std::vector<std::byte> bytes_;
};

}  // namespace dejavu::net

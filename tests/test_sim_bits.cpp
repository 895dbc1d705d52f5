#include "sim/bits.hpp"

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "merge/compose.hpp"
#include "net/bytes.hpp"
#include "nf/parser_lib.hpp"
#include "sim/compiled/compiled_pipeline.hpp"

namespace dejavu::sim {
namespace {

TEST(Bits, ByteAlignedReads) {
  auto data = net::from_hex("0123456789abcdef");
  EXPECT_EQ(read_bits(data, 0, 8), 0x01u);
  EXPECT_EQ(read_bits(data, 8, 16), 0x2345u);
  EXPECT_EQ(read_bits(data, 0, 64), 0x0123456789abcdefULL);
}

TEST(Bits, UnalignedReads) {
  // 0x4f = 0100 1111: version nibble 4, then 1111...
  auto data = net::from_hex("4f00");
  EXPECT_EQ(read_bits(data, 0, 4), 4u);
  EXPECT_EQ(read_bits(data, 4, 4), 0xfu);
  EXPECT_EQ(read_bits(data, 4, 8), 0xf0u);
  EXPECT_EQ(read_bits(data, 1, 3), 0b100u);
}

TEST(Bits, WriteReadRoundTripUnaligned) {
  std::vector<std::byte> data(4);
  write_bits(data, 3, 9, 0x155);  // 9 bits across byte boundary
  EXPECT_EQ(read_bits(data, 3, 9), 0x155u);
  // Neighbours untouched.
  EXPECT_EQ(read_bits(data, 0, 3), 0u);
  EXPECT_EQ(read_bits(data, 12, 12), 0u);
}

TEST(Bits, WriteMasksToWidth) {
  std::vector<std::byte> data(2);
  write_bits(data, 0, 4, 0xff);  // only low 4 bits land
  EXPECT_EQ(read_bits(data, 0, 4), 0xfu);
  EXPECT_EQ(read_bits(data, 4, 4), 0u);
}

TEST(Bits, OutOfRangeThrows) {
  std::vector<std::byte> data(2);
  EXPECT_THROW(read_bits(data, 9, 8), std::out_of_range);
  EXPECT_THROW(read_bits(data, 0, 65), std::out_of_range);
  EXPECT_THROW(write_bits(data, 16, 1, 0), std::out_of_range);
}

TEST(Bits, MaskToWidth) {
  EXPECT_EQ(mask_to_width(0xffff, 8), 0xffu);
  EXPECT_EQ(mask_to_width(0x1ff, 9), 0x1ffu);
  EXPECT_EQ(mask_to_width(~0ULL, 64), ~0ULL);
}

/// The per-bit loop read_bits/write_bits used to run, kept as the
/// reference the byte-granular load/store must reproduce.
std::uint64_t ref_read(std::span<const std::byte> data, std::size_t off,
                       std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t bit = off + i;
    v = (v << 1) |
        ((std::to_integer<std::uint64_t>(data[bit / 8]) >> (7 - bit % 8)) & 1);
  }
  return v;
}

void ref_write(std::span<std::byte> data, std::size_t off, std::size_t width,
               std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t bit = off + i;
    const std::size_t shift = 7 - bit % 8;
    const std::uint64_t bit_value = (value >> (width - 1 - i)) & 1;
    auto b = std::to_integer<std::uint8_t>(data[bit / 8]);
    b = static_cast<std::uint8_t>((b & ~(1u << shift)) | (bit_value << shift));
    data[bit / 8] = static_cast<std::byte>(b);
  }
}

/// Random buffers of 1..16 bytes, every width 0..64, random offsets
/// (and, for each width, the slice that ends exactly at the last bit):
/// reads equal the reference, and a write leaves exactly the bytes the
/// reference write leaves, neighbours included.
TEST(Bits, MatchesBitLoopReference) {
  std::mt19937_64 rng(20261019);
  std::size_t checked = 0;
  for (std::size_t size = 1; size <= 16; ++size) {
    for (std::size_t width = 0; width <= 64; ++width) {
      if (width > size * 8) break;
      const std::size_t max_off = size * 8 - width;
      for (int round = 0; round < 12; ++round) {
        std::vector<std::byte> data(size);
        for (std::byte& b : data) b = static_cast<std::byte>(rng() & 0xff);
        const std::size_t off = round == 0 ? max_off : rng() % (max_off + 1);
        const std::uint64_t value = rng();

        ASSERT_EQ(read_bits(data, off, width), ref_read(data, off, width))
            << "size " << size << " off " << off << " width " << width;

        std::vector<std::byte> want = data;
        ref_write(want, off, width, value);
        std::vector<std::byte> got = data;
        write_bits(got, off, width, value);
        ASSERT_EQ(got, want) << "size " << size << " off " << off
                             << " width " << width;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 5000u);
}

TEST(Bits, NineByteSlices) {
  // A 64-bit slice that does not start on a byte boundary spans nine
  // bytes; so does a 58-bit slice at bit 7.
  for (std::size_t lead = 1; lead < 8; ++lead) {
    for (std::size_t width : {57u, 60u, 64u}) {
      if (lead + width <= 64) continue;
      ASSERT_EQ(lower_bits(lead, width).bytes, 9u);
      std::vector<std::byte> data(9, std::byte{0x5a});
      const std::vector<std::byte> before = data;
      const std::uint64_t value = 0xfedcba9876543210ULL;
      write_bits(data, lead, width, value);
      EXPECT_EQ(read_bits(data, lead, width), mask_to_width(value, width));
      std::vector<std::byte> want = before;
      ref_write(want, lead, width, value);
      EXPECT_EQ(data, want) << "lead " << lead << " width " << width;
    }
  }
}

TEST(Bits, OutOfRangeStillThrows) {
  std::vector<std::byte> data(8);
  EXPECT_THROW(read_bits(data, 1, 64), std::out_of_range);   // one bit past
  EXPECT_THROW(write_bits(data, 1, 64, 0), std::out_of_range);
  EXPECT_THROW(read_bits(data, 64, 1), std::out_of_range);
  EXPECT_THROW(write_bits(data, 0, 65, 0), std::out_of_range);
  EXPECT_THROW(read_bits(std::span<const std::byte>{}, 0, 1),
               std::out_of_range);
  const std::vector<std::byte> before = data;
  EXPECT_THROW(write_bits(data, 60, 8, ~0ULL), std::out_of_range);
  EXPECT_EQ(data, before);  // a refused write touches nothing
  // Empty slices at the very end are in range.
  EXPECT_EQ(read_bits(data, 64, 0), 0u);
  EXPECT_EQ(read_bits(std::span<const std::byte>{}, 0, 0), 0u);
  write_bits(data, 64, 0, ~0ULL);
  EXPECT_EQ(data, before);
}

/// read_bits refuses a field wider than 64 bits (the SFC header's
/// 96-bit `context`) on every packet, so the compiled engine refuses to
/// lower one: its compile fails and every packet runs on the
/// interpreter, as if it had never been compiled.
TEST(Bits, CompiledEngineRefusesFieldsWiderThan64Bits) {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"wide"};
  nf::add_standard_parser(program, ids);  // includes the SFC header type
  p4ir::ControlBlock c(
      merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
  p4ir::Action fwd;
  fwd.name = "fwd";
  fwd.primitives = {p4ir::set_imm("sfc.context", 1),
                    p4ir::set_imm("standard_metadata.egress_spec", 1)};
  c.add_action(fwd);
  p4ir::Table t;
  t.name = "t";
  t.default_action = "fwd";
  c.add_table(t);
  c.apply_table("t");
  program.add_control(std::move(c));

  DataPlane interp(program, ids, asic::SwitchConfig{asic::TargetSpec::mini()});
  DataPlane fast_dp = interp;
  CompiledPipeline fast(fast_dp);
  EXPECT_FALSE(fast.compiled_ok());
  EXPECT_NE(fast.compile_error().find("'sfc.context' is wider than 64 bits"),
            std::string::npos)
      << fast.compile_error();

  const net::Packet packet = net::Packet::make({});
  const SwitchOutput a = interp.process(packet, 0);
  const SwitchOutput b = fast.process(packet, 0);
  EXPECT_TRUE(semantically_equal(a, b)) << b.drop_reason;
  ASSERT_EQ(b.out.size(), 1u) << b.drop_reason;
  EXPECT_EQ(fast.stats().fallback_packets, 1u);
  EXPECT_EQ(fast.stats().compiled_packets, 0u);
}

/// Property sweep: write/read round-trips at every offset/width combo
/// in a window.
class BitSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BitSweep, RoundTrip) {
  auto [offset, width] = GetParam();
  std::vector<std::byte> data(12, std::byte{0xa5});
  const std::uint64_t value =
      0x123456789abcdef0ULL & ((width >= 64) ? ~0ULL
                                             : ((1ULL << width) - 1));
  const std::vector<std::byte> before = data;
  write_bits(data, offset, width, value);
  EXPECT_EQ(read_bits(data, offset, width), value);
  // Bits outside the slice are untouched.
  if (offset > 0) {
    EXPECT_EQ(read_bits(data, 0, offset),
              read_bits(before, 0, offset));
  }
  const std::size_t after_off = offset + width;
  const std::size_t tail = data.size() * 8 - after_off;
  if (tail > 0) {
    EXPECT_EQ(read_bits(data, after_off, std::min<std::size_t>(tail, 64)),
              read_bits(before, after_off, std::min<std::size_t>(tail, 64)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndWidths, BitSweep,
    ::testing::Combine(::testing::Values(0, 1, 3, 7, 8, 9, 15, 23),
                       ::testing::Values(1, 4, 8, 9, 16, 24, 33, 48)));

}  // namespace
}  // namespace dejavu::sim

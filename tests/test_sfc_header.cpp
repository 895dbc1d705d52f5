#include "sfc/header.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "net/bytes.hpp"

namespace dejavu::sfc {
namespace {

SfcHeader sample_header() {
  SfcHeader h;
  h.service_path_id = 0x1234;
  h.service_index = 3;
  h.meta.in_port = 17;
  h.meta.out_port = 300;
  h.meta.recirculate = true;
  h.meta.to_cpu = true;
  h.context.set(1, 0xaaaa);
  h.context.set(2, 0xbbbb);
  h.next_protocol = NextProtocol::kIpv4;
  return h;
}

TEST(SfcHeader, WireSizeMatchesFig3) {
  // 2 B path + 1 B index + 4 B platform metadata + 12 B context
  // + 1 B next protocol = 20 bytes.
  EXPECT_EQ(kSfcHeaderSize, 20u);
}

TEST(SfcHeader, EncodeDecodeRoundTrip) {
  SfcHeader h = sample_header();
  std::vector<std::byte> buf(kSfcHeaderSize);
  h.encode(buf);
  auto decoded = SfcHeader::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(SfcHeader, DecodeRejectsShortBuffer) {
  std::vector<std::byte> buf(kSfcHeaderSize - 1);
  EXPECT_FALSE(SfcHeader::decode(buf).has_value());
}

/// Property sweep: every flag combination survives the round trip.
class FlagSweep : public ::testing::TestWithParam<int> {};

TEST_P(FlagSweep, FlagsRoundTrip) {
  const int bits = GetParam();
  SfcHeader h;
  h.meta.resubmit = bits & 1;
  h.meta.recirculate = bits & 2;
  h.meta.drop = bits & 4;
  h.meta.mirror = bits & 8;
  h.meta.to_cpu = bits & 16;
  std::vector<std::byte> buf(kSfcHeaderSize);
  h.encode(buf);
  EXPECT_EQ(SfcHeader::decode(buf)->meta, h.meta);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, FlagSweep, ::testing::Range(0, 32));

TEST(ContextData, SetGetErase) {
  ContextData ctx;
  EXPECT_TRUE(ctx.set(5, 100));
  EXPECT_EQ(ctx.get(5), 100);
  EXPECT_TRUE(ctx.set(5, 200));  // overwrite reuses the slot
  EXPECT_EQ(ctx.get(5), 200);
  EXPECT_EQ(ctx.used_slots(), 1u);
  EXPECT_TRUE(ctx.erase(5));
  EXPECT_FALSE(ctx.get(5).has_value());
  EXPECT_FALSE(ctx.erase(5));
}

TEST(ContextData, KeyZeroIsInvalid) {
  ContextData ctx;
  EXPECT_FALSE(ctx.set(0, 1));
  EXPECT_FALSE(ctx.get(0).has_value());
}

TEST(ContextData, CapacityIsFourSlots) {
  ContextData ctx;
  for (std::uint8_t k = 1; k <= 4; ++k) EXPECT_TRUE(ctx.set(k, k));
  EXPECT_FALSE(ctx.set(5, 5));  // full
  EXPECT_TRUE(ctx.set(3, 33));  // existing keys still writable
  EXPECT_TRUE(ctx.erase(2));
  EXPECT_TRUE(ctx.set(5, 5));  // freed slot reusable
}

TEST(PushPop, InsertsBetweenEthernetAndIp) {
  net::Packet p = net::Packet::make({});
  const std::size_t before = p.size();
  auto orig_ip = *p.ipv4();

  SfcHeader h;
  h.service_path_id = 7;
  push_sfc(p, h);

  EXPECT_TRUE(p.has_sfc_header());
  EXPECT_EQ(p.size(), before + kSfcHeaderSize);
  // The IP header now sits behind the SFC header.
  auto shifted_ip = p.ipv4(kSfcHeaderSize);
  ASSERT_TRUE(shifted_ip.has_value());
  EXPECT_EQ(shifted_ip->dst, orig_ip.dst);

  auto read = read_sfc(p);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->service_path_id, 7);
  EXPECT_EQ(read->next_protocol, NextProtocol::kIpv4);
}

TEST(PushPop, PopRestoresOriginalBytes) {
  net::Packet p = net::Packet::make({});
  const net::Packet original = p;

  SfcHeader h;
  h.service_path_id = 9;
  h.context.set(1, 42);
  push_sfc(p, h);
  SfcHeader popped = pop_sfc(p);

  EXPECT_EQ(p, original);
  EXPECT_EQ(popped.service_path_id, 9);
  EXPECT_EQ(popped.context.get(1), 42);
}

TEST(PushPop, DoublePushThrows) {
  net::Packet p = net::Packet::make({});
  push_sfc(p, SfcHeader{});
  EXPECT_THROW(push_sfc(p, SfcHeader{}), std::logic_error);
}

TEST(PushPop, PopWithoutHeaderThrows) {
  net::Packet p = net::Packet::make({});
  EXPECT_THROW(pop_sfc(p), std::logic_error);
}

TEST(PushPop, WriteSfcUpdatesInPlace) {
  net::Packet p = net::Packet::make({});
  push_sfc(p, SfcHeader{});
  auto h = *read_sfc(p);
  h.service_index = 5;
  h.meta.drop = true;
  write_sfc(p, h);
  EXPECT_EQ(*read_sfc(p), h);
}

TEST(PushPop, WriteSfcWithoutHeaderThrows) {
  net::Packet p = net::Packet::make({});
  EXPECT_THROW(write_sfc(p, SfcHeader{}), std::logic_error);
}

// --- set_context: in place, byte for byte the decode/set/encode path --

/// An Ethernet/SFC/IPv4 packet whose 20 SFC header bytes are random:
/// nonzero reserved platform-metadata bits, duplicate and empty keys,
/// garbage next-protocol codes.
net::Packet random_sfc_packet(std::mt19937_64& rng) {
  net::Packet p = net::Packet::make({});
  push_sfc(p, SfcHeader{});
  for (std::byte& b : p.data().mutable_slice(net::EthernetHeader::kSize,
                                             kSfcHeaderSize)) {
    b = static_cast<std::byte>(rng() & 0xff);
  }
  return p;
}

/// What the set-context primitive did before it was done in place.
net::Packet reference_set(net::Packet p, std::uint8_t key,
                          std::uint16_t value) {
  if (auto h = read_sfc(p)) {
    h->context.set(key, value);
    write_sfc(p, *h);
  }
  return p;
}

std::uint8_t slot_key(const net::Packet& p, std::size_t slot) {
  return std::to_integer<std::uint8_t>(
      p.data().view()[net::EthernetHeader::kSize + 7 + slot * 3]);
}

void expect_same_as_reference(net::Packet p, std::uint8_t key,
                              std::uint16_t value) {
  const net::Packet want = reference_set(p, key, value);
  EXPECT_TRUE(set_context(p, key, value));
  EXPECT_EQ(net::to_hex(p.data().view()), net::to_hex(want.data().view()))
      << "key " << int{key} << " value " << value;
}

TEST(SetContext, MatchesDecodeSetEncodeOnRandomHeaders) {
  std::mt19937_64 rng(0x5fc);
  std::size_t dirty_reserved = 0;
  for (int i = 0; i < 2000; ++i) {
    const net::Packet p = random_sfc_packet(rng);
    const auto meta = p.data().slice(net::EthernetHeader::kSize + 3, 4);
    dirty_reserved += (std::to_integer<unsigned>(meta[2]) & 1) != 0 ||
                      meta[3] != std::byte{0};
    const auto key = static_cast<std::uint8_t>(rng() & 0xff);
    expect_same_as_reference(p, key, static_cast<std::uint16_t>(rng()));
    // A key the header already holds.
    expect_same_as_reference(p, slot_key(p, rng() % ContextData::kSlots),
                             static_cast<std::uint16_t>(rng()));
    // Key 0: nothing is set, but the header is still canonicalized.
    expect_same_as_reference(p, 0, static_cast<std::uint16_t>(rng()));
  }
  EXPECT_GT(dirty_reserved, 1900u);
}

TEST(SetContext, FullContextRefusesANewKeyButCanonicalizes) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200; ++i) {
    net::Packet p = random_sfc_packet(rng);
    auto h = p.data().mutable_slice(net::EthernetHeader::kSize,
                                    kSfcHeaderSize);
    for (std::size_t slot = 0; slot < ContextData::kSlots; ++slot) {
      h[7 + slot * 3] = static_cast<std::byte>(10 + slot);  // all in use
    }
    h[6] = std::byte{0xff};  // reserved bits set
    const net::Packet want = reference_set(p, 99, 0x1234);
    EXPECT_TRUE(set_context(p, 99, 0x1234));
    EXPECT_EQ(p, want);
    EXPECT_EQ(h[6], std::byte{0});
    ASSERT_TRUE(read_sfc(p).has_value());
    EXPECT_FALSE(read_sfc(p)->context.get(99).has_value());
  }
}

TEST(SetContext, SetsANewKeyInTheFirstEmptySlot) {
  net::Packet p = net::Packet::make({});
  SfcHeader h;
  h.context.set(4, 44);
  push_sfc(p, h);
  ASSERT_TRUE(set_context(p, 9, 0xbeef));
  const auto got = read_sfc(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->context.get(9), 0xbeef);
  EXPECT_EQ(got->context.get(4), 44);
  EXPECT_EQ(slot_key(p, 1), 9);  // slot 0 holds key 4
}

TEST(SetContext, LeavesTruncatedAndNonSfcPacketsUntouched) {
  std::mt19937_64 rng(11);
  const net::Packet plain = net::Packet::make({});
  net::Packet p = plain;
  EXPECT_FALSE(set_context(p, 1, 1));
  EXPECT_EQ(p, plain);

  // SFC EtherType, but the header is cut short.
  for (std::size_t cut = 1; cut <= kSfcHeaderSize; ++cut) {
    const net::Packet full = random_sfc_packet(rng);
    const auto bytes = full.data().view();
    const net::Packet truncated(net::Buffer(std::vector<std::byte>(
        bytes.begin(),
        bytes.begin() + net::EthernetHeader::kSize + kSfcHeaderSize - cut)));
    ASSERT_TRUE(truncated.has_sfc_header());
    net::Packet q = truncated;
    EXPECT_FALSE(set_context(q, 1, 1));
    EXPECT_EQ(q, truncated);
    EXPECT_EQ(q, reference_set(truncated, 1, 1));
  }
}

TEST(PortSentinel, UnsetOutPortReportsAbsent) {
  PlatformMetadata m;
  EXPECT_FALSE(m.has_out_port());
  m.out_port = 3;
  EXPECT_TRUE(m.has_out_port());
}

}  // namespace
}  // namespace dejavu::sfc

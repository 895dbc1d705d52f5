#include "sfc/header.hpp"

#include <stdexcept>

#include "net/bytes.hpp"

namespace dejavu::sfc {

using net::read_be16;
using net::read_u8;
using net::write_be16;
using net::write_u8;

bool ContextData::set(std::uint8_t key, std::uint16_t value) {
  if (key == 0) return false;
  for (Slot& s : slots_) {
    if (s.key == key) {
      s.value = value;
      return true;
    }
  }
  for (Slot& s : slots_) {
    if (s.key == 0) {
      s = Slot{key, value};
      return true;
    }
  }
  return false;
}

std::optional<std::uint16_t> ContextData::get(std::uint8_t key) const {
  for (const Slot& s : slots_) {
    if (s.key == key && key != 0) return s.value;
  }
  return std::nullopt;
}

bool ContextData::erase(std::uint8_t key) {
  for (Slot& s : slots_) {
    if (s.key == key && key != 0) {
      s = Slot{};
      return true;
    }
  }
  return false;
}

std::size_t ContextData::used_slots() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) n += s.key != 0;
  return n;
}

void ContextData::encode(std::span<std::byte> out) const {
  for (std::size_t i = 0; i < kSlots; ++i) {
    write_u8(out, i * 3, slots_[i].key);
    write_be16(out, i * 3 + 1, slots_[i].value);
  }
}

ContextData ContextData::decode(std::span<const std::byte> data) {
  ContextData ctx;
  for (std::size_t i = 0; i < kSlots; ++i) {
    ctx.slots_[i].key = read_u8(data, i * 3);
    ctx.slots_[i].value = read_be16(data, i * 3 + 1);
  }
  return ctx;
}

namespace {

// Platform metadata wire layout (4 bytes):
//   [31:23] inPort, [22:14] outPort, [13] resubmit, [12] recirculate,
//   [11] drop, [10] mirror, [9] toCpu, [8:0] reserved (zero).
std::uint32_t pack_meta(const PlatformMetadata& m) {
  std::uint32_t v = 0;
  v |= std::uint32_t{m.in_port & 0x1ffu} << 23;
  v |= std::uint32_t{m.out_port & 0x1ffu} << 14;
  v |= std::uint32_t{m.resubmit} << 13;
  v |= std::uint32_t{m.recirculate} << 12;
  v |= std::uint32_t{m.drop} << 11;
  v |= std::uint32_t{m.mirror} << 10;
  v |= std::uint32_t{m.to_cpu} << 9;
  return v;
}

PlatformMetadata unpack_meta(std::uint32_t v) {
  PlatformMetadata m;
  m.in_port = static_cast<std::uint16_t>((v >> 23) & 0x1ff);
  m.out_port = static_cast<std::uint16_t>((v >> 14) & 0x1ff);
  m.resubmit = (v >> 13) & 1;
  m.recirculate = (v >> 12) & 1;
  m.drop = (v >> 11) & 1;
  m.mirror = (v >> 10) & 1;
  m.to_cpu = (v >> 9) & 1;
  return m;
}

}  // namespace

void SfcHeader::encode(std::span<std::byte> out) const {
  write_be16(out, 0, service_path_id);
  write_u8(out, 2, service_index);
  net::write_be32(out, 3, pack_meta(meta));
  context.encode(out.subspan(7, ContextData::kWireSize));
  write_u8(out, 19, static_cast<std::uint8_t>(next_protocol));
}

std::optional<SfcHeader> SfcHeader::decode(std::span<const std::byte> data) {
  if (data.size() < kSfcHeaderSize) return std::nullopt;
  SfcHeader h;
  h.service_path_id = read_be16(data, 0);
  h.service_index = read_u8(data, 2);
  h.meta = unpack_meta(net::read_be32(data, 3));
  h.context = ContextData::decode(data.subspan(7, ContextData::kWireSize));
  h.next_protocol = static_cast<NextProtocol>(read_u8(data, 19));
  return h;
}

std::string SfcHeader::to_string() const {
  std::string s = "sfc{path=" + std::to_string(service_path_id) +
                  " idx=" + std::to_string(service_index);
  if (meta.in_port != kPortUnset) {
    s += " in=" + std::to_string(meta.in_port);
  }
  if (meta.has_out_port()) s += " out=" + std::to_string(meta.out_port);
  if (meta.resubmit) s += " RESUB";
  if (meta.recirculate) s += " RECIRC";
  if (meta.drop) s += " DROP";
  if (meta.mirror) s += " MIRROR";
  if (meta.to_cpu) s += " TOCPU";
  s += "}";
  return s;
}

std::optional<SfcHeader> read_sfc(const net::Packet& packet) {
  if (!packet.has_sfc_header()) return std::nullopt;
  if (packet.size() < net::EthernetHeader::kSize + kSfcHeaderSize) {
    return std::nullopt;
  }
  return SfcHeader::decode(
      packet.data().view().subspan(net::EthernetHeader::kSize));
}

void write_sfc(net::Packet& packet, const SfcHeader& header) {
  if (!packet.has_sfc_header()) {
    throw std::logic_error("write_sfc: packet has no SFC header");
  }
  header.encode(packet.data().mutable_slice(net::EthernetHeader::kSize,
                                            kSfcHeaderSize));
}

bool set_context(net::Packet& packet, std::uint8_t key, std::uint16_t value) {
  if (!packet.has_sfc_header() ||
      packet.size() < net::EthernetHeader::kSize + kSfcHeaderSize) {
    return false;
  }
  auto h = packet.data().mutable_slice(net::EthernetHeader::kSize,
                                       kSfcHeaderSize);
  // write_sfc's canonical form: pack_meta leaves bits [8:0] of the
  // platform metadata (bytes 3..6) zero.
  h[5] &= std::byte{0xfe};
  h[6] = std::byte{0};
  if (key == 0) return true;  // ContextData::set refuses key 0
  // ContextData::set: the key's own slot, else the first empty one.
  std::byte* ctx = h.data() + 7;
  auto key_at = [&](std::size_t slot) {
    return std::to_integer<std::uint8_t>(ctx[slot * 3]);
  };
  std::size_t slot = 0;
  while (slot < ContextData::kSlots && key_at(slot) != key) ++slot;
  if (slot == ContextData::kSlots) {
    slot = 0;
    while (slot < ContextData::kSlots && key_at(slot) != 0) ++slot;
    if (slot == ContextData::kSlots) return true;  // full, key is new
  }
  ctx[slot * 3] = static_cast<std::byte>(key);
  ctx[slot * 3 + 1] = static_cast<std::byte>(value >> 8);
  ctx[slot * 3 + 2] = static_cast<std::byte>(value & 0xff);
  return true;
}

void push_sfc(net::Packet& packet, SfcHeader header) {
  if (packet.has_sfc_header()) {
    throw std::logic_error("push_sfc: packet already has an SFC header");
  }
  auto eth = packet.ethernet();
  if (!eth) throw std::logic_error("push_sfc: truncated Ethernet frame");
  // Record the displaced EtherType so pop_sfc can restore it.
  header.next_protocol = eth->ether_type == net::kEtherTypeIpv4
                             ? NextProtocol::kIpv4
                             : NextProtocol::kEthernet;
  packet.data().insert_zeros(net::EthernetHeader::kSize, kSfcHeaderSize);
  header.encode(packet.data().mutable_slice(net::EthernetHeader::kSize,
                                            kSfcHeaderSize));
  eth->ether_type = net::kEtherTypeSfc;
  packet.set_ethernet(*eth);
}

SfcHeader pop_sfc(net::Packet& packet) {
  auto header = read_sfc(packet);
  if (!header) throw std::logic_error("pop_sfc: packet has no SFC header");
  packet.data().erase(net::EthernetHeader::kSize, kSfcHeaderSize);
  auto eth = packet.ethernet();
  eth->ether_type = header->next_protocol == NextProtocol::kIpv4
                        ? net::kEtherTypeIpv4
                        : net::kEtherTypeArp;
  packet.set_ethernet(*eth);
  return *header;
}

}  // namespace dejavu::sfc

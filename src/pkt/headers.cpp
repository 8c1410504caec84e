#include "pkt/headers.h"

#include <cassert>
#include <charconv>

#include "pkt/checksum.h"

namespace nfvsb::pkt {
namespace {

std::uint16_t load_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xff);
}
std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}
void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

std::optional<MacAddress> MacAddress::parse(std::string_view s) {
  MacAddress m;
  std::size_t pos = 0;
  for (int i = 0; i < 6; ++i) {
    if (pos + 2 > s.size()) return std::nullopt;
    std::uint8_t v = 0;
    auto [ptr, ec] =
        std::from_chars(s.data() + pos, s.data() + pos + 2, v, 16);
    if (ec != std::errc{} || ptr != s.data() + pos + 2) return std::nullopt;
    m.bytes[static_cast<std::size_t>(i)] = v;
    pos += 2;
    if (i < 5) {
      if (pos >= s.size() || s[pos] != ':') return std::nullopt;
      ++pos;
    }
  }
  if (pos != s.size()) return std::nullopt;
  return m;
}

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view s) {
  std::uint32_t out = 0;
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    std::uint32_t octet = 0;
    auto [ptr, ec] = std::from_chars(s.data() + pos, s.data() + s.size(), octet);
    if (ec != std::errc{} || octet > 255) return std::nullopt;
    pos = static_cast<std::size_t>(ptr - s.data());
    out = (out << 8) | octet;
    if (i < 3) {
      if (pos >= s.size() || s[pos] != '.') return std::nullopt;
      ++pos;
    }
  }
  if (pos != s.size()) return std::nullopt;
  return Ipv4Address{out};
}

MacAddress EthHeader::dst() const {
  MacAddress m;
  std::copy(b_.begin(), b_.begin() + 6, m.bytes.begin());
  return m;
}
MacAddress EthHeader::src() const {
  MacAddress m;
  std::copy(b_.begin() + 6, b_.begin() + 12, m.bytes.begin());
  return m;
}

void EthHeader::set_dst(const MacAddress& m) {
  std::copy(m.bytes.begin(), m.bytes.end(), b_.begin());
}
void EthHeader::set_src(const MacAddress& m) {
  std::copy(m.bytes.begin(), m.bytes.end(), b_.begin() + 6);
}
void EthHeader::set_ether_type(std::uint16_t t) { store_be16(&b_[12], t); }

void Ipv4Header::set_src(Ipv4Address a) { store_be32(&b_[12], a.addr); }
void Ipv4Header::set_dst(Ipv4Address a) { store_be32(&b_[16], a.addr); }
void Ipv4Header::set_total_length(std::uint16_t len) { store_be16(&b_[2], len); }

void Ipv4Header::update_checksum() {
  store_be16(&b_[10], 0);
  const std::uint16_t sum =
      internet_checksum(std::span<const std::uint8_t>(b_.data(), kIpv4HeaderBytes));
  store_be16(&b_[10], sum);
}

bool Ipv4Header::checksum_ok() const {
  return verify_internet_checksum(
      std::span<const std::uint8_t>(b_.data(), kIpv4HeaderBytes));
}

void Ipv4Header::init() {
  assert(b_.size() >= kIpv4HeaderBytes);
  std::fill(b_.begin(), b_.begin() + kIpv4HeaderBytes, std::uint8_t{0});
  b_[0] = 0x45;  // version 4, IHL 5
  b_[8] = 64;    // TTL
}

void UdpHeader::set_src_port(std::uint16_t p) { store_be16(&b_[0], p); }
void UdpHeader::set_dst_port(std::uint16_t p) { store_be16(&b_[2], p); }
void UdpHeader::set_length(std::uint16_t l) { store_be16(&b_[4], l); }

std::uint64_t FiveTuple::hash() const {
  // Mix with splitmix-style finalizer over the packed tuple.
  std::uint64_t x = (static_cast<std::uint64_t>(src_ip.addr) << 32) |
                    dst_ip.addr;
  std::uint64_t y = (static_cast<std::uint64_t>(src_port) << 32) |
                    (static_cast<std::uint64_t>(dst_port) << 16) | protocol;
  std::uint64_t z = x ^ (y * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::optional<FiveTuple> parse_five_tuple(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kEthHeaderBytes + kIpv4HeaderBytes + kUdpHeaderBytes) {
    return std::nullopt;
  }
  // Const view: EthHeader API is mutable; use raw offsets for the read path.
  const std::uint16_t ether_type = load_be16(&frame[12]);
  if (ether_type != kEtherTypeIpv4) return std::nullopt;
  const std::uint8_t* ip = &frame[kEthHeaderBytes];
  if ((ip[0] >> 4) != 4 || (ip[0] & 0x0f) != 5) return std::nullopt;
  FiveTuple t;
  t.protocol = ip[9];
  t.src_ip = Ipv4Address{load_be32(ip + 12)};
  t.dst_ip = Ipv4Address{load_be32(ip + 16)};
  if (t.protocol != kIpProtoUdp && t.protocol != kIpProtoTcp) {
    t.src_port = 0;
    t.dst_port = 0;
    return t;
  }
  const std::uint8_t* l4 = ip + kIpv4HeaderBytes;
  t.src_port = load_be16(l4);
  t.dst_port = load_be16(l4 + 2);
  return t;
}

}  // namespace nfvsb::pkt

#include "pkt/crafting.h"

#include <cassert>
#include <cstring>
#include <span>

namespace nfvsb::pkt {

namespace {

/// Craft `spec`'s frame into `bytes` (exactly spec.frame_bytes long).
void craft_udp_bytes(std::span<std::uint8_t> bytes, const FrameSpec& spec) {
  assert(spec.frame_bytes >= kMinCraftedFrame &&
         spec.frame_bytes <= kMaxFrameBytes);
  std::memset(bytes.data(), 0, bytes.size());

  EthHeader eth(bytes);
  eth.set_dst(spec.dst_mac);
  eth.set_src(spec.src_mac);
  eth.set_ether_type(kEtherTypeIpv4);

  Ipv4Header ip(eth.payload());
  ip.init();
  ip.set_protocol(kIpProtoUdp);
  ip.set_src(spec.src_ip);
  ip.set_dst(spec.dst_ip);
  ip.set_total_length(
      static_cast<std::uint16_t>(spec.frame_bytes - kEthHeaderBytes));
  ip.update_checksum();

  UdpHeader udp(ip.payload());
  udp.set_src_port(spec.src_port);
  udp.set_dst_port(spec.dst_port);
  udp.set_length(static_cast<std::uint16_t>(spec.frame_bytes -
                                            kEthHeaderBytes -
                                            kIpv4HeaderBytes));
}

void write_seq(std::uint8_t* d, std::uint64_t seq) {
  for (int i = 7; i >= 0; --i) {
    d[i] = static_cast<std::uint8_t>(seq & 0xff);
    seq >>= 8;
  }
}

}  // namespace

void craft_udp_frame(Packet& p, const FrameSpec& spec) {
  p.resize(spec.frame_bytes);
  craft_udp_bytes(p.bytes(), spec);
}

FrameTemplate::FrameTemplate(const FrameSpec& spec)
    : size_(spec.frame_bytes) {
  craft_udp_bytes(std::span(bytes_.data(), size_), spec);
}

void FrameTemplate::stamp(Packet& p, std::uint64_t seq) const {
  p.resize(size_);
  std::memcpy(p.data(), bytes_.data(), size_);
  write_seq(p.data() + kUdpPayloadOffset, seq);
}

void FrameTemplate::stamp(Packet& p, std::uint64_t seq,
                          std::uint16_t src_port) const {
  stamp(p, seq);
  UdpHeader(p.bytes().subspan(kEthHeaderBytes + kIpv4HeaderBytes))
      .set_src_port(src_port);
}

void write_payload_seq(Packet& p, std::uint64_t seq) {
  assert(p.size() >= kUdpPayloadOffset + 8);
  write_seq(p.data() + kUdpPayloadOffset, seq);
}

}  // namespace nfvsb::pkt

#include "switches/ovs/flow.h"

namespace nfvsb::switches::ovs {
namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t FlowKey::hash() const {
  std::uint64_t h = mix(eth_src.as_u64() ^ (eth_dst.as_u64() << 1));
  h = mix(h ^ ((static_cast<std::uint64_t>(in_port) << 32) | eth_type));
  h = mix(h ^ ((static_cast<std::uint64_t>(ip_src.addr) << 32) | ip_dst.addr));
  h = mix(h ^ ((static_cast<std::uint64_t>(tp_src) << 32) |
               (static_cast<std::uint64_t>(tp_dst) << 16) | ip_proto));
  return h;
}

FlowKey FlowKey::from_frame(std::uint32_t in_port,
                            std::span<const std::uint8_t> frame) {
  FlowKey k;
  k.in_port = in_port;
  if (frame.size() < pkt::kEthHeaderBytes) return k;
  // Read-only parsing over the const view.
  for (int i = 0; i < 6; ++i) {
    k.eth_dst.bytes[static_cast<std::size_t>(i)] = frame[static_cast<std::size_t>(i)];
    k.eth_src.bytes[static_cast<std::size_t>(i)] =
        frame[static_cast<std::size_t>(6 + i)];
  }
  k.eth_type = static_cast<std::uint16_t>((frame[12] << 8) | frame[13]);
  if (const auto t = pkt::parse_five_tuple(frame)) {
    k.ip_src = t->src_ip;
    k.ip_dst = t->dst_ip;
    k.ip_proto = t->protocol;
    k.tp_src = t->src_port;
    k.tp_dst = t->dst_port;
  }
  return k;
}

FlowKey FlowMask::apply(const FlowKey& k) const {
  FlowKey m;
  if (in_port) m.in_port = k.in_port;
  if (eth_src) m.eth_src = k.eth_src;
  if (eth_dst) m.eth_dst = k.eth_dst;
  if (eth_type) m.eth_type = k.eth_type;
  if (ip_src) m.ip_src = k.ip_src;
  if (ip_dst) m.ip_dst = k.ip_dst;
  if (ip_proto) m.ip_proto = k.ip_proto;
  if (tp_src) m.tp_src = k.tp_src;
  if (tp_dst) m.tp_dst = k.tp_dst;
  return m;
}

FlowMask FlowMask::union_with(const FlowMask& o) const {
  FlowMask u;
  u.in_port = in_port || o.in_port;
  u.eth_src = eth_src || o.eth_src;
  u.eth_dst = eth_dst || o.eth_dst;
  u.eth_type = eth_type || o.eth_type;
  u.ip_src = ip_src || o.ip_src;
  u.ip_dst = ip_dst || o.ip_dst;
  u.ip_proto = ip_proto || o.ip_proto;
  u.tp_src = tp_src || o.tp_src;
  u.tp_dst = tp_dst || o.tp_dst;
  return u;
}

}  // namespace nfvsb::switches::ovs

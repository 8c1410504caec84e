#include "pkt/frame.h"

#include "pkt/crafting.h"
#include "pkt/headers.h"
#include "pkt/packet.h"

namespace nfvsb::pkt {

FrameRecipe::FrameRecipe(const FrameSpec& spec, std::uint32_t flows,
                         std::uint32_t origin)
    : tmpl_(spec),
      tuple_{spec.src_ip, spec.dst_ip, spec.src_port, spec.dst_port,
             kIpProtoUdp},
      frame_bytes_(spec.frame_bytes),
      flows_(flows),
      origin_(origin) {}

void FrameRecipe::build(Packet& p, const FrameMeta& meta) const {
  if (flows_ > 1) {
    // Each source port is one flow for EMC / megaflow purposes.
    tmpl_.stamp(p, meta.seq, src_port(meta.seq));
  } else {
    tmpl_.stamp(p, meta.seq);
  }
  p.seq = meta.seq;
  p.probe_id = meta.probe_id;
  p.tx_timestamp = meta.tx_timestamp;
  p.sw_timestamp = meta.sw_timestamp;
  p.trace_id = meta.trace_id;
  p.origin = origin_;
}

FiveTuple FrameRecipe::five_tuple(std::uint64_t seq) const {
  FiveTuple t = tuple_;
  if (flows_ > 1) t.src_port = src_port(seq);
  return t;
}

}  // namespace nfvsb::pkt

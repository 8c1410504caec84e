// ptnet port: the host side of a netmap passthrough device giving a VM
// direct access to host netmap rings (Maffione et al., LANMAN'16).
//
// Unlike vhost-user, crossing a ptnet boundary copies nothing — the guest
// maps the host netmap buffers directly. The price VALE pays instead is its
// own port-to-port copy inside the switch (the per-byte TX cost of its
// ptnet row in switches::CostModel), plus interrupt-driven I/O. The guest
// reaches the rings through a plain ring::Port guest view
// (vnf::Vm::attach).
#pragma once

#include "ring/port.h"

namespace nfvsb::ring {

/// netmap virtual-port rings (VALE/ptnet) are 256 slots by default.
inline constexpr std::size_t kNetmapRingDepth = 256;

class PtnetPort final : public Port {
 public:
  explicit PtnetPort(std::string name,
                     std::size_t ring_depth = kNetmapRingDepth)
      : Port(std::move(name), PortKind::kPtnet, ring_depth) {}
};

}  // namespace nfvsb::ring

#include "ring/port.h"

#include "ring/spsc_ring.h"

namespace nfvsb::ring {

const char* to_string(PortKind k) {
  switch (k) {
    case PortKind::kPhysical: return "physical";
    case PortKind::kVhostUser: return "vhost-user";
    case PortKind::kPtnet: return "ptnet";
    case PortKind::kInternal: return "internal";
  }
  return "?";
}

Port::Port(std::string name, PortKind kind, std::size_t ring_depth)
    : name_(std::move(name)),
      kind_(kind),
      owned_in_(std::make_unique<SpscRing>(name_ + ".in", ring_depth)),
      owned_out_(std::make_unique<SpscRing>(name_ + ".out", ring_depth)),
      in_(owned_in_.get()),
      out_(owned_out_.get()) {}

Port::Port(std::string name, PortKind kind, SpscRing& in, SpscRing& out)
    : name_(std::move(name)), kind_(kind), in_(&in), out_(&out) {}

}  // namespace nfvsb::ring

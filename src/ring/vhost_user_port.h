// vhost-user port: the switch side of a virtio attachment to a VM.
//
// The backend (the software switch) exchanges packets with a VM over virtio
// descriptor rings. Both directions copy the payload between guest memory
// and switch mbufs and convert descriptor formats — the dominant cost the
// paper attributes to virtualized scenarios (Sec. 5.2: "vhost-user requires
// to enqueue/dequeue virtio rings by copying packets"). That cost is the
// switch's cost model's vhost row (switches::CostModel); the port itself
// only holds the two rings. The guest reaches them through a plain
// ring::Port guest view (vnf::Vm::attach), and every guest enqueue into an
// empty in() ring is a kick (SpscRing::kicks), registered here as
// "port/<name>/kicks".
#pragma once

#include "core/metrics.h"
#include "ring/port.h"
#include "ring/spsc_ring.h"

namespace nfvsb::ring {

/// virtio ring size used by QEMU by default.
inline constexpr std::size_t kVirtioRingDepth = 256;

class VhostUserPort final : public Port {
 public:
  explicit VhostUserPort(std::string name,
                         std::size_t ring_depth = kVirtioRingDepth)
      : Port(std::move(name), PortKind::kVhostUser, ring_depth) {
    if (core::MetricSink* reg = core::metrics()) {
      registry_ = reg;
      reg->add_counter(this, "port/" + this->name() + "/kicks",
                       &in().kicks());
    }
  }

  ~VhostUserPort() override {
    if (registry_ != nullptr) registry_->remove(this);
  }

 private:
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::ring

// netmap-family ports: host netmap virtual ports (VALE attachments) and the
// ptnet passthrough device giving VMs direct access to host netmap rings.
//
// Unlike vhost-user, crossing a ptnet boundary copies nothing — the guest
// maps the host netmap buffers directly (Maffione et al., LANMAN'16). The
// price VALE pays instead is its own port-to-port copy inside the switch
// (accounted by ValeSwitch), plus interrupt-driven I/O.
#pragma once

#include "ring/port.h"
#include "ring/spsc_ring.h"
#include "ring/vhost_user_port.h"  // GuestPort

namespace nfvsb::ring {

/// netmap virtual-port rings (VALE/ptnet) are 256 slots by default.
inline constexpr std::size_t kNetmapRingDepth = 256;

/// Host-side netmap virtual port attached to a VALE instance.
class NetmapHostPort final : public Port {
 public:
  explicit NetmapHostPort(std::string name,
                          std::size_t ring_depth = kNetmapRingDepth)
      : Port(std::move(name), PortKind::kNetmapHost, ring_depth) {}
  // VALE's copies are made by the switch data plane, not the port.
};

/// Host-side anchor of a ptnet passthrough attachment; the guest view maps
/// the same rings zero-copy.
class PtnetPort final : public Port {
 public:
  explicit PtnetPort(std::string name,
                     std::size_t ring_depth = kNetmapRingDepth)
      : Port(std::move(name), PortKind::kPtnet, ring_depth) {}
};

/// Guest view of a ptnet device: zero-copy access to host rings.
class GuestPtnetPort final : public GuestPort {
 public:
  explicit GuestPtnetPort(PtnetPort& host)
      : host_(host), name_(host.name() + ".guest") {}

  pkt::PacketHandle rx() override { return host_.out().dequeue(); }
  bool tx(pkt::Frame&& f) override {
    return host_.in().enqueue(std::move(f));
  }
  SpscRing& rx_ring() override { return host_.out(); }
  SpscRing& tx_ring() override { return host_.in(); }
  [[nodiscard]] const std::string& name() const override { return name_; }

 private:
  PtnetPort& host_;
  std::string name_;
};

}  // namespace nfvsb::ring

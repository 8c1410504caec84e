// Direct-attach cable between two NIC ports (the testbed wires each NUMA
// node's NIC to the other node's NIC, Fig. 3).
//
// A cable schedules nothing itself: it adds its propagation delay to the
// sender's departure delay and hands the frame, built or not (pkt/frame.h),
// to the peer port, which knows from that when the frame arrives,
// propagation and RX DMA included (hw/nic.h). A port whose frames travel
// as a wire source (hw/nic.h) reads the peer and the delay off the cable
// and hands it nothing.
#pragma once

#include "core/simulator.h"
#include "core/time.h"
#include "pkt/frame.h"

namespace nfvsb::hw {

class NicPort;

class Cable {
 public:
  /// ~1 m DAC: a few ns of propagation. The simulator is not used: the
  /// receiving port handles the arrival.
  Cable(core::Simulator& sim, NicPort& a, NicPort& b,
        core::SimDuration propagation = core::from_ns(5));

  Cable(const Cable&) = delete;
  Cable& operator=(const Cable&) = delete;

  /// Called by a port when it starts serializing a frame whose last bit
  /// leaves it `departure` from now; the frame's last bit reaches the peer
  /// one propagation delay after that.
  void transmit(NicPort& from, pkt::Frame&& f, core::SimDuration departure);

  /// The port at the other end from `from`.
  [[nodiscard]] NicPort& peer(const NicPort& from) const {
    return &from == &a_ ? b_ : a_;
  }
  [[nodiscard]] core::SimDuration propagation() const { return propagation_; }

 private:
  NicPort& a_;
  NicPort& b_;
  core::SimDuration propagation_;
};

}  // namespace nfvsb::hw

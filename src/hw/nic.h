// Model of one port of an Intel 82599-class 10 GbE NIC.
//
// Host side: RX descriptor rings (NIC -> host) and TX descriptor rings
// (host -> NIC), one pair per hardware queue. With multiple queues, RSS
// hashes each incoming frame's 5-tuple onto a queue — the mechanism behind
// the multi-core scaling the paper defers to future work (Sec. 6) and that
// bench/ablation_multicore explores. Wire side: serialization at line rate
// including Ethernet preamble/IFG overhead, connected to a peer via a
// Cable; TX queues are drained round-robin onto the single wire.
//
// A frame on the wire costs two simulator events: the TX firing that
// fetches it (and already knows when its last bit leaves), and its arrival
// in the peer's RX ring, one event covering propagation and RX DMA.
//
// Behaviours that matter to the paper's measurements:
//  * line rate is the hard ceiling in every scenario with physical ports;
//  * RX-ring overflow is where congestion loss appears when the SUT cannot
//    keep up (ixgbe `imissed`);
//  * hardware PTP timestamping of probe frames on TX and RX, used by
//    MoonGen for RTT measurement (Sec. 5.3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/event_fn.h"
#include "core/simulator.h"
#include "core/units.h"
#include "ring/spsc_ring.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::hw {

class Cable;

class NicPort {
 public:
  struct Config {
    core::LinkRate rate = core::kTenGigE;
    std::size_t rx_ring_depth{512};
    std::size_t tx_ring_depth{512};
    /// Hardware queues (RSS spreads RX across them by 5-tuple hash).
    std::size_t num_queues{1};
    bool hw_timestamping{true};
    /// PCIe DMA + descriptor write-back latency before a received frame
    /// becomes visible in the host RX ring. Adds latency, not rate loss.
    core::SimDuration dma_rx_latency{core::from_ns(2400)};
    /// Descriptor fetch + DMA read latency paid once per TX busy period.
    /// A busy period lasts while the wire is occupied: a frame enqueued
    /// before the previous one has finished serializing leaves right
    /// behind it, its fetch pipelined away; one enqueued on an idle wire
    /// pays this latency again.
    core::SimDuration dma_tx_latency{core::from_ns(1000)};
  };

  NicPort(core::Simulator& sim, std::string name, Config cfg);
  NicPort(core::Simulator& sim, std::string name)
      : NicPort(sim, std::move(name), Config{}) {}
  ~NicPort();

  NicPort(const NicPort&) = delete;
  NicPort& operator=(const NicPort&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const core::LinkRate& rate() const { return cfg_.rate; }
  [[nodiscard]] std::size_t num_queues() const { return rx_rings_.size(); }

  /// Host-facing rings of queue 0 (the single-queue common case).
  [[nodiscard]] ring::SpscRing& rx_ring() { return rx_ring(0); }
  [[nodiscard]] ring::SpscRing& tx_ring() { return tx_ring(0); }

  /// Per-queue rings.
  [[nodiscard]] ring::SpscRing& rx_ring(std::size_t q) {
    return *rx_rings_.at(q);
  }
  [[nodiscard]] ring::SpscRing& tx_ring(std::size_t q) {
    return *tx_rings_.at(q);
  }

  /// RX frames dropped because an RX ring was full (ixgbe imissed).
  [[nodiscard]] std::uint64_t imissed() const;
  [[nodiscard]] std::uint64_t tx_frames() const { return tx_frames_; }
  [[nodiscard]] std::uint64_t rx_frames() const { return rx_frames_; }

  /// Wire attachment (set by Cable).
  void attach_cable(Cable* c) { cable_ = c; }
  [[nodiscard]] bool link_up() const { return cable_ != nullptr; }

  /// Called by the cable when a frame starts on its way here: its last bit
  /// reaches this port's MAC `delay` from now. Posts the frame's one
  /// arrival event, at DMA completion (`delay + dma_rx_latency`), which
  /// counts it, runs the RX timestamp hook and enqueues it on its RSS
  /// queue's RX ring (overflow counts as imissed). The arrival must stay
  /// an event: the ring's watcher wakes the host at that very instant.
  void deliver_from_wire(pkt::PacketHandle p, core::SimDuration delay);

  /// Callback invoked with (frame, rx_wire_time) when a HW-timestamped
  /// probe frame arrives — how MoonGen reads RX timestamps off the NIC.
  /// It runs at DMA completion but is passed the MAC time, when the last
  /// bit arrived (the 82599 stamps PTP frames before DMA). The frame
  /// reference is only valid during the call.
  using RxTimestampHook =
      core::SmallFn<void, const pkt::Packet&, core::SimTime>;
  void set_rx_timestamp_hook(RxTimestampHook h) { rx_ts_hook_ = std::move(h); }

 private:
  void on_tx_enqueue();
  /// One firing of the TX busy-period timer: fetch the next frame, send it
  /// down the cable, and return its serialization time, or stop the timer
  /// at once when that emptied every TX ring.
  core::SimDuration serialize_step();
  [[nodiscard]] std::size_t rss_queue(const pkt::Packet& p) const;

  core::Simulator& sim_;
  std::string name_;
  Config cfg_;
  std::vector<std::unique_ptr<ring::SpscRing>> rx_rings_;
  std::vector<std::unique_ptr<ring::SpscRing>> tx_rings_;
  Cable* cable_{nullptr};
  /// The TX timer is running.
  bool tx_busy_{false};
  /// When the last frame sent finishes serializing.
  core::SimTime wire_free_at_{0};
  std::size_t tx_rr_{0};
  core::Counter tx_frames_;
  core::Counter rx_frames_;
  RxTimestampHook rx_ts_hook_;
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::hw

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
// Firings per frame on a wire: the TX fetch that sends it, which already
// knows when its last bit leaves and when its RX DMA completes at the peer
// (propagation included). Fetches fire on the port's simulator lane
// (core/simulator.h), outside the timing wheel but in the order the wheel
// would give them. The arrival costs an event only where something must
// happen at that instant:
//  * a generator attached as a ring::TxSource (one per port; a second is
//    refused) is pulled at fetch time: the fetch first enqueues every
//    frame the generator owes by then, each stamped with its own emit
//    time, and when the rings drain the next fetch is armed for the
//    generator's next emit. A frame due at the fetch's instant is owed
//    when its order key comes first, the tie rule a guest TX ring follows
//    (ring/tx_source.h). A generator's frames travel unbuilt (pkt/frame.h):
//    the port reads their size, 5-tuple and sequence number without
//    building them;
//  * an RX ring with a timed sink (a monitor) gets each frame in the
//    sender's fetch firing, stamped with its arrival time;
//  * every other RX ring is read lazily (ring/spsc_ring.h): the frame
//    waits in the ring's in-flight FIFO and is put in, counted and
//    timestamped, or lost to imissed, by the first read after it arrived,
//    exactly as its arrival event would have done; one lost to imissed is
//    never built. An event at the arrival is kept only while the ring's
//    consumer is idle, to wake it at that picosecond; a switch in the
//    middle of a round (DPDK rx_burst) just finds the frame at its next
//    poll.
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
#include "ring/tx_source.h"
#include "pkt/frame.h"
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

  /// Takes one of `sim`'s lanes for the TX fetch, so a simulator holds
  /// at most core::Simulator::kMaxLanes ports at once (std::length_error
  /// beyond that; a Testbed has four).
  NicPort(core::Simulator& sim, std::string name, Config cfg);
  NicPort(core::Simulator& sim, std::string name)
      : NicPort(sim, std::move(name), Config{}) {}
  /// Releases the port's TX lane: a pending fetch dies with the port.
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

  /// Put every frame that has arrived by now into its RX ring (reads of
  /// the rings do this themselves; see ring/spsc_ring.h, lazy RX).
  void catch_up_rx();

  /// RX frames dropped because an RX ring was full (ixgbe imissed). This
  /// and rx_frames() read the RX rings, which first put in the frames
  /// that have arrived by now; that changes no result, so both stay const.
  [[nodiscard]] std::uint64_t imissed() const;
  [[nodiscard]] std::uint64_t tx_frames() const { return tx_frames_; }
  [[nodiscard]] std::uint64_t rx_frames() const;

  /// Wire attachment (set by Cable).
  void attach_cable(Cable* c) { cable_ = c; }
  [[nodiscard]] bool link_up() const { return cable_ != nullptr; }

  /// Called by the cable when a frame starts on its way here: its last bit
  /// reaches this port's MAC `delay` from now, and DMA completes
  /// `dma_rx_latency` later, at arrival time `at`. Arrival counts the
  /// frame, runs the RX timestamp hook and puts it on its RSS queue's RX
  /// ring (overflow counts as imissed). A ring with a timed sink gets it
  /// now, built, passed `at`; any other ring gets it in flight
  /// (SpscRing::arrive) and arrival happens at the first read after `at`.
  void deliver_from_wire(pkt::Frame&& f, core::SimDuration delay);

  /// Pull frames from `s` at every TX fetch (see ring/tx_source.h). A
  /// port takes one source, as each of the paper's traffic directions has
  /// its own MoonGen on its own port: attaching a second throws
  /// std::logic_error. The source must call wake_tx() when its next emit
  /// time becomes known, and detach before it dies.
  void attach_tx_source(ring::TxSource& s);
  void detach_tx_source();
  /// The source has started: reserve its first frame's order key and arm
  /// a TX fetch for that frame, unless one is armed earlier.
  void wake_tx();

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
  /// Fetch at `at` unless a fetch is armed for then or earlier.
  void arm_fetch(core::SimTime at);
  /// When a frame that becomes ready at `ready` is fetched: on a busy wire
  /// right behind the frame on it, on an idle one after a DMA fetch.
  [[nodiscard]] core::SimTime fetch_time(core::SimTime ready) const;
  /// Enqueue every frame the TX source owes by now (ring/tx_source.h).
  void pull_source();
  /// One firing of the TX lane: pull the source, fetch the next frame and
  /// send it down the cable. Returns the delay to the next fetch: the
  /// frame's serialization time while the rings hold frames, the source's
  /// next emit once they drain, kStopTimer when there is none.
  core::SimDuration serialize_step();
  /// The frame's RSS queue, read without building it.
  [[nodiscard]] std::size_t rss_queue(const pkt::Frame& f) const;
  /// Count an arriving frame and pass a probe's MAC time to the RX
  /// timestamp hook (building the probe); `at` is when its DMA completes.
  void count_arrival(pkt::Frame& f, core::SimTime at);

  core::Simulator& sim_;
  std::string name_;
  Config cfg_;
  std::vector<std::unique_ptr<ring::SpscRing>> rx_rings_;
  std::vector<std::unique_ptr<ring::SpscRing>> tx_rings_;
  Cable* cable_{nullptr};
  ring::TxSource* tx_source_{nullptr};
  /// Order key of the source's next frame.
  std::uint64_t source_order_{0};
  /// The TX fetch lane: serialize_step, armed for tx_fetch_at_ while
  /// tx_busy_.
  core::Simulator::LaneId tx_lane_;
  bool tx_busy_{false};
  core::SimTime tx_fetch_at_{0};
  /// When the last frame sent finishes serializing.
  core::SimTime wire_free_at_{0};
  std::size_t tx_rr_{0};
  core::Counter tx_frames_;
  core::Counter rx_frames_;
  RxTimestampHook rx_ts_hook_;
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::hw

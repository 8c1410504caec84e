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
// Frames a host pushes into the TX rings (a switch's output) leave by TX
// fetches on the port's lane (core/simulator.h), fired in the order the
// timing wheel would give them. A fetch knows when the frame's RX DMA
// completes at the peer: the peer's ring gets it by an event at that
// arrival, or, a timed sink (a monitor), in the fetch, passed the arrival
// time. Either way it lands through land: counted, timestamped and put
// in, or lost to imissed and never built.
//
// The wire source. A generator attached as a ring::TxSource (MoonGen; one
// per port) needs no firing per frame: its emit times follow from its
// pacing, and fetch_k is wire_free when the wire is still busy at emit_k,
// else emit_k + dma_tx_latency; frame k lands at fetch_k + serialization +
// propagation + the peer's dma_rx_latency. The port composes the two into
// one wire source (wake_tx), which every read pulls (ring::Feed). A read
// of the peer's RX rings replays, in order, each fetch whose frame has
// arrived (a monitor's: each fetch due), as a lane firing would have done
// it (the pull of the frames owed, the TX ring's counts, a probe's TX
// stamp, a traced frame's events), and lands its frame. A read of this
// port's TX ring (tx_frames(), the queue sampler, the source's counts)
// replays every fetch due by the read's instant and order key and pulls
// every frame due, so the ring reads as one fetch per frame leaves it; a
// frame fetched before it arrives waits on the wire (in_flight_). The TX
// backlog holds a plain frame as its sequence number (pkt/frame.h), so a
// frame a ring drops costs no event and no buffer. While a consumer of
// the peer's rings is idle, one event is kept at the next arrival; the TX
// lane fires once just after a fetch's instant to place it.
//
// Same-instant ties follow order keys. A frame emitted at a fetch's
// instant is owed when its key, taken by the pull before it, comes before
// the fetch's, taken by the fetch before (the start takes both first
// keys). A fetch replayed after its instant takes late keys
// (core::Simulator::late_order): after every key reserved by the end of
// that instant, before any reserved later; ports whose fetches coincide
// rank in the order they started. A read at a fetch's own instant, keyed
// after it, replays it and reserves its keys as its lane firing would.
//
// Bulk drops. While the peer's RX rings are all full, a read replays a
// whole run of fetches, whose frames those rings drop, in one step
// (drop_run, ring::TxSource::emit_run), only where that provably equals
// one fetch at a time: the source paced at a whole-picosecond gap equal
// to the serialization time, its next emit strictly inside the
// serialization time before the next fetch (each fetch pulls one frame),
// the TX ring not full, no probe among the run's frames (a dropped probe
// still runs the RX timestamp hook), only frames that arrived strictly
// before now, and no packet tracer (a traced frame has its own events).
// The scenario's pool is sized from the testbed's descriptors
// (pkt/packet_pool.h), so no landing finds it dry, and what a landing sees
// does not depend on the instant of the read that makes it.
//
// Behaviours that matter to the paper's measurements:
//  * line rate is the hard ceiling in every scenario with physical ports;
//  * RX-ring overflow is where congestion loss appears when the SUT cannot
//    keep up (ixgbe `imissed`);
//  * hardware PTP timestamping of probe frames on TX and RX, used by
//    MoonGen for RTT measurement (Sec. 5.3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/event_fn.h"
#include "core/event_queue.h"
#include "core/fifo.h"
#include "core/simulator.h"
#include "core/units.h"
#include "ring/tx_source.h"
#include "pkt/frame.h"
#include "ring/spsc_ring.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::pkt {
class PacketPool;
}  // namespace nfvsb::pkt

namespace nfvsb::hw {

class Cable;

namespace detail {
/// Wire-source fetches replayed one at a time on this thread (a scenario
/// runs on one thread, so the difference over its run is that run's).
inline thread_local std::uint64_t wire_steps = 0;
/// Test seam: while set on this thread, wire sources take no bulk step and
/// replay every fetch one at a time, the oracle bulk drops must equal.
inline thread_local bool bulk_drops_refused = false;
}  // namespace detail

/// The wire source's one-at-a-time fetch replays (NicPort::fetch) on this
/// thread so far; see ScenarioResult::Work.
[[nodiscard]] inline std::uint64_t wire_steps_on_this_thread() {
  return detail::wire_steps;
}

class NicPort : private ring::Feed {
 public:
  struct Config {
    core::LinkRate rate = core::kTenGigE;
    std::size_t rx_ring_depth{512};
    std::size_t tx_ring_depth{512};
    /// Hardware queues (RSS spreads RX across them by 5-tuple hash).
    std::size_t num_queues{1};
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

  /// RX frames dropped because an RX ring was full (ixgbe imissed). This
  /// and rx_frames() read the RX rings first (see above), which changes no
  /// result, so both stay const.
  [[nodiscard]] std::uint64_t imissed() const;
  /// Frames fetched onto the wire by now: reads TX ring 0 first, which has
  /// a wire source replay the fetches due (see above).
  [[nodiscard]] std::uint64_t tx_frames() const {
    tx_rings_[0]->catch_up();
    return tx_frames_;
  }
  [[nodiscard]] std::uint64_t rx_frames() const;

  /// Wire attachment (set by Cable).
  void attach_cable(Cable* c) { cable_ = c; }

  /// Called by the cable when a frame starts on its way here: its last bit
  /// reaches this port's MAC `delay` from now, and DMA completes
  /// `dma_rx_latency` later. It lands then, or now for a timed sink.
  void deliver_from_wire(pkt::Frame&& f, core::SimDuration delay);

  /// Send `s`'s frames through the wire source (see above). A port takes
  /// one source, as each of the paper's traffic directions has its own
  /// MoonGen on its own port: a second throws std::logic_error. The source
  /// calls wake_tx() when it starts, and detaches before it dies.
  void attach_tx_source(ring::TxSource& s);
  void detach_tx_source();
  /// Start the wire source; std::logic_error when the port has no cable.
  void wake_tx();

  /// The wire source is running.
  [[nodiscard]] bool wired() const { return wire_to_ != nullptr; }
  /// Take the source's frame `seq` of its recipe (`built` when it is built,
  /// a probe) into the TX backlog, or drop it when the TX ring is full.
  [[nodiscard]] bool wire_accept(std::uint64_t seq, pkt::PacketHandle built);

  /// Called with (frame, MAC time) as a HW-timestamped probe lands — how
  /// MoonGen reads RX timestamps off the NIC (the 82599 stamps PTP frames
  /// when their last bit arrives, before DMA). `frame` is valid only then.
  using RxTimestampHook =
      core::SmallFn<void, const pkt::Packet&, core::SimTime>;
  void set_rx_timestamp_hook(RxTimestampHook h) { rx_ts_hook_ = std::move(h); }

 private:
  /// Where a key sits among the simulator's order keys: one reserved at
  /// instant `at` (key != 0), or this port's late key at the end of `at`.
  struct OrderKey {
    std::uint64_t key{0};
    core::SimTime at{0};
  };

  // ring::Feed: the peer's RX rings and this port's TX ring 0 pull the
  // wire source.
  void catch_up(const ring::SpscRing& read) override;
  void consumer_changed() override;
  /// Land, in order, every frame that has arrived at the peer by now.
  void land_arrived();
  /// For a read of the TX ring: every fetch due by now, and every pull.
  void send_due();
  /// Whether an event at `t` under key `k` would have fired by now.
  [[nodiscard]] bool reached(core::SimTime t, const OrderKey& k) const;
  [[nodiscard]] static bool before(const OrderKey& a, const OrderKey& b);
  /// The next virtual TX fetch, as its lane firing would do it: pull the
  /// source, take the backlog's head (none when the frames owed never
  /// reached it: a probe lost to a dry pool) and set the next fetch.
  pkt::Frame fetch();
  /// Have the source emit every frame due at a pull at `at` (the first is
  /// due), and take its next frame's key then: reserved when `reserve`,
  /// else late. Returns the source's next emit.
  core::SimTime pull(core::SimTime at, bool reserve);
  /// Bulk drops (see above): false, having changed nothing, where the step
  /// is not provably what fetch() and land() would do one at a time.
  [[nodiscard]] bool drop_run();
  /// Put plain frames first_seq.. first_seq + count - 1 at the backlog's
  /// tail, into its last run where they continue it.
  void append_plain(std::uint64_t first_seq, std::uint64_t count);
  /// After a fetch: the next one right behind it while the backlog holds
  /// frames, else when the frame due at `next_emit` is fetched.
  void set_next_fetch(core::SimTime next_emit);
  /// Count a frame that arrived at `at`, pass a probe's MAC time to the RX
  /// timestamp hook, and put it into RX ring `q`, built, or count imissed.
  void land(pkt::Frame&& f, std::size_t q, core::SimTime at);
  /// Keep one event armed at the next landing, under its late key,
  /// exactly while a consumer of the peer's RX rings is idle.
  void sync_wire_wake();
  void arm_wire_wake();

  void on_tx_enqueue();
  /// When a frame that becomes ready at `ready` is fetched: on a busy wire
  /// right behind the frame on it, on an idle one after a DMA fetch.
  [[nodiscard]] core::SimTime fetch_time(core::SimTime ready) const;
  /// One firing of the TX lane: send the next frame of the TX rings and
  /// return its serialization time, or kStopTimer once they drain. Under
  /// the wire source it lands what a monitor takes by now and places the
  /// next landing's wake.
  core::SimDuration serialize_step();
  /// The frame's RSS queue, read without building it.
  [[nodiscard]] std::size_t rss_queue(const pkt::Frame& f) const;

  core::Simulator& sim_;
  std::string name_;
  Config cfg_;
  std::vector<std::unique_ptr<ring::SpscRing>> rx_rings_;
  std::vector<std::unique_ptr<ring::SpscRing>> tx_rings_;
  Cable* cable_{nullptr};
  ring::TxSource* tx_source_{nullptr};
  /// The TX fetch lane: serialize_step, armed while tx_busy_.
  core::Simulator::LaneId tx_lane_;
  bool tx_busy_{false};
  /// The wire source's peer is a monitor: its frames land at their fetch.
  bool land_at_fetch_{false};
  /// The TX queue the round robin tries first. Narrow, like
  /// backlog_frames_, and rx_ts_hook_ (16-byte aligned) comes last, so that
  /// no padding is left and a NicPort stays at 400 bytes: at 416 it fell
  /// into another allocator size class, and perfbench's latency_paced peak
  /// RSS read 5% higher.
  std::uint16_t tx_rr_{0};
  /// When the last frame sent finishes serializing.
  core::SimTime wire_free_at_{0};
  core::Counter tx_frames_;
  core::Counter rx_frames_;
  core::MetricSink* registry_{nullptr};
  // Wire source state (see above).
  /// The peer whose RX rings pull this port's wire source.
  NicPort* wire_to_{nullptr};
  core::SimDuration wire_ser_{0};
  /// Fetch to arrival at the peer: serialization, propagation, RX DMA.
  core::SimDuration wire_delay_{0};
  /// Late-key rank (core::Simulator::late_order) of this port's fetches.
  unsigned wire_rank_{0};
  /// Frames in the TX backlog (below), at most the TX ring's capacity.
  std::uint32_t backlog_frames_{0};
  /// The next virtual fetch, ring::TxSource::kNever when none is due.
  core::SimTime fetch_at_{ring::TxSource::kNever};
  /// The next fetch's key, taken by the start or the fetch before.
  OrderKey fetch_key_;
  /// The key the last pull took for the source's next frame.
  OrderKey last_pull_;
  /// A TX backlog entry: `count` plain frames from first_seq on, or, with
  /// count 0, the built frame `built` (a probe).
  struct Backlog {
    std::uint64_t first_seq{0};
    std::uint64_t count{0};
    pkt::PacketHandle built;
  };
  /// Frames emitted and not yet fetched, the TX ring's contents, in order.
  core::Fifo<Backlog> backlog_;
  /// What a plain frame of the backlog is made from (the source's).
  const pkt::FrameRecipe* wire_recipe_{nullptr};
  pkt::PacketPool* wire_pool_{nullptr};
  /// The idle-consumer wake; while tx_busy_, the TX lane is armed instead,
  /// just after the next fetch's instant, to place that wake.
  core::EventQueue::EventId wire_wake_{core::EventQueue::kInvalidEvent};
  /// Frames a read of the TX ring fetched before they arrived, in order.
  struct Sent {
    core::SimTime fetched_at{0};
    pkt::Frame frame;
  };
  std::unique_ptr<core::Fifo<Sent>> in_flight_;
  RxTimestampHook rx_ts_hook_;
};

}  // namespace nfvsb::hw

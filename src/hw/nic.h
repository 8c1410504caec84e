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
// (propagation included), and the frame's arrival where a consumer reads
// the ring. Fetches fire on the port's simulator lane (core/simulator.h),
// outside the timing wheel but in the order the wheel would give them:
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
//  * every other RX ring gets the frame by an event at its arrival, keyed
//    as the frame leaves the sender: it is counted, timestamped and put
//    in, or lost to imissed and never built (land).
//
// The wire source. When a port's only traffic is its TX source (MoonGen,
// with a recipe) and the cable's far end is a port whose RX rings a
// consumer reads (a SUT port), nothing of the above needs a firing per
// frame. The departure law is closed form: fetch_k is wire_free when the
// wire is still busy at emit_k, else emit_k + dma_tx_latency, and frame k
// lands at fetch_k + serialization + propagation + the peer's
// dma_rx_latency. So the port composes the source's pacing with that law
// into one wire source (start_wire), which every read of the peer's RX
// rings, or of this port's TX ring, pulls (ring::Feed): it replays, in
// order, each fetch whose frame has arrived by now, exactly as
// serialize_step would have done it (the pull of the frames owed, the TX
// ring's occupancy and overflow as tx_failed, tx_frames, a probe's TX
// stamp), and lands the frame in its RSS queue's ring or counts it
// imissed. A frame the ring drops costs no event and no pool buffer, and
// a plain frame takes its buffer only when it lands; the TX backlog holds
// a plain frame as its sequence number. One fetch at a time, a dropped
// frame still costs its emit, fetch and landing; bulk drops (below) take
// whole runs of them in one step. The fetch fires nothing, so its frame's
// order key is a late one (core::Simulator::late_order): after every key
// reserved at or before the fetch's instant, before any reserved later;
// ports whose fetches coincide (a bidirectional pair in lockstep) rank in
// the order they started. While a consumer of the peer's rings is idle,
// one event is kept at the next frame's arrival under that key; when its
// fetch's instant is not past yet, the TX lane fires once just after it
// to place that event.
//
// Bulk drops. While the peer's RX rings are all full, a read replays a
// whole run of fetches, whose frames those rings drop, in one step
// (drop_run): the source emits the run in closed form
// (ring::TxSource::emit_run) and every count advances by it. The step is
// taken only where one fetch at a time would give exactly that: the
// source paced at a whole-picosecond gap equal to the serialization time,
// its next emit strictly inside the serialization time before the next
// fetch (each fetch pulls one frame, and no emit meets a fetch instant),
// the TX ring not full, no probe among the run's frames (a dropped probe
// still runs the RX timestamp hook), and only frames that arrived
// strictly before now (no late-key tie). Everything else goes one fetch
// at a time.
//
// start_wire decides, when the source starts, from what observes the
// port. Three things keep one fetch per frame: a packet tracer (trace ids
// are handed out in emit order across generators, and each traced frame
// has its wire and ring events), a queue sampler (it reads this port's TX
// ring depth at instants that may tie with a fetch, and a lane firing
// settles such a tie by its own order key, which the closed form does not
// have), and a source without a recipe or a peer with a sink. Observing a
// run changes none of its results. Both paths land a frame through one
// function (land), at its arrival: the wire source at the first read
// after it, the per-frame path by the frame's arrival event. A plain
// generator frame takes its pool buffer only where it lands (pkt/frame.h).
// The scenario's pool is sized from the descriptors the testbed configures
// (pkt/packet_pool.h), so no landing finds it dry, and what a landing
// sees does not depend on the instant of the read that makes it.
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

  /// RX frames dropped because an RX ring was full (ixgbe imissed). This
  /// and rx_frames() read the RX rings, which first have a wire source
  /// put in the frames that have arrived by now; that changes no result,
  /// so both stay const.
  [[nodiscard]] std::uint64_t imissed() const;
  /// Reads TX ring 0 first, which brings a wire source up to date.
  [[nodiscard]] std::uint64_t tx_frames() const {
    tx_rings_[0]->catch_up();
    return tx_frames_;
  }
  [[nodiscard]] std::uint64_t rx_frames() const;

  /// Wire attachment (set by Cable).
  void attach_cable(Cable* c) { cable_ = c; }
  [[nodiscard]] bool link_up() const { return cable_ != nullptr; }

  /// Called by the cable when a frame starts on its way here: its last bit
  /// reaches this port's MAC `delay` from now, and DMA completes
  /// `dma_rx_latency` later, at arrival time `at`. A ring with a timed sink
  /// gets it now, passed `at`; any other ring by an event at `at`. Either
  /// way it lands (see land).
  void deliver_from_wire(pkt::Frame&& f, core::SimDuration delay);

  /// Pull frames from `s` at every TX fetch (see ring/tx_source.h). A
  /// port takes one source, as each of the paper's traffic directions has
  /// its own MoonGen on its own port: attaching a second throws
  /// std::logic_error. The source must call wake_tx() when its next emit
  /// time becomes known, and detach before it dies.
  void attach_tx_source(ring::TxSource& s);
  void detach_tx_source();
  /// The source has started: reserve its first frame's order key and arm
  /// a TX fetch for that frame, unless one is armed earlier; or start the
  /// wire source (see above).
  void wake_tx();

  /// The wire source is running: the TX source hands its frames to
  /// wire_accept() instead of the TX ring.
  [[nodiscard]] bool wired() const { return wire_to_ != nullptr; }
  /// Wire source: take the source's plain frame `seq` (a sequence number
  /// of its recipe), or a built frame (a probe), into the TX backlog, or
  /// drop it when the TX ring would be full (false).
  [[nodiscard]] bool wire_accept(std::uint64_t seq);
  [[nodiscard]] bool wire_accept(pkt::PacketHandle built);

  /// Callback invoked with (frame, rx_wire_time) when a HW-timestamped
  /// probe frame arrives — how MoonGen reads RX timestamps off the NIC.
  /// It runs at DMA completion but is passed the MAC time, when the last
  /// bit arrived (the 82599 stamps PTP frames before DMA). The frame
  /// reference is only valid during the call.
  using RxTimestampHook =
      core::SmallFn<void, const pkt::Packet&, core::SimTime>;
  void set_rx_timestamp_hook(RxTimestampHook h) { rx_ts_hook_ = std::move(h); }

 private:
  // ring::Feed: the peer's RX rings pull the wire source.
  void catch_up() override;
  void consumer_changed() override;
  /// Start the wire source if this port qualifies (see above).
  [[nodiscard]] bool start_wire();
  void stop_wire();
  /// The next virtual TX fetch: pull the source, take the backlog's head
  /// and set the fetch after it, exactly as serialize_step would. Empty
  /// when the backlog is: the frames owed never reached it (a probe the
  /// pool had no buffer for), and the next fetch waits for the next emit.
  pkt::Frame fetch();
  /// Bulk drops: replay in one step the run of fetches, from the next one
  /// on, whose frames arrived before now and which the peer's full RX
  /// rings all drop, where that is provably what fetch() and land() would
  /// do one at a time (see above). False, having changed nothing, where it
  /// is not.
  [[nodiscard]] bool drop_run();
  /// Put plain frames first_seq.. first_seq + count - 1 at the backlog's
  /// tail, into its last run where they continue it.
  void append_plain(std::uint64_t first_seq, std::uint64_t count);
  /// After a fetch: the next one right behind it while the backlog holds
  /// frames, else when the source's next frame, due at `next_emit`, is
  /// fetched.
  void set_next_fetch(core::SimTime next_emit);
  /// Receiving side, on both paths: count a frame that arrived at `at`,
  /// pass a probe's MAC time to the RX timestamp hook, and put the frame
  /// into RX ring `q` (its RSS queue), built, or count it imissed.
  void land(pkt::Frame&& f, std::size_t q, core::SimTime at);
  /// Keep one event armed at the next frame's arrival, under its late key,
  /// exactly while a consumer of the peer's RX rings is idle.
  void sync_wire_wake();
  void arm_wire_wake();

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
  /// The TX queue the round robin tries first. Narrow, like
  /// backlog_frames_, and registry_ sits before rx_ts_hook_, so that the
  /// wire source's state fills padding and a NicPort stays at 400 bytes:
  /// at 416 it fell into another allocator size class, and perfbench's
  /// latency_paced peak RSS read 5% higher.
  std::uint16_t tx_rr_{0};
  core::SimTime tx_fetch_at_{0};
  /// When the last frame sent finishes serializing.
  core::SimTime wire_free_at_{0};
  core::Counter tx_frames_;
  core::Counter rx_frames_;
  core::MetricSink* registry_{nullptr};
  RxTimestampHook rx_ts_hook_;
  // Wire source state (sending side; see above).
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
  /// Virtual fetches so far, and 1 + the one whose pull reserved the
  /// source's current order key (0: the source's start reserved it).
  std::uint64_t fetches_{0};
  std::uint64_t key_pulled_in_{0};
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
};

}  // namespace nfvsb::hw

// Fixed-capacity FIFO ring of packets, the universal buffering element of
// the simulated data plane (NIC descriptor rings, virtio vrings, netmap
// rings, inter-module links).
//
// Two delivery modes:
//  * buffered (default): producers enqueue, a consumer polls; a watcher
//    callback fires on the empty->non-empty transition so pollers/interrupt
//    handlers can be woken without busy-looping simulated time;
//  * sink: a sink callback consumes packets immediately on enqueue (used by
//    the zero-overhead MoonGen RX monitor; the paper treats its monitors'
//    overhead as negligible). A timed sink also takes the packet's arrival
//    time: its producer (a NIC) hands packets over with deliver() as soon
//    as it knows that time, which may be ahead of now.
//
// Unbuilt frames. The ring holds pkt::Frames (pkt/frame.h): built
// packets, or generator frames that are not built yet. A frame that
// overflows is counted as a drop and never built. One enqueued unbuilt
// stays so until a read needs its bytes (dequeue); a NIC's TX fetch takes
// the head as it is (dequeue_frame). A wire-fed ring builds each frame
// that fits as it lands, as a NIC DMAs it.
//
// Lazy RX. A ring fed from a wire (a NIC RX ring, feed_from_wire) learns
// each frame's arrival time when the frame leaves the sender, and keeps it
// in flight until then. Every read (dequeue, size, empty, full, the
// counters, clear) first puts in each frame that has arrived by now, in
// arrival order, so occupancy at each arrival, and hence which frames
// overflow, is what it would be with one arrival event per frame: nothing
// dequeues between two reads. An event is kept only where something must
// happen at the arrival instant: while the consumer is idle (not
// set_consumer_busy) an event is armed at the in-flight head's arrival,
// under the order key the frame reserved when it left the sender, so it
// fires exactly where its arrival event would have. A busy poller, like
// DPDK's rx_burst, just reads whatever has arrived by the time it looks.
// A frame arriving at the very instant of a read counts as arrived when
// its key is not after the reading event's (core::Simulator::reached).
//
// Pulled TX. A guest's TX ring is fed by a paced generator in the guest
// (feed_from_source) the same way: the source's next frame is in flight
// to the ring, arriving at its emit time under the order key of
// ring/tx_source.h's tie rule. Every read first enqueues, each
// stamped with its emit time as its arrival, the frames the source owes by
// then, and the idle-consumer event is armed at the next one. A consumer
// that is idle between frames (a switch fed at a low rate) is thus woken
// by one event per frame, as before; a busy one costs no event per frame.
// In traced runs every pulled frame keeps its event, busy consumer or not:
// trace ids are handed out in emit order across generators.
//
// Enqueueing into a full ring drops the packet (freed back to its pool, or
// an unbuilt frame's reservation given back) and counts the drop — this is
// where all simulated loss happens, exactly as in the real systems (NIC
// imissed, vring full, link overflow).
//
// Storage is a core::Fifo: one power-of-two circular buffer that grows
// only on a new high-water mark, and never past the first power of two
// that holds the capacity. Unlike a real descriptor ring it is not
// allocated up front, so an idle 4096-deep NIC ring costs nothing; once a
// ring has reached its peak depth, enqueue and dequeue never touch the
// heap.
//
// Every ring registers its counters ("ring/<name>/...") and a depth probe
// with the active core::MetricSink (if any) at construction, and emits
// trace events (residency slices for sampled packets, drop instants) when a
// trace sink is installed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/counter.h"
#include "core/event_fn.h"
#include "core/event_queue.h"
#include "core/fifo.h"
#include "core/simulator.h"
#include "core/time.h"
#include "pkt/frame.h"
#include "pkt/packet.h"
#include "ring/tx_source.h"

namespace nfvsb::core {
class MetricSink;
}  // namespace nfvsb::core

namespace nfvsb::ring {

class SpscRing {
 public:
  /// Invoked after every successful enqueue; the argument is true when the
  /// ring transitioned empty -> non-empty with this packet. SmallFn, not
  /// std::function: the ring is the hottest path in the tree and watcher
  /// installation must never implicitly heap-allocate per wake.
  using Watcher = core::SmallFn<void, bool>;
  using Sink = core::SmallFn<void, pkt::PacketHandle>;
  using TimedSink = core::SmallFn<void, pkt::PacketHandle, core::SimTime>;
  /// Called as each wire-fed frame lands, before it is put in or dropped,
  /// with its arrival time. The frame may be unbuilt.
  using ArrivalFn = core::SmallFn<void, pkt::Frame&, core::SimTime>;

  SpscRing(std::string name, std::size_t capacity);
  ~SpscRing();

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// True if accepted; false if the ring was full (packet dropped & freed,
  /// or an unbuilt frame's reservation given back).
  bool enqueue(pkt::Frame&& f);

  /// Empty handle when the ring is empty. An unbuilt head is built.
  pkt::PacketHandle dequeue();
  /// The head as it is, built or not (a NIC's TX fetch); empty when the
  /// ring is empty.
  pkt::Frame dequeue_frame();

  // Reads put in the frames that have arrived by now first (see above).
  [[nodiscard]] std::size_t size() {
    catch_up();
    return q_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() {
    catch_up();
    return q_.empty();
  }
  [[nodiscard]] bool full() { return size() >= capacity_; }

  [[nodiscard]] std::uint64_t drops() {
    catch_up();
    return drops_;
  }
  [[nodiscard]] std::uint64_t enqueued() {
    catch_up();
    return enqueued_;
  }
  [[nodiscard]] std::uint64_t dequeued() {
    catch_up();
    return dequeued_;
  }
  /// Packets discarded by clear() at teardown (counted so the
  /// packet-conservation ledger still balances with buffered residue).
  [[nodiscard]] std::uint64_t cleared() const { return cleared_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Fires on every successful enqueue (see Watcher).
  void set_watcher(Watcher w) { watcher_ = std::move(w); }
  /// Inside the watcher: when the packet just enqueued reached the ring.
  /// A wire-fed or pulled frame may be put in after it arrived; a packet
  /// enqueued directly arrives `now`.
  [[nodiscard]] core::SimTime arrival_time(core::SimTime now) const {
    return arriving_at_ == core::kNoTimestamp ? now : arriving_at_;
  }

  /// Lazy RX (see above): frames reach this ring through arrive(), on
  /// `sim`'s clock, and `on_arrival` runs as each one is put in.
  void feed_from_wire(core::Simulator& sim, ArrivalFn on_arrival);
  /// A frame that left its sender now lands here at `at`. Arrival times
  /// must not decrease (one wire feeds the ring).
  void arrive(pkt::Frame&& f, core::SimTime at);
  /// Pulled TX (see above): frames reach this ring from `src`, paced on
  /// `sim`'s clock, and every read first puts in the ones due by then.
  /// The source must call wake_source() when it starts, and
  /// detach_source() before it dies.
  void feed_from_source(core::Simulator& sim, TxSource& src);
  /// The source's first frame is known: reserve its order key and, while
  /// the consumer is idle, arm the event that puts it in.
  void wake_source();
  void detach_source();
  /// Put in every in-flight frame that has arrived by now, in arrival
  /// order, or every frame the source owes by now (each read does this
  /// itself).
  void catch_up() {
    if (!in_flight_.empty() && landed(in_flight_[0])) land_arrived();
    if (source_ != nullptr) pull_source();
  }
  /// The consumer is mid-round and will read the ring before it goes idle,
  /// so arrivals need no event; when it goes idle (false), the next frame
  /// to arrive gets its event again. Rings start with an idle consumer.
  void set_consumer_busy(bool busy) {
    consumer_busy_ = busy;
    if (wake_ != core::EventQueue::kInvalidEvent || !in_flight_.empty() ||
        source_ != nullptr) {
      sync_wake();
    }
  }

  /// Divert all future enqueues straight into `s` (monitor mode). The ring
  /// must be empty when the sink is installed.
  void set_sink(Sink s);
  /// Monitor mode with arrival times: packets reach `s` only through
  /// deliver(), never enqueue(). The ring must be empty.
  void set_sink(TimedSink s);
  [[nodiscard]] bool has_timed_sink() const {
    return static_cast<bool>(timed_sink_);
  }
  /// Hand `p` to the timed sink as arriving at `at` (counted as one
  /// enqueue and one dequeue, like a plain sink).
  void deliver(pkt::PacketHandle p, core::SimTime at) {
    ++enqueued_;
    ++dequeued_;
    timed_sink_(std::move(p), at);
  }

  /// Drop everything buffered (used at scenario teardown). The discarded
  /// packets are counted in cleared(): enqueued == dequeued + cleared +
  /// size() holds at all times. Frames still in flight stay in flight.
  void clear();

 private:
  struct InFlight {
    core::SimTime at{0};
    /// Order key reserved when the frame left its sender.
    std::uint64_t order{0};
    pkt::Frame frame;
  };

  /// Enqueue a frame that reached the ring at `at` (kNoTimestamp: now).
  bool push(pkt::Frame&& f, core::SimTime at);
  [[nodiscard]] bool landed(const InFlight& f) const {
    return sim_->reached(f.at, f.order);
  }
  void land_arrived();
  /// Enqueue, each at its emit time, the source's frames due by now, if
  /// any (and if this is not a read from inside a pull).
  void pull_source();
  /// Keep an event armed at the next arrival (the in-flight head, or the
  /// source's next frame), under the key it reserved, exactly while the
  /// consumer is idle (and for every pulled frame in traced runs).
  void sync_wake();

  std::string name_;
  std::size_t capacity_;
  core::Fifo<pkt::Frame> q_;
  Watcher watcher_;
  Sink sink_;
  TimedSink timed_sink_;
  core::SimTime arriving_at_{core::kNoTimestamp};
  // Lazy RX state (wire-fed rings only).
  core::Simulator* sim_{nullptr};
  ArrivalFn on_arrival_;
  core::Fifo<InFlight> in_flight_;
  bool consumer_busy_{false};
  core::EventQueue::EventId wake_{core::EventQueue::kInvalidEvent};
  core::Counter drops_;
  core::Counter enqueued_;
  core::Counter dequeued_;
  core::Counter cleared_;
  core::MetricSink* registry_{nullptr};
  // Pulled TX state (source-fed rings only).
  TxSource* source_{nullptr};
  /// Order key of the source's next frame.
  std::uint64_t source_order_{0};
  bool pulling_{false};
  /// Emit time of the frame being pulled (kNoTimestamp outside a pull).
  core::SimTime pulling_at_{core::kNoTimestamp};
};

}  // namespace nfvsb::ring

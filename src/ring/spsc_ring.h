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
// the head as it is (dequeue_frame). A NIC builds each frame that fits
// into its RX ring as it lands (land), as it DMAs it.
//
// Closed-form wire. A NIC RX ring whose sender is a wire source (hw/nic.h)
// has no event per frame: every read (dequeue, size, empty, full, the
// counters) first has its Feed put in what has arrived by now (land, or
// count_drop for a frame that is never made). Nothing dequeues between two
// reads, so each frame meets the ring as it stood at its arrival, and the
// same frames overflow as with an event per arrival. set_consumer_busy
// tells the feed, which keeps the idle-consumer wake itself. The sending
// port's TX ring has the same feed: a read of it has the wire source
// replay the fetches due, and its depth is the port's backlog. A NIC RX
// ring fed by a host's TX ring gets each frame by an event at its arrival
// (hw/nic.h).
//
// Pulled TX. A guest's TX ring is fed by a paced generator in the guest
// (feed_from_source) the same way: the source's next frame is in flight
// to the ring, arriving at its emit time under the order key of
// ring/tx_source.h's tie rule. Every read first enqueues, each
// stamped with its emit time as its arrival, the frames the source owes by
// then, and the idle-consumer event is armed at the next one. A consumer
// that is idle between frames (a switch fed at a low rate) is thus woken
// by one event per frame, as before; a busy one costs no event per frame,
// traced or not (a frame's trace id does not depend on when it is put in,
// pkt/frame.h).
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

namespace detail {
/// Enqueues plus dequeues on every ring of this thread (a scenario runs on
/// one thread, so the difference over its run is that run's ring work).
inline thread_local std::uint64_t ring_ops = 0;
}  // namespace detail

/// Ring operations (successful enqueues plus dequeues, a sink's handover
/// counting as both) on this thread so far; see ScenarioResult::Work.
[[nodiscard]] inline std::uint64_t ops_on_this_thread() {
  return detail::ring_ops;
}

/// What feeds a ring from a wire in closed form (hw::NicPort's wire
/// source, hw/nic.h): every read of the ring first has it bring the ring up
/// to date (for an RX ring, put in the frames that have arrived by now:
/// SpscRing::land, SpscRing::count_drop), and the ring tells it when its
/// consumer goes busy or idle.
class SpscRing;

class Feed {
 public:
  virtual void catch_up(const SpscRing& read) = 0;
  virtual void consumer_changed() = 0;

 protected:
  ~Feed() = default;
};

class SpscRing {
 public:
  /// Invoked after every successful enqueue; the argument is true when the
  /// ring transitioned empty -> non-empty with this packet. SmallFn, not
  /// std::function: the ring is the hottest path in the tree and watcher
  /// installation must never implicitly heap-allocate per wake.
  using Watcher = core::SmallFn<void, bool>;
  using Sink = core::SmallFn<void, pkt::PacketHandle>;
  using TimedSink = core::SmallFn<void, pkt::PacketHandle, core::SimTime>;

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
  // The depth is what went in and has not come out, which for a NIC TX ring
  // under the wire source is its port's backlog (count_bypass).
  [[nodiscard]] std::size_t size() {
    catch_up();
    return depth();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() { return size() == 0; }
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
  /// Enqueues into an empty ring: the doorbells ("kicks") a virtio guest
  /// rings on its TX ring. Every ring counts them; ring::VhostUserPort
  /// registers its guest-to-host ring's count.
  [[nodiscard]] const core::Counter& kicks() {
    catch_up();
    return kicks_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Fires on every successful enqueue (see Watcher).
  void set_watcher(Watcher w) { watcher_ = std::move(w); }
  /// Inside the watcher: when the packet just enqueued reached the ring.
  /// A frame from a wire source or a pulled one may be put in after it
  /// arrived; a packet enqueued directly arrives `now`.
  [[nodiscard]] core::SimTime arrival_time(core::SimTime now) const {
    return arriving_at_ == core::kNoTimestamp ? now : arriving_at_;
  }

  /// Pulled TX (see above): frames reach this ring from `src`, paced on
  /// `sim`'s clock, and every read first puts in the ones due by then.
  /// The source must call wake_source() when it starts, and
  /// detach_source() before it dies.
  void feed_from_source(core::Simulator& sim, TxSource& src);
  /// The source's first frame is known: reserve its order key and, while
  /// the consumer is idle, arm the event that puts it in.
  void wake_source();
  void detach_source();
  /// Have the feed put in every frame that has arrived by now, and put in
  /// every frame the source owes by now (each read does this itself).
  void catch_up() {
    if (feed_ != nullptr) feed_->catch_up(*this);
    if (source_ != nullptr) pull_source();
  }
  /// The consumer is mid-round and will read the ring before it goes idle,
  /// so a feed's or a source's frames need no event; when it goes idle
  /// (false), the next one to arrive gets its event again. Rings start
  /// with an idle consumer.
  void set_consumer_busy(bool busy) {
    consumer_busy_ = busy;
    if (feed_ != nullptr) feed_->consumer_changed();
    if (source_ != nullptr) sync_wake();
  }
  [[nodiscard]] bool consumer_busy() const { return consumer_busy_; }

  /// Closed-form wire (see Feed): every read first has `f` put in what has
  /// arrived by now. One feed per ring; nullptr detaches it.
  void feed_from(Feed* f) { feed_ = f; }
  /// For a NIC landing a frame (a feed inside its catch_up(), or a frame's
  /// arrival event): whether a frame arriving now fits, a frame that
  /// arrived at `at` put in, and one that did not fit counted as a drop
  /// without ever being made.
  [[nodiscard]] bool has_room() const { return q_.size() < capacity_; }
  void land(pkt::Frame&& f, core::SimTime at) { (void)push(std::move(f), at); }
  void count_drop(core::SimTime at);
  /// Count enqueues, dequeues and drops that a port did in closed form
  /// instead of through this ring (a NIC TX ring under the wire source).
  void count_bypass(std::uint64_t enq, std::uint64_t deq, std::uint64_t drops) {
    enqueued_ += enq;
    dequeued_ += deq;
    drops_ += drops;
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
    detail::ring_ops += 2;
    timed_sink_(std::move(p), at);
  }

 private:
  [[nodiscard]] std::size_t depth() const {
    return static_cast<std::size_t>(enqueued_ - dequeued_);
  }
  /// Enqueue a frame that reached the ring at `at` (kNoTimestamp: now).
  bool push(pkt::Frame&& f, core::SimTime at);
  /// Enqueue, each at its emit time, the source's frames due by now, if
  /// any (and if this is not a read from inside a pull).
  void pull_source();
  /// Keep an event armed at the source's next frame, under the key it
  /// reserved, exactly while the consumer is idle.
  void sync_wake();

  std::string name_;
  std::size_t capacity_;
  core::Fifo<pkt::Frame> q_;
  Watcher watcher_;
  Sink sink_;
  TimedSink timed_sink_;
  core::SimTime arriving_at_{core::kNoTimestamp};
  core::Simulator* sim_{nullptr};
  bool consumer_busy_{false};
  core::EventQueue::EventId wake_{core::EventQueue::kInvalidEvent};
  core::Counter drops_;
  core::Counter enqueued_;
  core::Counter dequeued_;
  core::Counter kicks_;
  core::MetricSink* registry_{nullptr};
  Feed* feed_{nullptr};
  // Pulled TX state (source-fed rings only).
  TxSource* source_{nullptr};
  /// Order key of the source's next frame.
  std::uint64_t source_order_{0};
  bool pulling_{false};
  /// Emit time of the frame being pulled (kNoTimestamp outside a pull).
  core::SimTime pulling_at_{core::kNoTimestamp};
};

}  // namespace nfvsb::ring

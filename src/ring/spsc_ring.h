// Fixed-capacity FIFO ring of packets, the universal buffering element of
// the simulated data plane (NIC descriptor rings, virtio vrings, netmap
// rings, inter-module links).
//
// Two delivery modes:
//  * buffered (default): producers enqueue, a consumer polls; a watcher
//    callback fires on the empty->non-empty transition so pollers/interrupt
//    handlers can be woken without busy-looping simulated time;
//  * sink: a sink callback consumes packets immediately on enqueue (used by
//    zero-overhead traffic monitors, per the paper's use of FloWatcher /
//    MoonGen RX whose overhead is negligible). A timed sink also takes the
//    packet's arrival time: its producer (a NIC) hands packets over with
//    deliver() as soon as it knows that time, which may be ahead of now.
//
// Enqueueing into a full ring drops the packet (freed back to its pool) and
// counts the drop — this is where all simulated loss happens, exactly as in
// the real systems (NIC imissed, vring full, link overflow).
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
#include "core/fifo.h"
#include "core/time.h"
#include "pkt/packet.h"

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

  SpscRing(std::string name, std::size_t capacity);
  ~SpscRing();

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// True if accepted; false if the ring was full (packet dropped & freed).
  bool enqueue(pkt::PacketHandle p);

  /// Empty handle when the ring is empty.
  pkt::PacketHandle dequeue();

  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] bool full() const { return q_.size() >= capacity_; }

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t enqueued() const { return enqueued_; }
  [[nodiscard]] std::uint64_t dequeued() const { return dequeued_; }
  /// Packets discarded by clear() at teardown (counted so the
  /// packet-conservation ledger still balances with buffered residue).
  [[nodiscard]] std::uint64_t cleared() const { return cleared_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Fires on every successful enqueue (see Watcher).
  void set_watcher(Watcher w) { watcher_ = std::move(w); }

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

  /// Frames the queue sampler's depth read adds to size(): ones a
  /// producer dequeued earlier within the current instant than the order
  /// it models (set from hw::NicPort's sampler hook).
  void set_sample_lag(std::size_t n) { sample_lag_ = n; }

  /// Drop everything buffered (used at scenario teardown). The discarded
  /// packets are counted in cleared(): enqueued == dequeued + cleared +
  /// size() holds at all times.
  void clear();

 private:
  std::string name_;
  std::size_t capacity_;
  core::Fifo<pkt::PacketHandle> q_;
  Watcher watcher_;
  Sink sink_;
  TimedSink timed_sink_;
  std::size_t sample_lag_{0};
  core::Counter drops_;
  core::Counter enqueued_;
  core::Counter dequeued_;
  core::Counter cleared_;
  core::MetricSink* registry_{nullptr};
};

}  // namespace nfvsb::ring

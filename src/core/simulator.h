// Discrete-event simulator.
//
// Single-threaded event loop over an EventQueue. Components (NICs, CPU-core
// servers, traffic generators) schedule callbacks; the simulator advances
// virtual time monotonically. Determinism: identical schedules + identical
// RNG seed => identical runs.
//
// Work is timed in two ways. One-shot events go on the timing wheel
// (post_in/post_at); a loop re-posts itself from its own callback (a poll
// round, the queue sampler), and the one event that is ever cancelled, a
// ring's wake, is scheduled under a reserved key (schedule_reserved) so it
// has a handle. Callbacks live inline in their event (core/event_fn.h), so
// a re-post with a small capture never touches the allocator.
//
// Lanes. The NIC TX fetches fire about once per frame. A lane keeps such a
// loop outside the timing wheel: the run loop holds each armed lane's
// (time, order key) and fires the earliest one whenever it comes before
// the wheel's head. Arming a lane takes its key from reserve_order(),
// exactly where posting the loop's next event would have taken a sequence
// number, so every key of a run, and with them every same-instant tie, is
// what the wheel would have given. Lanes live in fixed inline storage, so
// registering one never allocates.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/event_fn.h"
#include "core/event_queue.h"
#include "core/fifo.h"
#include "core/rng.h"
#include "core/time.h"

namespace nfvsb::core {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 0x5eed5eed) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Post `cb` `delay` picoseconds from now. Negative delays are clamped
  /// to zero (events cannot run in the past). Posted events have no
  /// handle; the one cancellable event uses schedule_reserved().
  void post_in(SimDuration delay, EventQueue::Callback cb) {
    if (delay < 0) delay = 0;
    (void)events_.schedule(now_ + delay, std::move(cb));
  }
  /// Post at an absolute time; `at` earlier than now() is clamped.
  void post_at(SimTime at, EventQueue::Callback cb) {
    if (at < now_) at = now_;
    (void)events_.schedule(at, std::move(cb));
  }

  /// Fire `fn` at now()+first_delay and then every `period`, for as long
  /// as the simulator runs (the engine benchmarks time re-posts with it).
  /// `fn` is stored once; each re-post is allocation-free.
  void schedule_every(SimDuration first_delay, SimDuration period, EventFn fn);

  /// Cancel an event from schedule_reserved() that has not fired yet.
  void cancel(EventQueue::EventId id) { events_.cancel(id); }

  // --- order keys -------------------------------------------------------------
  // Events at one instant fire in scheduling order. Work that is known now
  // but needs no event unless someone waits on it (a frame landing in a
  // polled ring) reserves the order key an event scheduled now would take;
  // an event armed for it later, if any, fires under that key, exactly
  // where the early one would have.

  /// Take the order key the next scheduled event would.
  [[nodiscard]] std::uint64_t reserve_order() {
    return events_.reserve_seq();
  }

  /// Schedule `cb` at `at` (not before now()) under a key from
  /// reserve_order() whose place at `at` has not passed yet.
  [[nodiscard]] EventQueue::EventId schedule_reserved(
      SimTime at, std::uint64_t order, EventQueue::Callback cb) {
    assert(!reached(at, order));
    return events_.schedule(at, order, std::move(cb));
  }

  /// Whether an event at (`at`, `order`) would have fired by now: it is
  /// earlier, or at this instant and not after the running event. Outside
  /// run()/run_until() every event up to now() keyed before the last run
  /// returned has fired; one keyed since (a generator started between
  /// runs, due now) has not.
  [[nodiscard]] bool reached(SimTime at, std::uint64_t order) const {
    return at < now_ || (at == now_ && order <= running_order_);
  }

  // --- late keys ------------------------------------------------------------
  // A producer that works out in closed form what one event per frame would
  // have done (hw::NicPort's wire source) learns that a frame's instant has
  // come only once it is past. late_order() gives the frame the key it
  // would have taken at the end of that instant: after every key reserved
  // at or before it, before every key reserved later (keys are spaced, see
  // EventQueue::kKeyStride). Each producer has a rank, which orders
  // producers whose instants coincide: the first to ask comes first, as
  // the first one started would have. For this the simulator keeps, at each
  // instant the clock leaves, the next key, over the longest horizon asked
  // for.

  /// Keep the instants of the last `horizon` and take the next rank. A
  /// simulator has kKeyStride - 1 ranks (std::logic_error beyond that).
  [[nodiscard]] unsigned add_late_producer(SimDuration horizon);
  /// The key of rank `rank`'s work at the end of instant `t`, which must be
  /// past (t < now()) by at most the horizon.
  [[nodiscard]] std::uint64_t late_order(SimTime t, unsigned rank) const;
  /// reached() for that key, of an event at `at` (after `t`).
  [[nodiscard]] bool reached_late(SimTime at, SimTime t, unsigned rank) const {
    return at < now_ || (at == now_ && late_order(t, rank) <= running_order_);
  }

  // --- lanes ----------------------------------------------------------------
  /// Returned by a lane callback to leave its lane unarmed.
  static constexpr SimDuration kStopTimer = -1;
  /// Lane callback: returns the delay to the next firing, or kStopTimer
  /// (any negative value) to stop.
  using RecurringFn = SmallFn<SimDuration>;

  /// Handle of a registered lane.
  using LaneId = std::uint32_t;
  /// Lanes one simulator holds at once: one per NIC port (hw::Testbed
  /// checks its four ports fit).
  static constexpr std::size_t kMaxLanes = 8;

  /// Register a lane with callback `fn`, unarmed. `fn` returns the delay
  /// to its next firing or kStopTimer.
  /// Throws std::length_error when all kMaxLanes are taken.
  [[nodiscard]] LaneId add_lane(RecurringFn fn);
  /// Release a lane (not from inside its own callback).
  void remove_lane(LaneId id);
  /// Fire the lane at `at` (clamped to now()), replacing any pending
  /// firing, under a fresh order key. From inside the lane's own callback
  /// this overrides the callback's return value.
  void arm_lane(LaneId id, SimTime at);
  /// Disarm the lane. From inside its own callback this overrides the
  /// callback's return value.
  void stop_lane(LaneId id);

  /// Run until the event set drains or `until` is reached (events at a time
  /// strictly greater than `until` remain pending; now() ends at `until`).
  void run_until(SimTime until);

  /// Run until the event set drains completely.
  void run();

  /// Events fired from the timing wheel.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  /// Lane firings (not counted in events_processed()).
  [[nodiscard]] std::uint64_t lanes_fired() const { return lanes_fired_; }
  [[nodiscard]] bool has_pending() const {
    return !events_.empty() || next_lane_ != kNoLane;
  }

 private:
  struct Lane {
    RecurringFn fn;
    SimTime at{0};
    std::uint64_t order{0};
    /// Bumped by every arm_lane/stop_lane, so a firing can tell whether
    /// its callback re-armed or stopped the lane itself.
    std::uint64_t epoch{0};
    bool armed{false};
    bool used{false};
  };
  /// The clock left instant `at` when the next key was `next_key`.
  struct Instant {
    SimTime at;
    std::uint64_t next_key;
  };

  static constexpr LaneId kNoLane = 0xffffffffu;
  static constexpr SimTime kNoUntil = std::numeric_limits<SimTime>::max();

  /// Fire events and lanes in (time, order key) order, stopping before the
  /// first one later than `until` (kNoUntil: until both drain).
  void run_loop(SimTime until);
  void fire_lane(LaneId id);
  /// Move the clock to `t`, noting the instant it leaves for late_order().
  void advance_to(SimTime t) {
    if (t != now_ && late_horizon_ >= 0) note_instant(t);
    now_ = t;
  }
  void note_instant(SimTime t);
  /// Recompute next_lane_, the earliest armed lane.
  void find_next_lane();

  /// Post the next firing of a schedule_every() callback `delay` from
  /// now; it re-posts itself `period` after each call.
  void post_every(EventFn& fn, SimDuration delay, SimDuration period);

  EventQueue events_;
  SimTime now_{0};
  Rng rng_;
  std::uint64_t events_processed_{0};
  /// Order key of the event being fired; between runs, just below the
  /// first key taken after the last run returned (0 before the first).
  std::uint64_t running_order_{0};
  /// Instants the clock left, oldest first, back to late_horizon_ (-1:
  /// none kept). The first late producer allocates room for
  /// kInstantsReserved, which every scenario measured stays within.
  static constexpr std::size_t kInstantsReserved = 256;
  Fifo<Instant> instants_;
  SimDuration late_horizon_{-1};
  unsigned late_producers_{0};
  /// schedule_every() callbacks, address-stable for their re-posts.
  std::vector<std::unique_ptr<EventFn>> every_;
  std::array<Lane, kMaxLanes> lanes_;
  /// Lanes [0, lanes_used_) have been registered at some point.
  std::uint32_t lanes_used_{0};
  LaneId next_lane_{kNoLane};
  std::uint64_t lanes_fired_{0};
};

}  // namespace nfvsb::core

// Discrete-event simulator.
//
// Single-threaded event loop over an EventQueue. Components (NICs, CPU-core
// servers, traffic generators) schedule callbacks; the simulator advances
// virtual time monotonically. Determinism: identical schedules + identical
// RNG seed => identical runs.
//
// Steady-state loops (generator pacing, switch poll re-arming) should use
// the recurring-timer API instead of re-scheduling fresh closures: the
// callback is stored once in a timer slot and each re-arm only schedules a
// 16-byte trampoline, so the hot loop never touches the allocator (see
// core/event_fn.h for the fallback counter tests use to assert this).
//
// Lanes. The busiest recurring timers, the NIC TX fetches, fire about once
// per frame. A lane keeps such a timer outside the timing wheel: the run
// loop holds each armed lane's (time, order key) and fires the earliest
// one whenever it comes before the wheel's head. Arming a lane takes its
// key from reserve_order(), exactly where scheduling the timer's event
// would have taken a sequence number, so every key of a run, and with
// them every same-instant tie, is what the wheel would have given. Lanes
// live in fixed inline storage, so registering one never allocates.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/event_fn.h"
#include "core/event_queue.h"
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

  /// Schedule `cb` `delay` picoseconds from now. Negative delays are clamped
  /// to zero (events cannot run in the past). The returned id is the only
  /// way to cancel — callers that never cancel use post_in() instead.
  [[nodiscard]] EventQueue::EventId schedule_in(SimDuration delay,
                                                EventQueue::Callback cb) {
    if (delay < 0) delay = 0;
    return events_.schedule(now_ + delay, std::move(cb));
  }

  /// Schedule at an absolute time; `at` earlier than now() is clamped.
  [[nodiscard]] EventQueue::EventId schedule_at(SimTime at,
                                                EventQueue::Callback cb) {
    if (at < now_) at = now_;
    return events_.schedule(at, std::move(cb));
  }

  /// Fire-and-forget variants for events that are never cancelled (DMA
  /// completions, wire propagation, drain deadlines). Same semantics as
  /// schedule_in/schedule_at, but deliberately without a handle.
  void post_in(SimDuration delay, EventQueue::Callback cb) {
    (void)schedule_in(delay, std::move(cb));
  }
  void post_at(SimTime at, EventQueue::Callback cb) {
    (void)schedule_at(at, std::move(cb));
  }

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

  // --- recurring timers -----------------------------------------------------
  /// Handle for a recurring timer: slot in the low 32 bits, generation in
  /// the high 32. 0 is never valid.
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;
  /// Returned by an adaptive timer callback to stop the timer.
  static constexpr SimDuration kStopTimer = -1;
  /// Adaptive timer callback: returns the delay to the next firing, or
  /// kStopTimer (any negative value) to stop.
  using RecurringFn = SmallFn<SimDuration>;

  /// Fire `fn` at now()+first_delay and then every `period` until cancelled
  /// (cancel_timer is safe from inside `fn`). The callback is stored once;
  /// each re-arm is allocation-free. Adaptive timers that always stop
  /// themselves (returning kStopTimer) may drop the id with (void).
  [[nodiscard]] TimerId schedule_every(SimDuration first_delay,
                                       SimDuration period, EventFn fn);

  /// Adaptive variant: `fn` returns the delay to its next firing (clamped at
  /// zero), or kStopTimer to stop — for loops whose period varies per
  /// iteration (frame serialization, CPU-limited generators).
  [[nodiscard]] TimerId schedule_every(SimDuration first_delay,
                                       RecurringFn fn);

  /// Stop a recurring timer. Safe on already-stopped ids and from within
  /// the timer's own callback.
  void cancel_timer(TimerId id);

  // --- lanes ----------------------------------------------------------------
  /// Handle of a registered lane.
  using LaneId = std::uint32_t;
  /// Lanes one simulator holds at once: one per NIC port (hw::Testbed
  /// checks its four ports fit).
  static constexpr std::size_t kMaxLanes = 8;

  /// Register a lane with callback `fn`, unarmed. Like an adaptive timer's
  /// callback, `fn` returns the delay to its next firing or kStopTimer.
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

  /// Drop all pending events and recurring timers, disarm every lane (it
  /// stays registered) and reset the clock and counts to zero.
  void reset();

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
  struct RecTimer {
    RecurringFn adaptive;
    EventFn periodic;
    SimDuration period{kStopTimer};  // >= 0 selects the periodic callback
    EventQueue::EventId pending{EventQueue::kInvalidEvent};
    std::uint32_t gen{1};
    std::uint32_t next_free{kNoFreeTimer};
    bool live{false};
  };
  static constexpr std::uint32_t kNoFreeTimer = 0xffffffffu;

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
  static constexpr LaneId kNoLane = 0xffffffffu;
  static constexpr SimTime kNoUntil = std::numeric_limits<SimTime>::max();

  /// Fire events and lanes in (time, order key) order, stopping before the
  /// first one later than `until` (kNoUntil: until both drain).
  void run_loop(SimTime until);
  void fire_lane(LaneId id);
  /// Recompute next_lane_, the earliest armed lane.
  void find_next_lane();

  std::uint32_t alloc_timer();
  void free_timer(std::uint32_t slot);
  [[nodiscard]] TimerId arm_timer(std::uint32_t slot, SimDuration delay);
  void fire_timer(std::uint32_t slot, std::uint32_t gen);

  EventQueue events_;
  SimTime now_{0};
  Rng rng_;
  std::uint64_t events_processed_{0};
  /// Order key of the event being fired; between runs, the last key
  /// taken before the last run returned (0 before the first).
  std::uint64_t running_order_{0};
  std::vector<RecTimer> timers_;
  std::uint32_t timer_free_head_{kNoFreeTimer};
  std::array<Lane, kMaxLanes> lanes_;
  /// Lanes [0, lanes_used_) have been registered at some point.
  std::uint32_t lanes_used_{0};
  LaneId next_lane_{kNoLane};
  std::uint64_t lanes_fired_{0};
};

/// A one-shot timer that can be re-armed in place: the callback is stored
/// once at construction, each arm_at/arm_in replaces any pending occurrence,
/// and arming is allocation-free. Used for poll re-arms (a switch's next
/// service round) where at most one occurrence is ever outstanding. The
/// timer must be address-stable while armed (make it a member, not a local).
class RearmableTimer {
 public:
  RearmableTimer(Simulator& sim, EventFn fn) : sim_(sim), fn_(std::move(fn)) {}

  RearmableTimer(const RearmableTimer&) = delete;
  RearmableTimer& operator=(const RearmableTimer&) = delete;

  ~RearmableTimer() { cancel(); }

  void arm_at(SimTime at) {
    cancel();
    pending_ = sim_.schedule_at(at, [this] {
      pending_ = EventQueue::kInvalidEvent;
      fn_();
    });
  }

  void arm_in(SimDuration delay) {
    cancel();
    pending_ = sim_.schedule_in(delay, [this] {
      pending_ = EventQueue::kInvalidEvent;
      fn_();
    });
  }

  void cancel() {
    if (pending_ != EventQueue::kInvalidEvent) {
      sim_.cancel(pending_);
      pending_ = EventQueue::kInvalidEvent;
    }
  }

  [[nodiscard]] bool armed() const {
    return pending_ != EventQueue::kInvalidEvent;
  }

 private:
  Simulator& sim_;
  EventFn fn_;
  EventQueue::EventId pending_{EventQueue::kInvalidEvent};
};

}  // namespace nfvsb::core

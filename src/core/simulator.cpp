#include "core/simulator.h"

#include <utility>

#include "core/event_fn.h"
#include "core/event_queue.h"

namespace nfvsb::core {

void Simulator::run_loop(SimTime until) {
  for (;;) {
    const bool have_event = !events_.empty();
    const EventQueue::Key head =
        have_event ? events_.next_key() : EventQueue::Key{kNoUntil, 0};
    if (next_lane_ != kNoLane) {
      const Lane& l = lanes_[next_lane_];
      if (l.at < head.time || (l.at == head.time && l.order < head.seq)) {
        if (l.at > until) break;
        fire_lane(next_lane_);
        continue;
      }
    }
    if (!have_event || head.time > until) break;
    auto fired = events_.pop();
    assert(fired.time >= now_ && "event time must be monotone");
    now_ = fired.time;
    running_order_ = fired.seq;
    ++events_processed_;
    fired.cb();
  }
  running_order_ = events_.last_seq();
}

void Simulator::run_until(SimTime until) {
  run_loop(until);
  if (now_ < until) now_ = until;
}

void Simulator::run() { run_loop(kNoUntil); }

void Simulator::reset() {
  events_.clear();
  for (std::uint32_t i = 0; i < timers_.size(); ++i) {
    if (timers_[i].live) free_timer(i);
  }
  for (Lane& l : lanes_) {
    l.armed = false;
    ++l.epoch;
  }
  next_lane_ = kNoLane;
  now_ = 0;
  running_order_ = events_.last_seq();
  events_processed_ = 0;
  lanes_fired_ = 0;
}

Simulator::LaneId Simulator::add_lane(RecurringFn fn) {
  for (LaneId i = 0; i < kMaxLanes; ++i) {
    Lane& l = lanes_[i];
    if (l.used) continue;
    l.used = true;
    l.armed = false;
    l.fn = std::move(fn);
    if (i >= lanes_used_) lanes_used_ = i + 1;
    return i;
  }
  throw std::length_error("simulator: more than kMaxLanes lanes");
}

void Simulator::remove_lane(LaneId id) {
  Lane& l = lanes_[id];
  assert(l.used);
  l.used = false;
  l.fn = RecurringFn{};
  stop_lane(id);
}

void Simulator::arm_lane(LaneId id, SimTime at) {
  Lane& l = lanes_[id];
  assert(l.used);
  l.at = at < now_ ? now_ : at;
  l.order = events_.reserve_seq();
  l.armed = true;
  ++l.epoch;
  find_next_lane();
}

void Simulator::stop_lane(LaneId id) {
  Lane& l = lanes_[id];
  l.armed = false;
  ++l.epoch;
  if (next_lane_ == id) find_next_lane();
}

void Simulator::fire_lane(LaneId id) {
  // Lanes live in fixed storage: the callback may arm, stop or add other
  // lanes without moving this one.
  Lane& l = lanes_[id];
  assert(l.at >= now_ && "lane time must be monotone");
  now_ = l.at;
  running_order_ = l.order;
  ++lanes_fired_;
  l.armed = false;
  const std::uint64_t epoch = l.epoch;
  const SimDuration next = l.fn();
  // The re-arm takes its key here, where a recurring timer's re-arm
  // scheduled its next event, unless the callback armed or stopped the
  // lane itself.
  if (l.epoch == epoch && next >= 0) {
    l.at = now_ + next;
    l.order = events_.reserve_seq();
    l.armed = true;
  }
  find_next_lane();
}

void Simulator::find_next_lane() {
  next_lane_ = kNoLane;
  for (LaneId i = 0; i < lanes_used_; ++i) {
    const Lane& l = lanes_[i];
    if (!l.armed) continue;
    if (next_lane_ != kNoLane) {
      const Lane& best = lanes_[next_lane_];
      if (best.at < l.at || (best.at == l.at && best.order < l.order)) {
        continue;
      }
    }
    next_lane_ = i;
  }
}

std::uint32_t Simulator::alloc_timer() {
  if (timer_free_head_ != kNoFreeTimer) {
    const std::uint32_t slot = timer_free_head_;
    timer_free_head_ = timers_[slot].next_free;
    return slot;
  }
  timers_.emplace_back();
  return static_cast<std::uint32_t>(timers_.size() - 1);
}

void Simulator::free_timer(std::uint32_t slot) {
  RecTimer& t = timers_[slot];
  t.live = false;
  t.adaptive = RecurringFn{};
  t.periodic = EventFn{};
  t.pending = EventQueue::kInvalidEvent;
  if (++t.gen == 0) t.gen = 1;
  t.next_free = timer_free_head_;
  timer_free_head_ = slot;
}

Simulator::TimerId Simulator::arm_timer(std::uint32_t slot,
                                        SimDuration delay) {
  RecTimer& t = timers_[slot];
  const std::uint32_t gen = t.gen;
  t.pending = schedule_in(delay, [this, slot, gen] { fire_timer(slot, gen); });
  return (static_cast<TimerId>(gen) << 32) | slot;
}

Simulator::TimerId Simulator::schedule_every(SimDuration first_delay,
                                             SimDuration period, EventFn fn) {
  if (period < 0) period = 0;
  const std::uint32_t slot = alloc_timer();
  RecTimer& t = timers_[slot];
  t.periodic = std::move(fn);
  t.period = period;
  t.live = true;
  return arm_timer(slot, first_delay);
}

Simulator::TimerId Simulator::schedule_every(SimDuration first_delay,
                                             RecurringFn fn) {
  const std::uint32_t slot = alloc_timer();
  RecTimer& t = timers_[slot];
  t.adaptive = std::move(fn);
  t.period = kStopTimer;
  t.live = true;
  return arm_timer(slot, first_delay);
}

void Simulator::fire_timer(std::uint32_t slot, std::uint32_t gen) {
  {
    RecTimer& t = timers_[slot];
    if (!t.live || t.gen != gen) return;  // cancelled while in flight
    t.pending = EventQueue::kInvalidEvent;
  }
  // Invoke through a local, not in place: the callback can start another
  // recurring timer, growing timers_ and moving the stored fn's inline
  // buffer out from under the in-flight call. It can also cancel this timer
  // (bumping the slot's generation), so revalidate before restoring.
  SimDuration next;
  if (timers_[slot].period >= 0) {
    EventFn fn = std::move(timers_[slot].periodic);
    fn();
    RecTimer& t = timers_[slot];
    if (!t.live || t.gen != gen) return;  // self-cancelled
    t.periodic = std::move(fn);
    next = t.period;
  } else {
    RecurringFn fn = std::move(timers_[slot].adaptive);
    next = fn();
    RecTimer& t = timers_[slot];
    if (!t.live || t.gen != gen) return;
    t.adaptive = std::move(fn);
  }
  if (next < 0) {
    free_timer(slot);
    return;
  }
  // Re-arm keeps the slot/gen pair, so the caller's original id stays valid.
  (void)arm_timer(slot, next);
}

void Simulator::cancel_timer(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || slot >= timers_.size()) return;
  RecTimer& t = timers_[slot];
  if (!t.live || t.gen != gen) return;
  if (t.pending != EventQueue::kInvalidEvent) events_.cancel(t.pending);
  free_timer(slot);
}

}  // namespace nfvsb::core

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
    advance_to(fired.time);
    running_order_ = fired.seq;
    ++events_processed_;
    fired.cb();
  }
  // Every key taken so far, and every late key placed among them, counts
  // as reached until the next run.
  running_order_ = events_.last_seq() + EventQueue::kKeyStride - 1;
}

void Simulator::run_until(SimTime until) {
  run_loop(until);
  if (now_ < until) advance_to(until);
}

void Simulator::run() { run_loop(kNoUntil); }

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
  advance_to(l.at);
  running_order_ = l.order;
  ++lanes_fired_;
  l.armed = false;
  const std::uint64_t epoch = l.epoch;
  const SimDuration next = l.fn();
  // The re-arm takes its key here, where a loop re-posting its next event
  // after its callback would, unless the callback armed or stopped the
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

unsigned Simulator::add_late_producer(SimDuration horizon) {
  assert(horizon >= 0);
  // Rank r's keys sit r + 1 above a reserved one, below the next.
  if (late_producers_ + 1 >= EventQueue::kKeyStride) {
    throw std::logic_error("simulator: no late-key rank left");
  }
  if (horizon > late_horizon_) late_horizon_ = horizon;
  instants_.reserve(kInstantsReserved);
  return late_producers_++;
}

void Simulator::note_instant(SimTime t) {
  instants_.push_back(Instant{now_, events_.next_seq()});
  // Keep the last instant at or before the horizon's start: it answers
  // every query from there on.
  while (instants_.size() > 1 && instants_[1].at <= t - late_horizon_) {
    (void)instants_.pop_front();
  }
}

std::uint64_t Simulator::late_order(SimTime t, unsigned rank) const {
  assert(t < now_ && "a late key is placed once its instant is past");
  // The last instant the clock stood at no later than t: keys reserved at
  // or before t are those taken by the time it left that instant.
  std::size_t lo = 0;
  std::size_t hi = instants_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (instants_[mid].at <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // note_instant keeps the last instant at or before now - horizon, and a
  // producer asks only about a frame it sent at most its horizon ago (its
  // fetch, whose arrival is at most the horizon later, is not yet past):
  // so that instant is at or before t.
  assert(lo > 0 && "late key beyond the kept horizon");
  return instants_[lo - 1].next_key - EventQueue::kKeyStride + 1 + rank;
}

void Simulator::schedule_every(SimDuration first_delay, SimDuration period,
                               EventFn fn) {
  every_.push_back(std::make_unique<EventFn>(std::move(fn)));
  post_every(*every_.back(), first_delay, period);
}

void Simulator::post_every(EventFn& fn, SimDuration delay,
                           SimDuration period) {
  post_in(delay, [this, &fn, period] {
    fn();
    post_every(fn, period, period);
  });
}

}  // namespace nfvsb::core

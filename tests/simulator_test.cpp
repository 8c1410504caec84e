// Simulator event-loop semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.h"

namespace nfvsb::core {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_FALSE(sim.has_pending());
}

TEST(Simulator, ScheduleInAdvancesClock) {
  Simulator sim;
  SimTime seen = -1;
  sim.post_in(from_us(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, from_us(5));
  EXPECT_EQ(sim.now(), from_us(5));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.post_in(from_us(1), [&] {
    sim.post_in(-from_us(10), [&] { seen = sim.now(); });
  });
  sim.run();  // must not assert/fire in the past
  EXPECT_EQ(seen, from_us(1));
  EXPECT_EQ(sim.now(), from_us(1));
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.post_in(from_us(2), [&] {
    sim.post_at(from_us(1), [&] { fired.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], from_us(2));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.post_in(from_us(1), [&] { ++count; });
  sim.post_in(from_us(10), [&] { ++count; });
  sim.run_until(from_us(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), from_us(5));
  EXPECT_TRUE(sim.has_pending());
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilInclusiveOfBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.post_in(from_us(5), [&] { fired = true; });
  sim.run_until(from_us(5));
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.post_in(from_ns(10), chain);
  };
  sim.post_in(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99 * from_ns(10));
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_reserved(from_us(1), sim.reserve_order(),
                                        [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

// A key taken early keeps its place among same-instant events: an event
// scheduled under it after another was posted still fires first.
TEST(Simulator, ReservedKeyFiresAheadOfLaterPosts) {
  Simulator sim;
  std::vector<std::string> order;
  const std::uint64_t early = sim.reserve_order();
  sim.post_at(from_us(1), [&] { order.push_back("posted"); });
  (void)sim.schedule_reserved(from_us(1), early,
                              [&] { order.push_back("reserved"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"reserved", "posted"}));
}

// A ring's wake is cancelled by a read at the same instant that comes
// before it; the cancel must hold although the wake is already due.
TEST(Simulator, CancelFromAnEventAtTheSameInstant) {
  Simulator sim;
  bool fired = false;
  EventQueue::EventId wake = EventQueue::kInvalidEvent;
  sim.post_at(from_us(1), [&] { sim.cancel(wake); });
  wake = sim.schedule_reserved(from_us(1), sim.reserve_order(),
                               [&] { fired = true; });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_FALSE(sim.has_pending());
}

// While an event runs, its own key has been reached at now() and a key
// taken from inside it has not.
TEST(Simulator, ReachedFollowsTheRunningEvent) {
  Simulator sim;
  bool checked = false;
  const std::uint64_t own = sim.reserve_order();
  (void)sim.schedule_reserved(from_us(1), own, [&] {
    EXPECT_TRUE(sim.reached(from_us(1), own));
    EXPECT_TRUE(sim.reached(from_ns(999), own + 100));  // an earlier instant
    EXPECT_FALSE(sim.reached(from_us(2), own));         // a later one
    EXPECT_FALSE(sim.reached(from_us(1), sim.reserve_order()));
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.post_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// Between runs, an order key taken before the last run returned is past
// at now(), and one taken since is still ahead: a generator started
// between runs with a frame due now has not emitted it yet.
TEST(Simulator, KeyTakenBetweenRunsIsAheadAtNow) {
  Simulator sim;
  const std::uint64_t before_any_run = sim.reserve_order();
  EXPECT_FALSE(sim.reached(0, before_any_run));
  sim.run_until(from_us(1));
  EXPECT_TRUE(sim.reached(from_us(1), before_any_run));
  const std::uint64_t since = sim.reserve_order();
  EXPECT_FALSE(sim.reached(from_us(1), since));
  EXPECT_TRUE(sim.reached(from_ns(999), since));  // an earlier instant
  sim.post_at(from_us(2), [] {});
  sim.run();
  EXPECT_TRUE(sim.reached(from_us(2), since));
}

TEST(Simulator, RngIsSeedDeterministic) {
  Simulator a(42), b(42), c(43);
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  EXPECT_NE(a.rng().next_u64(), c.rng().next_u64());
}

// ---- lanes ----------------------------------------------------------------
// A lane must fire exactly where a loop of one-shot wheel events would: one
// scripted schedule runs once on wheel events and once on a lane, and the
// two firing logs must agree entry for entry. Each entry records the time
// and the next order key, so the logs also pin the running order and every
// key taken.

/// The timer under test, behind the two calls a NIC fetch makes.
class ScriptTimer {
 public:
  virtual ~ScriptTimer() = default;
  /// Fire at `at`, replacing any pending firing.
  virtual void arm(SimTime at) = 0;
  virtual void stop() = 0;
};

/// The reference: each firing is one wheel event under a reserved key,
/// cancelled when the timer is re-armed or stopped. The epoch tells a
/// firing whether its callback armed or stopped the timer itself.
class WheelTimer final : public ScriptTimer {
 public:
  WheelTimer(Simulator& sim, std::function<SimDuration()> fn)
      : sim_(sim), fn_(std::move(fn)) {}
  ~WheelTimer() override { cancel(); }
  void arm(SimTime at) override {
    ++epoch_;
    post(at < sim_.now() ? sim_.now() : at);
  }
  void stop() override {
    ++epoch_;
    cancel();
  }

 private:
  void post(SimTime at) {
    cancel();
    pending_ = sim_.schedule_reserved(at, sim_.reserve_order(), [this] {
      pending_ = EventQueue::kInvalidEvent;
      const std::uint64_t epoch = epoch_;
      const SimDuration next = fn_();
      if (epoch_ == epoch && next >= 0) post(sim_.now() + next);
    });
  }
  void cancel() {
    if (pending_ != EventQueue::kInvalidEvent) sim_.cancel(pending_);
    pending_ = EventQueue::kInvalidEvent;
  }

  Simulator& sim_;
  std::function<SimDuration()> fn_;
  EventQueue::EventId pending_{EventQueue::kInvalidEvent};
  std::uint64_t epoch_{0};
};

class LaneTimer final : public ScriptTimer {
 public:
  LaneTimer(Simulator& sim, std::function<SimDuration()> fn)
      : sim_(sim),
        fn_(std::move(fn)),
        lane_(sim_.add_lane(Simulator::RecurringFn([this] { return fn_(); }))) {}
  ~LaneTimer() override { sim_.remove_lane(lane_); }
  void arm(SimTime at) override { sim_.arm_lane(lane_, at); }
  void stop() override { sim_.stop_lane(lane_); }

 private:
  Simulator& sim_;
  std::function<SimDuration()> fn_;
  Simulator::LaneId lane_;
};

struct Firing {
  std::string who;
  SimTime at;
  std::uint64_t key;
  bool operator==(const Firing&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Firing& f) {
  return os << f.who << "@" << f.at << "#" << f.key;
}

std::unique_ptr<ScriptTimer> make_timer(bool lane, Simulator& sim,
                                        std::function<SimDuration()> fn) {
  if (lane) return std::make_unique<LaneTimer>(sim, std::move(fn));
  return std::make_unique<WheelTimer>(sim, std::move(fn));
}

/// Same-instant ties with wheel events on both sides of the timer, an
/// earlier re-arm from another event, a stop from inside the callback, a
/// zero-delay re-arm and the run_until boundary.
std::vector<Firing> scripted_run(bool lane) {
  Simulator sim;
  std::vector<Firing> log;
  auto note = [&](const std::string& who) {
    log.push_back({who, sim.now(), sim.reserve_order()});
  };
  int n = 0;
  std::unique_ptr<ScriptTimer> t;
  t = make_timer(lane, sim, [&]() -> SimDuration {
    note("timer" + std::to_string(++n));
    switch (n) {
      case 3:
        // Scheduled before the re-arm: fires first at 360.
        sim.post_in(100, [&] { note("tie-after-rearm"); });
        return 100;
      case 5:
        t->stop();  // overrides the return value
        return 10;
      case 6: return 0;
      case 7: return 100;
      case 8: return Simulator::kStopTimer;
      default: return 100;
    }
  });
  sim.post_at(0, [&] {
    note("start");
    t->arm(100);
  });
  // Keyed before the timer's firing at 200, which is armed at 100.
  sim.post_at(200, [&] { note("tie-before"); });
  // Keyed after it.
  sim.post_at(150, [&] { sim.post_at(200, [&] { note("tie-late"); }); });
  // The timer is armed for 300: an earlier re-arm replaces that firing.
  sim.post_at(250, [&] {
    note("rearm-earlier");
    t->arm(260);
  });
  sim.post_at(500, [&] {
    note("rearm-after-stop");
    t->arm(600);
  });
  sim.run_until(600);  // timer6 and timer7 fire at exactly 600
  note(sim.has_pending() ? "boundary-pending" : "boundary-idle");
  sim.run();
  note("end");
  return log;
}

TEST(SimulatorLane, FiresExactlyAsARecurringTimer) {
  const std::vector<Firing> wheel = scripted_run(false);
  const std::vector<Firing> lane = scripted_run(true);
  EXPECT_EQ(lane, wheel);
  std::vector<std::string> who;
  for (const Firing& f : lane) who.push_back(f.who);
  const std::vector<std::string> expected = {
      "start",  "timer1",          "tie-before", "timer2",
      "tie-late", "rearm-earlier", "timer3",     "tie-after-rearm",
      "timer4", "timer5",          "rearm-after-stop", "timer6",
      "timer7", "boundary-pending", "timer8",    "end"};
  EXPECT_EQ(who, expected);
  ASSERT_EQ(lane.size(), expected.size());
  EXPECT_EQ(lane[11].at, 600);
  EXPECT_EQ(lane[12].at, 600);
  EXPECT_EQ(lane[14].at, 700);
}

TEST(SimulatorLane, FiringsAreCountedApartFromEvents) {
  Simulator sim;
  int left = 3;
  const auto lane = sim.add_lane(Simulator::RecurringFn(
      [&] { return --left > 0 ? SimDuration{10} : Simulator::kStopTimer; }));
  sim.arm_lane(lane, 5);
  sim.post_in(1, [] {});
  sim.run_until(2);
  EXPECT_TRUE(sim.has_pending());  // the lane alone
  sim.run();
  EXPECT_FALSE(sim.has_pending());
  EXPECT_EQ(sim.lanes_fired(), 3u);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.now(), 25);
  sim.remove_lane(lane);
}

TEST(SimulatorLane, LanesAreFixedStorage) {
  Simulator sim;
  std::vector<Simulator::LaneId> ids;
  for (std::size_t i = 0; i < Simulator::kMaxLanes; ++i) {
    ids.push_back(sim.add_lane(
        Simulator::RecurringFn([] { return Simulator::kStopTimer; })));
  }
  EXPECT_THROW((void)sim.add_lane(Simulator::RecurringFn(
                   [] { return Simulator::kStopTimer; })),
               std::length_error);
  // A released lane is reused.
  sim.remove_lane(ids[3]);
  EXPECT_EQ(sim.add_lane(Simulator::RecurringFn(
                [] { return Simulator::kStopTimer; })),
            ids[3]);
  for (auto id : ids) sim.remove_lane(id);
}

}  // namespace
}  // namespace nfvsb::core

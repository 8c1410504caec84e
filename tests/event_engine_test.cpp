// Regression and stress tests for the timing-wheel event engine:
// slot+generation cancellation handles, next_time logical constness,
// EventFn inline storage, recurring timers, and wheel boundary behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/event_fn.h"
#include "core/event_queue.h"
#include "core/simulator.h"
#include "core/time.h"

namespace nfvsb::core {
namespace {

// --- cancellation handles (satellite: cancel-after-fire fix) ----------------

TEST(EventQueueCancel, CancelAfterFireIsNoOp) {
  // The seed's tombstone-set queue miscounted here: cancelling an id that
  // had already fired inserted a tombstone and decremented the live count,
  // silently swallowing a later unrelated event. Generation handles detect
  // the stale id instead.
  EventQueue q;
  const auto id = q.schedule(10, [] {});
  bool survivor_fired = false;
  (void)q.schedule(20, [&] { survivor_fired = true; });
  q.pop().cb();  // fires the id=.. event
  q.cancel(id);  // stale: must not affect anything
  EXPECT_EQ(q.size(), 1u);
  ASSERT_FALSE(q.empty());
  q.pop().cb();
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueCancel, DoubleCancelIsNoOp) {
  EventQueue q;
  const auto id = q.schedule(10, [] {});
  (void)q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  q.cancel(id);  // second cancel of the same id
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().time, 20);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueCancel, StaleIdDoesNotHitReusedSlot) {
  // After an event fires, its slab slot is recycled for the next schedule
  // with a bumped generation. The old id must not cancel the new tenant.
  EventQueue q;
  const auto old_id = q.schedule(10, [] {});
  q.pop();  // slot freed, generation bumped
  bool fired = false;
  (void)q.schedule(20, [&] { fired = true; });
  q.cancel(old_id);
  ASSERT_FALSE(q.empty());
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueueCancel, ClearInvalidatesOutstandingIds) {
  EventQueue q;
  const auto id = q.schedule(10, [] {});
  q.clear();
  bool fired = false;
  (void)q.schedule(10, [&] { fired = true; });
  q.cancel(id);  // pre-clear handle: must be dead
  ASSERT_FALSE(q.empty());
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueueCancel, CancelHeadThenScheduleEarlier) {
  // Cancelling the earliest entry leaves a stale ref at the top of the
  // current bucket; a subsequent earlier schedule must still fire first.
  EventQueue q;
  bool wrong = false;
  const auto head = q.schedule(5, [&] { wrong = true; });
  (void)q.schedule(50, [] {});
  EXPECT_EQ(q.next_time(), 5);
  q.cancel(head);
  bool early = false;
  (void)q.schedule(7, [&] { early = true; });
  EXPECT_EQ(q.next_time(), 7);
  q.pop().cb();
  EXPECT_TRUE(early);
  EXPECT_FALSE(wrong);
}

// --- next_time (satellite: const_cast removal) ------------------------------

TEST(EventQueueNextTime, StableAcrossRepeatedCallsWithCancelledHead) {
  // next_time() may advance the wheel cursor internally but must be
  // logically const: repeated calls return the same answer and never
  // change what pop() delivers, even when cancelled entries sit in front.
  EventQueue q;
  std::array<EventQueue::EventId, 3> doomed{};
  doomed[0] = q.schedule(10, [] {});
  doomed[1] = q.schedule(20, [] {});
  doomed[2] = q.schedule(30, [] {});
  (void)q.schedule(40, [] {});
  for (auto id : doomed) q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 40);
  EXPECT_EQ(q.next_time(), 40);  // idempotent
  EXPECT_EQ(q.next_time(), 40);
  const auto fired = q.pop();
  EXPECT_EQ(fired.time, 40);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueNextTime, SeesThroughCancelledFarFutureHead) {
  EventQueue q;
  const auto far = q.schedule(from_ms(50), [] {});
  (void)q.schedule(from_ms(80), [] {});
  q.cancel(far);
  EXPECT_EQ(q.next_time(), from_ms(80));
  EXPECT_EQ(q.size(), 1u);
}

// --- wheel boundaries -------------------------------------------------------

TEST(EventQueueWheel, OrdersAcrossAllLevelSpans) {
  // One event per wheel level plus one beyond the horizon (the overflow
  // heap), scheduled in shuffled order; pops must be globally sorted.
  EventQueue q;
  const std::vector<SimTime> times = {
      SimTime{1} << 12,  // level 0
      SimTime{1} << 25,  // level 1
      SimTime{1} << 35,  // level 2
      SimTime{1} << 45,  // level 3
      SimTime{1} << 55,  // level 4
      SimTime{1} << 61,  // beyond the 2^60 ps horizon: overflow heap
      3,
  };
  for (std::size_t i = times.size(); i-- > 0;) (void)q.schedule(times[i], [] {});
  std::vector<SimTime> popped;
  while (!q.empty()) popped.push_back(q.pop().time);
  std::vector<SimTime> want = times;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(popped, want);
}

TEST(EventQueueWheel, CancelledOverflowEntryNeverFires) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(SimTime{1} << 61, [&] { fired = true; });
  (void)q.schedule((SimTime{1} << 61) + 7, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().time, (SimTime{1} << 61) + 7);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheel, ScheduleBehindCursorFiresImmediately) {
  // Zero-delay re-schedules land at/behind the wheel cursor and must still
  // fire, after any same-time events scheduled earlier.
  EventQueue q;
  std::vector<int> order;
  (void)q.schedule(100, [&] { order.push_back(1); });
  (void)q.schedule(100, [&] { order.push_back(2); });
  auto f = q.pop();
  f.cb();  // fires 1; cursor now past tick(100)
  (void)q.schedule(100, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueWheel, DifferentialOrderAgainstReference) {
  // Exact (time, schedule-sequence) order against a multimap reference,
  // with interleaved schedules, cancels and pops across bucket spans.
  EventQueue q;
  std::multimap<std::pair<SimTime, std::uint64_t>, int> ref;
  std::vector<std::pair<EventQueue::EventId,
                        std::multimap<std::pair<SimTime, std::uint64_t>,
                                      int>::iterator>>
      live;
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  std::uint64_t seq = 0;
  SimTime now = 0;
  int tag = 0;
  for (int round = 0; round < 400; ++round) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto r = x >> 33;
    if (r % 5 < 3 || live.empty()) {
      // Spread delays across level-0, level-1+ and (rarely) overflow spans.
      SimTime delay = 1 + static_cast<SimTime>(r % 1'000'000);
      if (r % 97 == 0) delay = (SimTime{1} << 61) - now;
      const SimTime at = now + delay;
      const auto id = q.schedule(at, [] {});
      live.emplace_back(id, ref.emplace(std::make_pair(at, seq++), tag++));
    } else if (r % 5 == 3) {
      const auto victim = r % live.size();
      q.cancel(live[victim].first);
      ref.erase(live[victim].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (!q.empty()) {
      ASSERT_FALSE(ref.empty());
      EXPECT_EQ(q.next_time(), ref.begin()->first.first);
      const auto fired = q.pop();
      EXPECT_EQ(fired.time, ref.begin()->first.first);
      now = fired.time;
      // Drop the fired event from the shadow structures.
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].second == ref.begin()) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      ref.erase(ref.begin());
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!q.empty()) {
    EXPECT_EQ(q.pop().time, ref.begin()->first.first);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
}

// --- EventFn storage --------------------------------------------------------

TEST(EventFnStorage, DataPathCapturesStayInline) {
  SmallFn<void>::reset_heap_fallback_count();
  int sink = 0;
  void* self = &sink;
  std::uint64_t a = 1, b = 2, c = 3;
  // 32 bytes of capture: over std::function's buffer, inside EventFn's.
  EventFn fn([&sink, self, a, b, c] {
    sink = static_cast<int>(a + b + c) + (self != nullptr ? 1 : 0);
  });
  EXPECT_FALSE(fn.on_heap());
  EXPECT_EQ(SmallFn<void>::heap_fallback_count(), 0u);
  fn();
  EXPECT_EQ(sink, 7);
}

TEST(EventFnStorage, OversizedCaptureSpillsAndCounts) {
  SmallFn<void>::reset_heap_fallback_count();
  std::array<std::uint64_t, 9> big{};  // 72 bytes > 56-byte inline buffer
  big[0] = 41;
  std::uint64_t out = 0;
  EventFn fn([big, &out] { out = big[0] + 1; });
  EXPECT_TRUE(fn.on_heap());
  EXPECT_EQ(SmallFn<void>::heap_fallback_count(), 1u);
  // Moves of a spilled callable transfer the pointer, not a fresh spill.
  EventFn moved = std::move(fn);
  EXPECT_EQ(SmallFn<void>::heap_fallback_count(), 1u);
  moved();
  EXPECT_EQ(out, 42u);
}

// --- recurring timers -------------------------------------------------------

TEST(RecurringTimer, PeriodicFiresAtFixedCadence) {
  Simulator sim;
  std::vector<SimTime> fires;
  (void)sim.schedule_every(100, 250, EventFn([&] { fires.push_back(sim.now()); }));
  sim.run_until(1'000);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 350, 600, 850}));
}

TEST(RecurringTimer, PeriodicKeepsCadenceAcrossRunUntilSteps) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.schedule_every(100, 250, EventFn([&] { fires.push_back(sim.now()); }));
  sim.run_until(99);
  EXPECT_TRUE(fires.empty());
  sim.run_until(350);  // a firing exactly at the boundary runs
  sim.run_until(351);
  sim.run_until(1'000);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 350, 600, 850}));
  EXPECT_TRUE(sim.has_pending());  // it never stops by itself
}

TEST(RecurringTimer, FirstDelayCountsFromNowAndIsClamped) {
  Simulator sim;
  sim.run_until(1'000);
  std::vector<SimTime> a, b;
  sim.schedule_every(0, 100, EventFn([&] { a.push_back(sim.now()); }));
  sim.schedule_every(-50, 100, EventFn([&] { b.push_back(sim.now()); }));
  sim.run_until(1'250);
  EXPECT_EQ(a, (std::vector<SimTime>{1'000, 1'100, 1'200}));
  EXPECT_EQ(b, a);
}

TEST(RecurringTimer, SameInstantFiringsKeepRegistrationOrder) {
  Simulator sim;
  std::vector<char> log;
  sim.schedule_every(10, 10, EventFn([&] { log.push_back('a'); }));
  sim.schedule_every(10, 10, EventFn([&] { log.push_back('b'); }));
  sim.run_until(30);
  EXPECT_EQ(log, (std::vector<char>{'a', 'b', 'a', 'b', 'a', 'b'}));
}

TEST(RecurringTimer, SteadyStateIsAllocationFree) {
  // The acceptance bar for the recurring-timer path: once armed, re-arms
  // must never spill a callback to the heap.
  Simulator sim;
  std::uint64_t fired = 0;
  (void)sim.schedule_every(0, 67'200, EventFn([&fired] { ++fired; }));
  sim.run_until(from_us(10));  // prime the loop
  const auto before = SmallFn<void>::heap_fallback_count();
  sim.run_until(from_ms(1));  // ~14.9k further firings
  EXPECT_GT(fired, 14'000u);
  EXPECT_EQ(SmallFn<void>::heap_fallback_count(), before);
}

TEST(SmallFnThreads, HeapFallbackCounterIsPerThread) {
  // Regression: the counter used to be a plain global, which the parallel
  // campaign runner's workers raced on (TSan-visible). It is thread_local
  // now — a worker's spills must neither show up here nor race.
  const auto base = SmallFn<void>::heap_fallback_count();
  std::array<std::thread, 4> workers;
  for (auto& w : workers) {
    w = std::thread([] {
      std::array<char, 96> big{};  // > inline buffer: forces a heap spill
      SmallFn<void> f([big] { (void)big.size(); });
      f();
      EXPECT_GE(SmallFn<void>::heap_fallback_count(), 1u);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(SmallFn<void>::heap_fallback_count(), base);
}

}  // namespace
}  // namespace nfvsb::core

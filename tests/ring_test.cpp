// SpscRing and Port semantics (buffering, drops, watchers, sinks, pulled
// TX sources, copy accounting for vhost vs ptnet).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fifo.h"
#include "core/simulator.h"
#include "core/trace_sink.h"
#include "drain.h"
#include "obs/trace.h"
#include "pkt/frame.h"
#include "pkt/packet_pool.h"
#include "ring/netmap_port.h"
#include "ring/port.h"
#include "ring/spsc_ring.h"
#include "ring/tx_source.h"
#include "ring/vhost_user_port.h"

namespace nfvsb::ring {
namespace {

class RingTest : public ::testing::Test {
 protected:
  pkt::PacketPool pool_{64};
  pkt::PacketHandle make(std::uint64_t seq = 0) {
    auto p = pool_.allocate();
    p->resize(64);
    p->seq = seq;
    return p;
  }
};

TEST_F(RingTest, FifoOrder) {
  SpscRing ring("r", 8);
  for (std::uint64_t i = 1; i <= 5; ++i) ring.enqueue(make(i));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    auto p = ring.dequeue();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(ring.dequeue());
}

TEST_F(RingTest, DropsWhenFullAndFreesPacket) {
  SpscRing ring("r", 2);
  EXPECT_TRUE(ring.enqueue(make()));
  EXPECT_TRUE(ring.enqueue(make()));
  EXPECT_FALSE(ring.enqueue(make()));
  EXPECT_EQ(ring.drops(), 1u);
  EXPECT_EQ(ring.size(), 2u);
  // The dropped packet went back to the pool.
  EXPECT_EQ(pool_.outstanding(), 2u);
}

// Built packets and unbuilt frames share one FIFO: an unbuilt frame stays
// unbuilt behind a built head, one that overflows is never built, and
// dequeue() builds it.
TEST_F(RingTest, UnbuiltFramesKeepFifoOrderAndOverflowUnbuilt) {
  const pkt::FrameRecipe recipe(pkt::FrameSpec{}, 1, 0);
  SpscRing ring("r", 3);
  auto unbuilt = [&](std::uint64_t seq) {
    EXPECT_TRUE(pool_.reserve());
    return pkt::Frame(recipe, pool_, seq);
  };
  ASSERT_TRUE(ring.enqueue(make(1)));
  ASSERT_TRUE(ring.enqueue(unbuilt(2)));
  ASSERT_TRUE(ring.enqueue(unbuilt(3)));
  EXPECT_FALSE(ring.enqueue(unbuilt(4)));
  EXPECT_EQ(ring.drops(), 1u);
  EXPECT_EQ(pool_.handed_out(), 1u);
  EXPECT_EQ(pool_.outstanding(), 3u);
  pkt::Frame head = ring.dequeue_frame();
  EXPECT_TRUE(head.built());
  EXPECT_EQ(head.seq(), 1u);
  pkt::Frame second = ring.dequeue_frame();
  EXPECT_FALSE(second.built());
  EXPECT_EQ(second.seq(), 2u);
  auto third = ring.dequeue();
  ASSERT_TRUE(third);
  EXPECT_EQ(third->seq, 3u);
  EXPECT_EQ(pool_.handed_out(), 2u);
  EXPECT_FALSE(ring.dequeue_frame());
}

TEST_F(RingTest, FifoOrderSurvivesGrowthWhileWrapped) {
  SpscRing ring("r", 64);
  std::uint64_t next_in = 1;
  std::uint64_t next_out = 1;
  const auto expect_next = [&] {
    auto p = ring.dequeue();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->seq, next_out++);
  };
  for (int i = 0; i < 12; ++i) ring.enqueue(make(next_in++));
  for (int i = 0; i < 10; ++i) expect_next();
  // 16 residents starting 10 slots in: the storage is full and wrapped,
  // so the next enqueue grows it.
  for (int i = 0; i < 14; ++i) ring.enqueue(make(next_in++));
  for (int i = 0; i < 10; ++i) ring.enqueue(make(next_in++));
  EXPECT_EQ(ring.size(), 26u);
  while (!ring.empty()) expect_next();
  EXPECT_EQ(next_out, next_in);
}

TEST(Ring, NonPowerOfTwoCapacityDropsAtExactlyCapacity) {
  pkt::PacketPool pool(1001);
  SpscRing ring("r", 1000);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.enqueue(pool.allocate())) << "enqueue " << i;
  }
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.enqueue(pool.allocate()));
  EXPECT_EQ(ring.drops(), 1u);
  EXPECT_EQ(ring.size(), 1000u);
  EXPECT_EQ(pool.outstanding(), 1000u);
  (void)ring.dequeue();
  EXPECT_TRUE(ring.enqueue(pool.allocate()));
  drain(ring);
}

TEST_F(RingTest, DrainAfterWrapAroundKeepsFifoOrder) {
  SpscRing ring("r", 32);
  for (std::uint64_t i = 0; i < 12; ++i) ring.enqueue(make(i));
  for (int i = 0; i < 10; ++i) (void)ring.dequeue();
  for (std::uint64_t i = 12; i < 26; ++i) ring.enqueue(make(i));  // wraps
  ASSERT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.enqueued(), ring.dequeued() + ring.size());
  for (std::uint64_t want = 10; want < 26; ++want) {
    EXPECT_EQ(ring.dequeue()->seq, want);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(pool_.outstanding(), 0u);
  EXPECT_EQ(ring.enqueued(), ring.dequeued());
  // Still a working ring afterwards.
  ring.enqueue(make(7));
  EXPECT_EQ(ring.dequeue()->seq, 7u);
}

TEST(CoreFifo, GrowsOnlyAtANewHighWaterMark) {
  core::Fifo<int> q;
  EXPECT_EQ(q.capacity(), 0u);  // nothing allocated until first use
  for (int i = 0; i < 10'000; ++i) {
    q.push_back(i);
    q.push_back(i);
    EXPECT_EQ(q.pop_front(), i);
    EXPECT_EQ(q.pop_front(), i);
  }
  EXPECT_EQ(q.capacity(), core::Fifo<int>::kMinCapacity);
  for (std::size_t i = 0; i <= core::Fifo<int>::kMinCapacity; ++i) {
    q.push_back(static_cast<int>(i));
  }
  EXPECT_EQ(q.capacity(), 2 * core::Fifo<int>::kMinCapacity);
}

TEST_F(RingTest, CountersTrack) {
  SpscRing ring("r", 8);
  ring.enqueue(make());
  ring.enqueue(make());
  ring.dequeue();
  EXPECT_EQ(ring.enqueued(), 2u);
  EXPECT_EQ(ring.dequeued(), 1u);
}

TEST_F(RingTest, WatcherSignalsEveryEnqueueAndEmptyTransition) {
  SpscRing ring("r", 8);
  int calls = 0;
  int became = 0;
  ring.set_watcher([&](bool b) {
    ++calls;
    became += b;
  });
  ring.enqueue(make());  // empty -> nonempty
  ring.enqueue(make());
  ring.dequeue();
  ring.dequeue();
  ring.enqueue(make());  // empty -> nonempty again
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(became, 2);
}

TEST_F(RingTest, SinkConsumesImmediately) {
  SpscRing ring("r", 2);
  std::uint64_t seen = 0;
  ring.set_sink([&](pkt::PacketHandle p) { seen = p->seq; });
  for (std::uint64_t i = 1; i <= 10; ++i) ring.enqueue(make(i));
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.drops(), 0u);  // sinks never overflow
}

TEST_F(RingTest, OwnedPortRoundTrip) {
  Port port("p", PortKind::kInternal, 8);
  port.in().enqueue(make(5));
  auto p = port.in().dequeue();
  ASSERT_TRUE(p);
  EXPECT_EQ(p->seq, 5u);
  EXPECT_TRUE(port.tx(std::move(p)));
  EXPECT_EQ(port.out().size(), 1u);
}

TEST_F(RingTest, BoundPortSharesRings) {
  SpscRing a("a", 8), b("b", 8);
  Port port("p", PortKind::kPhysical, a, b);
  a.enqueue(make(1));
  EXPECT_TRUE(port.in().dequeue());
  port.tx(make(2));
  EXPECT_EQ(b.size(), 1u);
}

TEST_F(RingTest, GuestViewOfVhostPortMirrorsBackend) {
  VhostUserPort backend("vh");
  Port guest("vh.guest", backend);
  EXPECT_EQ(guest.kind(), PortKind::kVhostUser);
  // Guest TX lands where the switch rx-polls.
  EXPECT_TRUE(guest.tx(make(9)));
  auto at_switch = backend.in().dequeue();
  ASSERT_TRUE(at_switch);
  EXPECT_EQ(at_switch->seq, 9u);
  // Switch TX lands where the guest rx-polls.
  backend.tx(make(10));
  auto at_guest = guest.in().dequeue();
  ASSERT_TRUE(at_guest);
  EXPECT_EQ(at_guest->seq, 10u);
}

TEST_F(RingTest, GuestKicksCountedOnEmptyTransition) {
  VhostUserPort backend("vh");
  Port guest("vh.guest", backend);
  guest.tx(make());
  guest.tx(make());  // no kick: ring already non-empty
  EXPECT_EQ(backend.in().kicks(), 1u);
  backend.in().dequeue();
  backend.in().dequeue();
  guest.tx(make());
  EXPECT_EQ(backend.in().kicks(), 2u);
}

TEST_F(RingTest, GuestViewOfPtnetPortMirrorsHost) {
  PtnetPort host("pt");
  Port guest("pt.guest", host);
  EXPECT_EQ(guest.kind(), PortKind::kPtnet);
  guest.tx(make(3));
  EXPECT_EQ(host.in().dequeue()->seq, 3u);
  host.tx(make(4));
  EXPECT_EQ(guest.in().dequeue()->seq, 4u);
}

TEST_F(RingTest, GuestViewSharesTheHostRings) {
  PtnetPort host("pt", 2);
  Port guest("pt.guest", host);
  EXPECT_EQ(&guest.in(), &host.out());
  EXPECT_EQ(&guest.out(), &host.in());
  // A guest TX that overflows is the host's in() drop.
  for (std::uint64_t i = 1; i <= 3; ++i) guest.tx(make(i));
  EXPECT_EQ(guest.tx_drops(), 1u);
  EXPECT_EQ(host.in().drops(), 1u);
  drain(host.in());
}

TEST_F(RingTest, KicksCountEnqueuesIntoAnEmptyRingOnly) {
  SpscRing ring("r", 2);
  EXPECT_TRUE(ring.enqueue(make()));   // empty -> 1: a kick
  EXPECT_TRUE(ring.enqueue(make()));   // 1 -> 2: none
  EXPECT_FALSE(ring.enqueue(make()));  // full: a drop, no kick
  EXPECT_EQ(ring.kicks(), 1u);
  ring.dequeue();
  EXPECT_TRUE(ring.enqueue(make()));  // not empty yet: none
  EXPECT_EQ(ring.kicks(), 1u);
  ring.dequeue();
  ring.dequeue();
  EXPECT_TRUE(ring.enqueue(make()));  // drained: a kick again
  EXPECT_EQ(ring.kicks(), 2u);
  drain(ring);
}

// ---- bursts ----------------------------------------------------------------

pkt::PacketHandle take(pkt::PacketHandle& p) { return std::move(p); }

// A burst put of n frames into a ring with room for k enqueues the first k
// and drops the rest one by one, as n enqueue() calls would: each drop
// counted and traced on its own, ring_ops up by k, and one ring call. A
// burst take stops at n packets or at the empty ring.
TEST_F(RingTest, BurstPutDropsWhatDoesNotFitFrameByFrame) {
  core::Simulator sim;
  obs::TraceRecorder tr(sim, obs::TraceRecorder::Config{});
  core::TraceInstall install(&tr);
  SpscRing ring("r", 8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.enqueue(make(i));
  std::vector<pkt::PacketHandle> pkts;
  for (std::uint64_t i = 5; i < 12; ++i) pkts.push_back(make(i));
  const std::uint64_t ops0 = ops_on_this_thread();
  const std::uint64_t calls0 = calls_on_this_thread();
  EXPECT_EQ(ring.enqueue_run(pkts.begin(), pkts.end(), take), 3u);
  EXPECT_EQ(ops_on_this_thread() - ops0, 3u);
  EXPECT_EQ(calls_on_this_thread() - calls0, 1u);
  EXPECT_EQ(ring.enqueued(), 8u);
  EXPECT_EQ(ring.drops(), 4u);
  EXPECT_EQ(pool_.outstanding(), 8u);  // the dropped four went home
  EXPECT_EQ(std::count_if(tr.events().begin(), tr.events().end(),
                          [](const obs::TraceRecorder::Event& e) {
                            return e.ph == 'i' && e.name == "drop";
                          }),
            4);

  std::vector<pkt::PacketHandle> out;
  const std::uint64_t calls1 = calls_on_this_thread();
  EXPECT_EQ(ring.dequeue_burst(out, 6), 6u);
  EXPECT_EQ(ring.dequeue_burst(out, 32), 2u);
  EXPECT_EQ(ring.dequeue_burst(out, 32), 0u);
  EXPECT_EQ(calls_on_this_thread() - calls1, 3u);
  EXPECT_EQ(ops_on_this_thread() - ops0, 11u);
  ASSERT_EQ(out.size(), 8u);
  for (std::uint64_t k = 0; k < 8; ++k) EXPECT_EQ(out[k]->seq, k);
  EXPECT_EQ(ring.dequeued(), 8u);
}

// An idle consumer's watcher runs for every frame of a burst, each one
// arriving now; a busy consumer's runs only for the frame that makes the
// ring non-empty, as with one enqueue() per frame.
TEST_F(RingTest, BurstPutCallsTheWatcherAsTheConsumerNeeds) {
  SpscRing ring("r", 16);
  std::vector<bool> calls;
  bool arrival_is_now = true;
  ring.set_watcher([&](bool became_nonempty) {
    calls.push_back(became_nonempty);
    arrival_is_now = arrival_is_now && ring.arrival_time(123) == 123;
  });
  auto put4 = [&] {
    std::vector<pkt::PacketHandle> pkts;
    for (int i = 0; i < 4; ++i) pkts.push_back(make());
    EXPECT_EQ(ring.enqueue_run(pkts.begin(), pkts.end(), take), 4u);
  };
  put4();
  EXPECT_EQ(calls, (std::vector<bool>{true, false, false, false}));
  EXPECT_TRUE(arrival_is_now);
  put4();  // into a non-empty ring: idle still hears each one
  EXPECT_EQ(calls.size(), 8u);

  drain(ring);
  calls.clear();
  ring.set_consumer_busy(true);
  put4();
  EXPECT_EQ(calls, std::vector<bool>{true});
  put4();
  ring.enqueue(make());
  EXPECT_EQ(calls, std::vector<bool>{true});
  EXPECT_TRUE(arrival_is_now);
  drain(ring);
}

// Traced frames get the same residency slices, with the same ids, and
// dropped ones the same instants, from bursts as from one call per frame.
TEST_F(RingTest, BurstsTraceAsOneCallPerFrameDoes) {
  using Traced = std::tuple<char, std::string, core::SimTime, std::uint64_t>;
  auto trace = [&](bool bursts) {
    core::Simulator sim;
    obs::TraceRecorder tr(sim, obs::TraceRecorder::Config{});
    core::TraceInstall install(&tr);
    SpscRing ring("r", 4);
    std::vector<pkt::PacketHandle> pkts;
    for (std::uint32_t i = 1; i <= 6; ++i) {
      pkts.push_back(make(i));
      pkts.back()->trace_id = i == 2 ? 0 : 100 + i;
    }
    std::vector<pkt::PacketHandle> out;
    if (bursts) {
      ring.enqueue_run(pkts.begin(), pkts.end(), take);
      ring.dequeue_burst(out, 32);
    } else {
      for (auto& p : pkts) ring.enqueue(std::move(p));
      while (auto p = ring.dequeue()) out.push_back(std::move(p));
    }
    EXPECT_EQ(out.size(), 4u);
    std::vector<Traced> events;
    for (const auto& e : tr.events()) {
      events.emplace_back(e.ph, e.name, e.ts, e.id);
    }
    return events;
  };
  const std::vector<Traced> per_frame = trace(false);
  // Frames 1, 3 and 4 are traced and fit, 5 and 6 are dropped.
  const std::vector<Traced> expected = {
      {'b', "r", 0, 101}, {'b', "r", 0, 103}, {'b', "r", 0, 104},
      {'i', "drop", 0, 0}, {'i', "drop", 0, 0}, {'e', "r", 0, 101},
      {'e', "r", 0, 103}, {'e', "r", 0, 104}};
  EXPECT_EQ(per_frame, expected);
  EXPECT_EQ(trace(true), per_frame);
}

// ---- pulled TX: a guest ring fed by a source ------------------------------

/// A source for the pulled-ring tests: one frame at each of `emits`
/// (ascending), enqueued straight into the ring it feeds.
class RingSource final : public TxSource {
 public:
  RingSource(core::Simulator& sim, SpscRing& ring, pkt::PacketPool& pool,
             std::vector<core::SimTime> emits)
      : ring_(ring), pool_(pool), emits_(std::move(emits)) {
    ring_.feed_from_source(sim, *this);
  }
  ~RingSource() { ring_.detach_source(); }
  RingSource(const RingSource&) = delete;
  RingSource& operator=(const RingSource&) = delete;

  [[nodiscard]] core::SimTime next_emit() const override {
    return next_ < emits_.size() ? emits_[next_] : kNever;
  }
  [[nodiscard]] core::SimDuration max_gap() const override {
    core::SimDuration gap = 0;
    for (std::size_t i = 1; i < emits_.size(); ++i) {
      gap = std::max(gap, emits_[i] - emits_[i - 1]);
    }
    return gap;
  }
  void emit_next() override {
    auto p = pool_.allocate();
    p->resize(64);
    p->seq = next_++;
    ring_.enqueue(std::move(p));
  }
  [[nodiscard]] const pkt::FrameRecipe* recipe() const override {
    return &recipe_;
  }
  [[nodiscard]] pkt::PacketPool* pool() const override { return &pool_; }

 private:
  SpscRing& ring_;
  pkt::PacketPool& pool_;
  pkt::FrameRecipe recipe_{pkt::FrameSpec{}, 1, 1};
  std::vector<core::SimTime> emits_;
  std::size_t next_{0};
};

// An idle consumer is woken once per pulled frame, at its emit time, and
// the watcher sees that time as the frame's arrival.
TEST_F(RingTest, IdleConsumerIsWokenAtEachEmit) {
  core::Simulator sim;
  SpscRing ring("guest.tx", 8);
  std::vector<core::SimTime> wakes;
  std::vector<core::SimTime> arrivals;
  ring.set_watcher([&](bool) {
    wakes.push_back(sim.now());
    arrivals.push_back(ring.arrival_time(sim.now()));
  });
  const std::vector<core::SimTime> emits = {
      core::from_ns(100), core::from_ns(200), core::from_ns(300)};
  RingSource src(sim, ring, pool_, emits);
  ring.wake_source();
  sim.run();
  EXPECT_EQ(wakes, emits);
  EXPECT_EQ(arrivals, emits);
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(ring.size(), 3u);
}

// A busy consumer costs no event per frame: its read puts in, in order,
// every frame the source owes by then. Only the frame that makes the ring
// non-empty runs the watcher, stamped with its emit time.
TEST_F(RingTest, BusyConsumerReadPutsInEveryFrameDueByThen) {
  core::Simulator sim;
  SpscRing ring("guest.tx", 16);
  std::vector<core::SimTime> arrivals;
  ring.set_watcher(
      [&](bool) { arrivals.push_back(ring.arrival_time(sim.now())); });
  std::vector<core::SimTime> emits;
  for (int k = 0; k < 10; ++k) emits.push_back(core::from_ns(100 * k));
  RingSource src(sim, ring, pool_, emits);
  ring.set_consumer_busy(true);
  ring.wake_source();
  std::size_t seen = 0;
  sim.post_at(core::from_ns(450), [&] { seen = ring.size(); });
  sim.run();
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(ring.size(), 5u);  // nothing has read the ring since
  sim.run_until(core::from_us(1));
  ASSERT_EQ(ring.size(), 10u);
  EXPECT_EQ(arrivals, std::vector<core::SimTime>{emits[0]});
  for (std::uint64_t k = 0; k < 10; ++k) EXPECT_EQ(ring.dequeue()->seq, k);
}

// Frames a read puts in all at once overflow exactly as frames enqueued one
// by one at their emit times would: nothing dequeued in between.
TEST_F(RingTest, PulledFramesOverflowAsPushedOnesWould) {
  core::Simulator sim;
  SpscRing ring("guest.tx", 4);
  std::vector<core::SimTime> emits;
  for (int k = 0; k < 6; ++k) emits.push_back(core::from_ns(100 * k));
  RingSource src(sim, ring, pool_, emits);
  ring.set_consumer_busy(true);
  ring.wake_source();
  sim.run_until(core::from_us(1));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.drops(), 2u);
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_EQ(ring.dequeue()->seq, k);
}

// A read at a frame's very emit instant sees it by the order-key rule: a
// read scheduled before the source started (so before the frame's key was
// reserved) comes first and misses it, one scheduled after sees it.
TEST_F(RingTest, ReadAtTheEmitInstantFollowsOrderKeys) {
  core::Simulator sim;
  SpscRing ring("guest.tx", 8);
  const core::SimTime emit = core::from_ns(500);
  std::size_t before = 99;
  std::size_t after = 99;
  sim.post_at(emit, [&] { before = ring.size(); });
  RingSource src(sim, ring, pool_, {emit});
  ring.set_consumer_busy(true);
  ring.wake_source();
  sim.post_at(emit, [&] { after = ring.size(); });
  sim.run();
  EXPECT_EQ(before, 0u);
  EXPECT_EQ(after, 1u);
}

TEST(PortKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(PortKind::kPhysical), "physical");
  EXPECT_STREQ(to_string(PortKind::kVhostUser), "vhost-user");
  EXPECT_STREQ(to_string(PortKind::kPtnet), "ptnet");
  EXPECT_STREQ(to_string(PortKind::kInternal), "internal");
}

}  // namespace
}  // namespace nfvsb::ring

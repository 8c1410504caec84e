// SpscRing and Port semantics (buffering, drops, watchers, sinks, pulled
// TX sources, copy accounting for vhost vs ptnet).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/fifo.h"
#include "core/simulator.h"
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
  ring.clear();
}

TEST_F(RingTest, ClearCountsResidentsAfterWrapAround) {
  SpscRing ring("r", 32);
  for (int i = 0; i < 12; ++i) ring.enqueue(make());
  for (int i = 0; i < 10; ++i) (void)ring.dequeue();
  for (int i = 0; i < 14; ++i) ring.enqueue(make());  // wraps the storage
  ASSERT_EQ(ring.size(), 16u);
  ring.clear();
  EXPECT_EQ(ring.cleared(), 16u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(pool_.outstanding(), 0u);
  EXPECT_EQ(ring.enqueued(), ring.dequeued() + ring.cleared() + ring.size());
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
  RingPort port("p", PortKind::kInternal, 8);
  port.in().enqueue(make(5));
  auto p = port.rx();
  ASSERT_TRUE(p);
  EXPECT_EQ(p->seq, 5u);
  EXPECT_TRUE(port.tx(std::move(p)));
  EXPECT_EQ(port.out().size(), 1u);
}

TEST_F(RingTest, BoundPortSharesRings) {
  SpscRing a("a", 8), b("b", 8);
  RingPort port("p", PortKind::kPhysical, a, b);
  a.enqueue(make(1));
  EXPECT_TRUE(port.rx());
  port.tx(make(2));
  EXPECT_EQ(b.size(), 1u);
}

TEST_F(RingTest, VhostPortCopiesBothDirections) {
  VhostUserPort port("vh");
  port.in().enqueue(make());
  auto p = port.rx();
  ASSERT_TRUE(p);
  EXPECT_EQ(p->copy_count, 1u);  // dequeue copy
  port.tx(std::move(p));
  auto q = port.out().dequeue();
  EXPECT_EQ(q->copy_count, 2u);  // enqueue copy
}

TEST_F(RingTest, PtnetPortIsZeroCopy) {
  PtnetPort port("pt");
  port.in().enqueue(make());
  auto p = port.rx();
  ASSERT_TRUE(p);
  EXPECT_EQ(p->copy_count, 0u);
  port.tx(std::move(p));
  EXPECT_EQ(port.out().dequeue()->copy_count, 0u);
}

TEST_F(RingTest, GuestVirtioPortMirrorsBackend) {
  VhostUserPort backend("vh");
  GuestVirtioPort guest(backend);
  // Guest TX lands where the switch rx-polls.
  EXPECT_TRUE(guest.tx(make(9)));
  auto at_switch = backend.rx();
  ASSERT_TRUE(at_switch);
  EXPECT_EQ(at_switch->seq, 9u);
  // Switch TX lands where the guest rx-polls.
  backend.tx(make(10));
  auto at_guest = guest.rx();
  ASSERT_TRUE(at_guest);
  EXPECT_EQ(at_guest->seq, 10u);
}

TEST_F(RingTest, GuestKicksCountedOnEmptyTransition) {
  VhostUserPort backend("vh");
  GuestVirtioPort guest(backend);
  guest.tx(make());
  guest.tx(make());  // no kick: ring already non-empty
  EXPECT_EQ(backend.kicks(), 1u);
  backend.rx();
  backend.rx();
  guest.tx(make());
  EXPECT_EQ(backend.kicks(), 2u);
}

TEST_F(RingTest, GuestPtnetPortMirrorsHost) {
  PtnetPort host("pt");
  GuestPtnetPort guest(host);
  guest.tx(make(3));
  EXPECT_EQ(host.rx()->seq, 3u);
  host.tx(make(4));
  EXPECT_EQ(guest.rx()->seq, 4u);
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
  void emit_next() override {
    auto p = pool_.allocate();
    p->resize(64);
    p->seq = next_++;
    ring_.enqueue(std::move(p));
  }

 private:
  SpscRing& ring_;
  pkt::PacketPool& pool_;
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

// A busy consumer costs no event per frame: its read puts in, in order and
// each stamped with its emit time, every frame the source owes by then.
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
  EXPECT_EQ(arrivals, emits);
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
  EXPECT_STREQ(to_string(PortKind::kNetmapHost), "netmap-host");
  EXPECT_STREQ(to_string(PortKind::kInternal), "internal");
}

}  // namespace
}  // namespace nfvsb::ring

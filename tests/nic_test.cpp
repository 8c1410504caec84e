// NIC model: serialization timing, line-rate ceiling, RX overflow
// (imissed), DMA latency, HW timestamping, cable delivery, events per frame,
// timed monitor sinks, pulled TX sources (and the queue sampler's reads of
// their ring) and per-frame arrivals at a polled ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/simulator.h"
#include "drain.h"
#include "hw/cable.h"
#include "hw/nic.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "ring/tx_source.h"
#include "stats/histogram.h"
#include "traffic/moongen.h"

namespace nfvsb::hw {
namespace {

class NicTest : public ::testing::Test {
 protected:
  NicTest() : a_(sim_, "a", cfg()), b_(sim_, "b", cfg()), cable_(sim_, a_, b_) {}

  static NicPort::Config cfg() {
    NicPort::Config c;
    c.rx_ring_depth = 16;
    c.tx_ring_depth = 16;
    c.dma_rx_latency = core::from_ns(100);
    c.dma_tx_latency = core::from_ns(50);
    return c;
  }

  pkt::PacketHandle frame(std::uint32_t size = 64, std::uint64_t probe = 0) {
    auto p = pool_.allocate();
    pkt::FrameSpec spec;
    spec.frame_bytes = size;
    pkt::craft_udp_frame(*p, spec);
    p->probe_id = probe;
    return p;
  }

  core::Simulator sim_;
  pkt::PacketPool pool_{128};
  NicPort a_;
  NicPort b_;
  Cable cable_;
};

TEST_F(NicTest, DeliversAcrossCable) {
  a_.tx_ring().enqueue(frame());
  sim_.run();
  EXPECT_EQ(b_.rx_ring().size(), 1u);
  EXPECT_EQ(a_.tx_frames(), 1u);
  EXPECT_EQ(b_.rx_frames(), 1u);
}

TEST_F(NicTest, SerializationPlusDmaLatency) {
  a_.tx_ring().enqueue(frame(64));
  core::SimTime arrival = -1;
  b_.rx_ring().set_sink([&](pkt::PacketHandle) { arrival = sim_.now(); });
  sim_.run();
  // dma_tx 50 + serialization 67.2 + propagation 5 + dma_rx 100.
  EXPECT_EQ(arrival, core::from_ns(50 + 67.2 + 5 + 100));
}

TEST_F(NicTest, BackToBackFramesAreLineRateSpaced) {
  std::vector<core::SimTime> arrivals;
  b_.rx_ring().set_sink(
      [&](pkt::PacketHandle) { arrivals.push_back(sim_.now()); });
  for (int i = 0; i < 10; ++i) a_.tx_ring().enqueue(frame(64));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 10u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], core::from_ns(67.2));
  }
}

TEST_F(NicTest, LargerFramesSerializeProportionally) {
  std::vector<core::SimTime> arrivals;
  b_.rx_ring().set_sink(
      [&](pkt::PacketHandle) { arrivals.push_back(sim_.now()); });
  a_.tx_ring().enqueue(frame(1024));
  a_.tx_ring().enqueue(frame(1024));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0],
            core::kTenGigE.serialization_time(1024));
}

// A frame on the wire costs two firings: the TX fetch, on the NIC's lane,
// and its arrival event (propagation and RX DMA in one). The lane stops in
// the firing that drains the rings.
TEST_F(NicTest, LoneFrameCostsTwoEvents) {
  // "Event" in this test's name counts lane firings plus wheel events.
  a_.tx_ring().enqueue(frame());
  sim_.run();
  EXPECT_EQ(b_.rx_ring().size(), 1u);
  EXPECT_EQ(sim_.lanes_fired(), 1u);
  EXPECT_EQ(sim_.events_processed(), 1u);
}

TEST_F(NicTest, BurstCostsTwoEventsPerFrame) {
  // "Event" in this test's name counts lane firings plus wheel events.
  constexpr std::uint64_t kFrames = 10;
  b_.rx_ring().set_sink([](pkt::PacketHandle) {});
  for (std::uint64_t i = 0; i < kFrames; ++i) a_.tx_ring().enqueue(frame());
  sim_.run();
  EXPECT_EQ(b_.rx_frames(), kFrames);
  EXPECT_EQ(sim_.lanes_fired(), kFrames);
  EXPECT_EQ(sim_.events_processed(), kFrames);
}

// The TX lane stops when the rings drain, but the busy period lasts as
// long as the wire is occupied: a frame enqueued while the previous one is
// still serializing leaves right behind it, without a new DMA fetch.
TEST_F(NicTest, FrameEnqueuedWhileSerializingLeavesRightBehind) {
  std::vector<core::SimTime> arrivals;
  b_.rx_ring().set_sink(
      [&](pkt::PacketHandle) { arrivals.push_back(sim_.now()); });
  a_.tx_ring().enqueue(frame(64));
  // The first frame serializes over [50, 117.2) ns.
  sim_.post_in(core::from_ns(80), [this] { a_.tx_ring().enqueue(frame(64)); });
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], core::from_ns(50 + 67.2 + 5 + 100));
  EXPECT_EQ(arrivals[1] - arrivals[0], core::kTenGigE.serialization_time(64));
}

TEST_F(NicTest, FrameEnqueuedOnIdleWirePaysDmaFetchAgain) {
  std::vector<core::SimTime> arrivals;
  b_.rx_ring().set_sink(
      [&](pkt::PacketHandle) { arrivals.push_back(sim_.now()); });
  a_.tx_ring().enqueue(frame(64));
  // The wire frees at 117.2 ns.
  sim_.post_in(core::from_ns(500), [this] { a_.tx_ring().enqueue(frame(64)); });
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], core::from_ns(500 + 50 + 67.2 + 5 + 100));
}

// A monitor's RX ring (a timed sink) gets the frame in the sender's fetch
// firing, passed the time its DMA completes: no arrival event.
TEST_F(NicTest, TimedSinkGetsFrameAtFetchWithArrivalTime) {
  core::SimTime arrival = -1;
  core::SimTime handed_over = -1;
  b_.rx_ring().set_sink([&](pkt::PacketHandle, core::SimTime at) {
    arrival = at;
    handed_over = sim_.now();
  });
  a_.tx_ring().enqueue(frame(64));
  sim_.run();
  EXPECT_EQ(sim_.lanes_fired(), 1u);
  EXPECT_EQ(sim_.events_processed(), 0u);
  EXPECT_EQ(handed_over, core::from_ns(50));
  EXPECT_EQ(arrival, core::from_ns(50 + 67.2 + 5 + 100));
  EXPECT_EQ(b_.rx_frames(), 1u);
  EXPECT_EQ(b_.rx_ring().enqueued(), 1u);
  EXPECT_EQ(b_.rx_ring().dequeued(), 1u);
}

TEST_F(NicTest, TimedSinkHookStillSeesMacTime) {
  core::SimTime hook_time = -1;
  b_.set_rx_timestamp_hook(
      [&](const pkt::Packet&, core::SimTime t) { hook_time = t; });
  b_.rx_ring().set_sink([](pkt::PacketHandle, core::SimTime) {});
  a_.tx_ring().enqueue(frame(64, /*probe=*/1));
  sim_.run();
  EXPECT_EQ(hook_time, core::from_ns(50 + 67.2 + 5));
}

/// A pull source for the NIC tests: one frame at each of `emits`
/// (ascending).
class FixedSource final : public ring::TxSource {
 public:
  FixedSource(NicPort& nic, pkt::PacketPool& pool,
              std::vector<core::SimTime> emits)
      : nic_(nic), pool_(pool), emits_(std::move(emits)) {
    nic_.attach_tx_source(*this);
  }
  ~FixedSource() { nic_.detach_tx_source(); }
  FixedSource(const FixedSource&) = delete;
  FixedSource& operator=(const FixedSource&) = delete;

  [[nodiscard]] core::SimTime next_emit() const override {
    return next_ < emits_.size() ? emits_[next_] : kNever;
  }
  void emit_next() override {
    auto p = pool_.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    p->sw_timestamp = emits_[next_++];
    nic_.tx_ring().enqueue(std::move(p));
  }

 private:
  NicPort& nic_;
  pkt::PacketPool& pool_;
  std::vector<core::SimTime> emits_;
  std::size_t next_{0};
};

// A pulled frame leaves exactly when a pushed one would: emit time plus the
// DMA fetch on an idle wire, right behind the previous frame on a busy one.
TEST_F(NicTest, PulledFramesLeaveWhenPushedOnesWould) {
  std::vector<core::SimTime> arrivals;
  b_.rx_ring().set_sink(
      [&](pkt::PacketHandle) { arrivals.push_back(sim_.now()); });
  // Emits at 0, 30 ns (wire busy until 117.2 ns) and 500 ns (idle again).
  FixedSource src(a_, pool_, {0, core::from_ns(30), core::from_ns(500)});
  a_.wake_tx();
  sim_.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const core::SimDuration hop = core::from_ns(67.2 + 5 + 100);
  EXPECT_EQ(arrivals[0], core::from_ns(50) + hop);
  EXPECT_EQ(arrivals[1], core::from_ns(50 + 67.2) + hop);
  EXPECT_EQ(arrivals[2], core::from_ns(500 + 50) + hop);
}

// A frame pushed into the TX ring while the armed fetch waits for a later
// source emit leaves on its own schedule, not with that fetch.
TEST_F(NicTest, PushedFrameDoesNotWaitForAPulledOne) {
  std::vector<core::SimTime> arrivals;
  b_.rx_ring().set_sink(
      [&](pkt::PacketHandle) { arrivals.push_back(sim_.now()); });
  FixedSource src(a_, pool_, {core::from_ns(500)});
  a_.wake_tx();  // fetch armed for 550 ns
  a_.tx_ring().enqueue(frame(64));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const core::SimDuration hop = core::from_ns(67.2 + 5 + 100);
  EXPECT_EQ(arrivals[0], core::from_ns(50) + hop);
  EXPECT_EQ(arrivals[1], core::from_ns(550) + hop);
}

// A port takes one source; a second is refused, not merged.
TEST_F(NicTest, SecondTxSourceIsRejected) {
  FixedSource src(a_, pool_, {0});
  EXPECT_THROW({ FixedSource second(a_, pool_, {0}); }, std::logic_error);
  a_.wake_tx();
  sim_.run();
  EXPECT_EQ(a_.tx_frames(), 1u);
}

// Frames emitted at one instant leave back to back, line-rate spaced,
// like a burst pushed at that instant.
TEST_F(NicTest, SameInstantEmitsLeaveBackToBack) {
  std::vector<core::SimTime> arrivals;
  b_.rx_ring().set_sink(
      [&](pkt::PacketHandle) { arrivals.push_back(sim_.now()); });
  FixedSource src(a_, pool_, {0, 0, 0});
  a_.wake_tx();
  sim_.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], core::from_ns(50 + 67.2 + 5 + 100));
  EXPECT_EQ(arrivals[1] - arrivals[0], core::from_ns(67.2));
  EXPECT_EQ(arrivals[2] - arrivals[1], core::from_ns(67.2));
}

// The fetch puts in every frame due by then before it takes the head, so
// the 16-deep TX ring overflows exactly as it would with the frames pushed
// at their emit time: 20 emitted at 0 lose 4.
TEST_F(NicTest, PulledFramesOverflowTheTxRingAsPushedOnesWould) {
  b_.rx_ring().set_sink([](pkt::PacketHandle) {});
  FixedSource src(a_, pool_, std::vector<core::SimTime>(20, 0));
  a_.wake_tx();
  sim_.run();
  EXPECT_EQ(a_.tx_ring().drops(), 4u);
  EXPECT_EQ(a_.tx_frames(), 16u);
  EXPECT_EQ(b_.rx_frames(), 16u);
}

// A source detached while a fetch waits for its next frame is never pulled
// again: that fetch finds the rings empty and the lane stops.
TEST_F(NicTest, DetachedSourceIsNotPulledAgain) {
  auto src = std::make_unique<FixedSource>(
      a_, pool_, std::vector<core::SimTime>{0, core::from_us(1)});
  a_.wake_tx();
  sim_.run_until(core::from_ns(500));
  EXPECT_EQ(a_.tx_frames(), 1u);
  src.reset();
  sim_.run();
  EXPECT_EQ(a_.tx_frames(), 1u);
  EXPECT_EQ(a_.tx_ring().size(), 0u);
}

// ---- queue sampler at a pulled TX ring ----------------------------------
// The sampler reads a pulled TX ring by the order-key rule a guest TX ring
// follows. One frame is emitted at 2 us on a port with the default 1 us DMA
// fetch; the rings drained before it (they never held a frame), so the
// fetch that takes it was armed at wake_tx() for 3 us, before the sampler's
// first event. A read at 3 us comes after that fetch and sees the frame
// gone, even one armed before the frame was emitted.

/// The depth histogram of a fresh port's TX ring, pulling one frame
/// emitted at 2 us, from a queue sampler reading every `period` until 3 us.
stats::Histogram sampled_tx_depths(pkt::PacketPool& pool,
                                   core::SimDuration period) {
  obs::Registry reg;
  core::MetricsScope scope(&reg);
  core::Simulator sim;
  NicPort nic(sim, "n");
  FixedSource src(nic, pool, {core::from_us(2)});
  nic.wake_tx();
  obs::QueueSampler sampler(sim, reg, period, core::from_us(3));
  sim.run();
  EXPECT_EQ(nic.tx_frames(), 1u);
  return sampler.histograms().at("ring/n.tx0");
}

// Reads armed before the emit, at 1.5 and 3 us or at 3 us alone (armed
// at 0, after the fetch): at 3 us the fetch has taken the frame, so every
// read sees depth 0.
TEST_F(NicTest, SampleArmedBeforeTheEmitSeesTheFetchedFrameGone) {
  for (const core::SimDuration period : {core::from_ns(1500),
                                         core::from_us(3)}) {
    const stats::Histogram h = sampled_tx_depths(pool_, period);
    EXPECT_EQ(h.count(), core::from_us(3) / period) << period;
    EXPECT_EQ(h.max_value(), 0) << period;
  }
}

// Reads at 1, 2 and 3 us: the one at the emit instant comes after the
// frame, whose key was reserved at wake_tx(), and sees it in (depth 1);
// the one at 3 us sees it gone (the median is 0).
TEST_F(NicTest, SampleAtTheEmitSeesTheFrameIn) {
  const stats::Histogram h = sampled_tx_depths(pool_, core::from_us(1));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max_value(), 1);
  EXPECT_EQ(h.median(), 0);
}

// ---- arrivals at a polled ring ------------------------------------------
// Frame k of a burst enqueued at 0 arrives at 222.2 + 67.2 k ns: 50 ns DMA
// fetch, 67.2 ns on the wire per frame, 5 ns of cable, 100 ns RX DMA.

core::SimTime burst_arrival(int k) { return core::from_ns(222.2 + 67.2 * k); }

// Each frame lands by its own arrival event, busy consumer or not: ten TX
// fetches on the lane, ten arrivals on the wheel, and a read after the
// last fetch finds exactly the frames that have arrived by then.
TEST_F(NicTest, BurstCostsOneArrivalEventPerFrame) {
  constexpr std::uint64_t kFrames = 10;
  b_.rx_ring().set_consumer_busy(true);
  for (std::uint64_t i = 0; i < kFrames; ++i) a_.tx_ring().enqueue(frame());
  // The last fetch fires at 50 + 9 * 67.2 ns; frames 0..6 have arrived.
  sim_.run_until(core::from_ns(50 + 9 * 67.2));
  EXPECT_EQ(sim_.lanes_fired(), kFrames);
  EXPECT_EQ(sim_.events_processed(), 7u);
  EXPECT_EQ(b_.rx_ring().size(), 7u);
  EXPECT_EQ(b_.rx_frames(), 7u);
  sim_.run();
  EXPECT_EQ(sim_.now(), burst_arrival(9));
  EXPECT_EQ(b_.rx_ring().size(), kFrames);
  EXPECT_EQ(b_.rx_frames(), kFrames);
  EXPECT_EQ(sim_.lanes_fired(), kFrames);
  EXPECT_EQ(sim_.events_processed(), kFrames);
  drain(b_.rx_ring());
}

// The watcher runs at exactly each frame's arrival picosecond, with the
// frame's arrival time as now, whether the consumer is idle or mid-round.
TEST_F(NicTest, WatcherRunsAtEachArrival) {
  struct Wake {
    core::SimTime now;
    core::SimTime arrival;
    bool operator==(const Wake&) const = default;
  };
  std::vector<Wake> wakes;
  ring::SpscRing& rx = b_.rx_ring();
  rx.set_watcher([&](bool) {
    wakes.push_back({sim_.now(), rx.arrival_time(sim_.now())});
    rx.set_consumer_busy(true);  // a woken poller runs a round
  });
  for (int i = 0; i < 4; ++i) a_.tx_ring().enqueue(frame());
  // The round ends at 300 ns, after frame 1 arrived at 289.4 ns: it reads
  // the ring and goes idle.
  sim_.post_at(core::from_ns(300), [&] {
    EXPECT_EQ(rx.size(), 2u);
    rx.set_consumer_busy(false);
  });
  sim_.run();
  std::vector<Wake> expected;
  for (int k = 0; k < 4; ++k) {
    expected.push_back({burst_arrival(k), burst_arrival(k)});
  }
  EXPECT_EQ(wakes, expected);
  // Four fetches on the lane; the 300 ns read and four arrivals on the
  // wheel.
  EXPECT_EQ(sim_.lanes_fired(), 4u);
  EXPECT_EQ(sim_.events_processed(), 5u);
  EXPECT_EQ(rx.size(), 4u);
  drain(rx);
}

// With the ring full, which frame overflows depends on when the consumer
// dequeued: frames are put in in arrival order, each against the ring as
// it stood at its own arrival, so a read between arrivals 16 and 17 drops
// frame 16 and leaves room for frame 17.
TEST_F(NicTest, ImissedFollowsArrivalOrderAroundADequeue) {
  constexpr int kFrames = 18;
  b_.rx_ring().set_consumer_busy(true);
  auto send = [this](int k) {
    auto f = frame();
    f->seq = static_cast<std::uint64_t>(k);
    a_.tx_ring().enqueue(std::move(f));
  };
  for (int k = 0; k < 16; ++k) send(k);
  // Still back to back: the wire is busy until 50 + 16 * 67.2 ns.
  sim_.post_at(core::from_ns(500), [&] { send(16); send(17); });
  std::uint64_t first_out = 0;
  sim_.post_at(core::from_ns(1330), [&] {
    ASSERT_GT(core::from_ns(1330), burst_arrival(16));
    ASSERT_LT(core::from_ns(1330), burst_arrival(17));
    first_out = b_.rx_ring().dequeue()->seq;
  });
  // No event is left after the read: frame 17 lands on a busy consumer.
  sim_.run_until(burst_arrival(17));
  EXPECT_EQ(first_out, 0u);
  EXPECT_EQ(b_.imissed(), 1u);
  EXPECT_EQ(b_.rx_frames(), static_cast<std::uint64_t>(kFrames));
  std::vector<std::uint64_t> left;
  while (auto p = b_.rx_ring().dequeue()) left.push_back(p->seq);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t k = 1; k < 16; ++k) expected.push_back(k);
  expected.push_back(17);  // frame 16 was the one lost
  EXPECT_EQ(left, expected);
}

// A read at the very picosecond a frame arrives sees it exactly when the
// frame's arrival event would have fired first: a poll armed before the
// frame left the sender runs first, one armed after it runs after. With
// an idle consumer the arrival event itself fires between the two.
TEST_F(NicTest, SameInstantReadIsOrderedAsTheArrivalEvent) {
  for (const bool busy : {true, false}) {
    SCOPED_TRACE(busy ? "busy consumer" : "idle consumer");
    core::Simulator sim;
    NicPort a(sim, "a", cfg());
    NicPort b(sim, "b", cfg());
    Cable cable(sim, a, b);
    std::vector<std::string> order;
    b.rx_ring().set_consumer_busy(busy);
    b.rx_ring().set_watcher([&](bool) { order.push_back("arrival"); });
    const core::SimTime at = burst_arrival(0);
    auto poll = [&](const char* name) {
      return [&, name] {
        order.push_back(std::string(name) + " sees " +
                        std::to_string(b.rx_ring().size()));
      };
    };
    sim.post_at(at, poll("early poll"));  // armed before the frame left
    a.tx_ring().enqueue(frame());
    // Armed at 100 ns, after the fetch at 50 ns sent the frame.
    sim.post_at(core::from_ns(100), [&] { sim.post_at(at, poll("late poll")); });
    sim.run();
    const std::vector<std::string> expected = {"early poll sees 0", "arrival",
                                               "late poll sees 1"};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(sim.now(), at);
    drain(b.rx_ring());
  }
}

TEST_F(NicTest, RxRingOverflowCountsImissed) {
  // 16-slot RX ring, nobody draining: the 17th+ frames are lost. Pace the
  // feed so the TX ring never overflows first.
  for (int i = 0; i < 40; ++i) {
    sim_.post_in(i * core::from_ns(100),
                     [this] { a_.tx_ring().enqueue(frame()); });
  }
  sim_.run();
  EXPECT_EQ(b_.rx_ring().size(), 16u);
  EXPECT_EQ(b_.imissed(), 24u);
  drain(b_.rx_ring());
}

TEST_F(NicTest, TxRingOverflowDropsAtEnqueue) {
  // Fill beyond the 16-slot TX ring before serialization starts draining:
  // SpscRing reports the drops.
  int accepted = 0;
  for (int i = 0; i < 20; ++i) accepted += a_.tx_ring().enqueue(frame());
  EXPECT_LE(accepted, 18);  // 16 + whatever drained immediately
  sim_.run();
  drain(b_.rx_ring());
}

TEST_F(NicTest, HwTimestampsProbeOnTx) {
  a_.tx_ring().enqueue(frame(64, /*probe=*/1));
  pkt::PacketHandle got;
  b_.rx_ring().set_sink([&](pkt::PacketHandle p) { got = std::move(p); });
  sim_.run();
  ASSERT_TRUE(got);
  // Stamped when the last bit left the MAC: dma_tx + serialization.
  EXPECT_EQ(got->tx_timestamp, core::from_ns(50 + 67.2));
}

TEST_F(NicTest, RxTimestampHookFiresAtWireTime) {
  core::SimTime hook_time = -1;
  std::uint64_t hook_probe = 0;
  b_.set_rx_timestamp_hook([&](const pkt::Packet& p, core::SimTime t) {
    hook_time = t;
    hook_probe = p.probe_id;
  });
  a_.tx_ring().enqueue(frame(64, /*probe=*/7));
  sim_.run();
  EXPECT_EQ(hook_probe, 7u);
  // Wire arrival excludes the monitor-side DMA latency.
  EXPECT_EQ(hook_time, core::from_ns(50 + 67.2 + 5));
  drain(b_.rx_ring());
}

TEST_F(NicTest, NonProbeFramesNotTimestamped) {
  pkt::PacketHandle got;
  b_.rx_ring().set_sink([&](pkt::PacketHandle p) { got = std::move(p); });
  a_.tx_ring().enqueue(frame(64, /*probe=*/0));
  sim_.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->tx_timestamp, core::kNoTimestamp);
}

// Regression: a probe already stamped at t=0 must keep that stamp. The old
// "already stamped" check was tx_timestamp != 0, so a 0 stamp was treated
// as unset and overwritten at serialization end, corrupting the latency.
TEST_F(NicTest, ProbeStampedAtTimeZeroKeepsItsStamp) {
  pkt::PacketHandle got;
  b_.rx_ring().set_sink([&](pkt::PacketHandle p) { got = std::move(p); });
  auto f = frame(64, /*probe=*/3);
  f->tx_timestamp = 0;
  a_.tx_ring().enqueue(std::move(f));
  sim_.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->tx_timestamp, 0);
}

TEST(NicUnplugged, FramesVanishWithoutCable) {
  core::Simulator sim;
  pkt::PacketPool pool(4);
  NicPort lone(sim, "lone");
  {
    auto p = pool.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    lone.tx_ring().enqueue(std::move(p));
  }
  sim.run();
  EXPECT_EQ(lone.tx_frames(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);  // freed, not leaked
}

// A NIC takes its pending TX fetch with it: the simulator runs on, and
// its later firings never reach the destroyed port (ASan checks this
// under the asan preset).
TEST(NicLifetime, DestroyedWithFetchPendingStopsItsFetch) {
  core::Simulator sim;
  pkt::PacketPool pool(4);
  {
    NicPort gone(sim, "gone");
    auto p = pool.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    gone.tx_ring().enqueue(std::move(p));
    ASSERT_TRUE(sim.has_pending());  // the fetch, 1 us out
  }
  EXPECT_FALSE(sim.has_pending());
  EXPECT_EQ(pool.outstanding(), 0u);
  // A port built afterwards reuses the lane and runs normally.
  NicPort next(sim, "next");
  auto p = pool.allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  next.tx_ring().enqueue(std::move(p));
  sim.run();
  EXPECT_EQ(sim.lanes_fired(), 1u);
  EXPECT_EQ(next.tx_frames(), 1u);
}

// ---- the one tie rule for a generator's frames on the wire ----------------
// A MoonGen frame emitted at 0 on a, 1 Mpps, is fetched at F = 50 ns (the
// idle wire's DMA fetch) and lands in b's RX ring at
// A = F + 67.2 + 5 + 100 ns. A read at exactly A sees it when the reading
// event's order key was reserved after the fetch's instant, and not when
// it was reserved before it or at it (events that ran at F before the
// fetch, as every one the figures produce does). A time-only rule
// (at <= now) lets the first two see it; the third guards the strict one
// (at < now).

constexpr core::SimTime kTieFetch = core::from_ns(50);
constexpr core::SimTime kTieArrival = core::from_ns(50 + 67.2 + 5 + 100);

traffic::MoonGen::Config paced_1mpps() {
  traffic::MoonGen::Config c;
  c.rate_pps = 1e6;
  return c;
}

/// What a read of b's busy RX ring at A sees, by an event that an event at
/// `posted_at` posts (one at 0 is posted before the generator starts).
std::size_t rx_depth_read_at_arrival(core::Simulator& sim,
                                     pkt::PacketPool& pool, NicPort& a,
                                     NicPort& b, core::SimTime posted_at) {
  b.rx_ring().set_consumer_busy(true);  // no wake at A: only the read
  std::size_t seen = 99;
  sim.post_at(posted_at, [&] {
    sim.post_at(kTieArrival, [&] { seen = b.rx_ring().size(); });
  });
  traffic::MoonGen gen(sim, pool, paced_1mpps());
  gen.attach_tx_nic(a);
  gen.start_tx(0, 1);
  sim.run();
  EXPECT_EQ(b.rx_frames(), 1u);
  EXPECT_EQ(a.tx_frames(), 1u);
  drain(b.rx_ring());
  return seen;
}

TEST_F(NicTest, ReadKeyedBeforeTheFetchInstantDoesNotSeeTheFrame) {
  EXPECT_EQ(rx_depth_read_at_arrival(sim_, pool_, a_, b_, 0), 0u);
}

TEST_F(NicTest, ReadKeyedAtTheFetchInstantDoesNotSeeTheFrame) {
  EXPECT_EQ(rx_depth_read_at_arrival(sim_, pool_, a_, b_, kTieFetch),
            0u);
}

TEST_F(NicTest, ReadKeyedAfterTheFetchInstantSeesTheFrame) {
  EXPECT_EQ(
      rx_depth_read_at_arrival(sim_, pool_, a_, b_, kTieFetch + 1), 1u);
}

// Both directions of a bidirectional pair emit in lockstep, so their frames
// land at one picosecond, each by its idle consumer's wake. The direction
// started first comes first: its wake finds the other ring still empty,
// and the second wake finds the first frame in. An event keyed before the
// fetches' instant reads at A before either wake; one keyed after it reads
// after both.
TEST_F(NicTest, BidiWakesAtOneArrivalInstantKeepTheirOrder) {
  NicPort g0(sim_, "g0", cfg());
  NicPort s0(sim_, "s0", cfg());
  Cable c0(sim_, g0, s0);
  NicPort g1(sim_, "g1", cfg());
  NicPort s1(sim_, "s1", cfg());
  Cable c1(sim_, g1, s1);
  std::vector<std::string> log;
  auto note = [&](const std::string& who) {
    log.push_back(who + "@" + std::to_string(sim_.now()) + " s0=" +
                  std::to_string(s0.rx_ring().size()) + " s1=" +
                  std::to_string(s1.rx_ring().size()));
  };
  s0.rx_ring().set_watcher([&](bool) { note("wake0"); });
  s1.rx_ring().set_watcher([&](bool) { note("wake1"); });
  sim_.post_at(kTieArrival, [&] { note("early"); });
  sim_.post_at(kTieFetch + 1,
               [&] { sim_.post_at(kTieArrival, [&] { note("late"); }); });
  traffic::MoonGen gen0(sim_, pool_, paced_1mpps());
  gen0.attach_tx_nic(g0);
  traffic::MoonGen gen1(sim_, pool_, paced_1mpps());
  gen1.attach_tx_nic(g1);
  gen0.start_tx(0, 1);
  gen1.start_tx(0, 1);
  sim_.run();
  const std::string at = "@" + std::to_string(kTieArrival);
  const std::vector<std::string> want = {
      "early" + at + " s0=0 s1=0", "wake0" + at + " s0=1 s1=0",
      "wake1" + at + " s0=1 s1=1", "late" + at + " s0=1 s1=1"};
  EXPECT_EQ(log, want);
  drain(s0.rx_ring());
  drain(s1.rx_ring());
}

}  // namespace
}  // namespace nfvsb::hw

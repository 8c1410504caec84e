// SwitchBase service-loop mechanics, tested through a minimal concrete
// switch that forwards port 0 <-> port 1, including a NIC port whose RX
// ring a wire source fills at the switch's reads while a round runs.
#include <gtest/gtest.h>

#include "drain.h"
#include "hw/cable.h"
#include "hw/nic.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/switch_base.h"
#include "traffic/moongen.h"

namespace nfvsb::switches {
namespace {

class PatchSwitch final : public SwitchBase {
 public:
  using SwitchBase::SwitchBase;

 protected:
  double process_batch(ring::Port& in, std::vector<pkt::PacketHandle>& batch,
                       std::vector<Tx>& out) override {
    const std::size_t other = 1 - index_of(in);
    round_at_[index_of(in)] = sim().now();
    for (auto& p : batch) {
      if (drop_all_) continue;
      out.push_back(Tx{&port(other), std::move(p)});
    }
    return extra_ns_;
  }

 public:
  bool drop_all_{false};
  double extra_ns_{0};
  /// Start of the last round that served each port.
  core::SimTime round_at_[2] = {-1, -1};
};

class SwitchBaseTest : public ::testing::Test {
 protected:
  SwitchBaseTest() : cpu_(sim_, "sut") {}

  CostModel simple_cost() {
    CostModel c;
    c.batch_fixed_ns = 100;
    c.pipeline_ns = 10;
    c.internal = PortCosts{5, 5, 0.0, 0.0};
    c.burst = 32;
    c.jitter_cv = 0;
    return c;
  }

  PatchSwitch& make(CostModel c) {
    sw_ = std::make_unique<PatchSwitch>(sim_, cpu_, "sw", c);
    sw_->add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kInternal, 64));
    sw_->add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kInternal, 64));
    return *sw_;
  }

  pkt::PacketHandle frame() {
    auto p = pool_.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    return p;
  }

  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{256};
  std::unique_ptr<PatchSwitch> sw_;
};

TEST_F(SwitchBaseTest, ForwardsBetweenPorts) {
  auto& sw = make(simple_cost());
  sw.start();
  sw.port(0).in().enqueue(frame());
  sim_.run();
  EXPECT_EQ(sw.port(1).out().size(), 1u);
  EXPECT_EQ(sw.stats().rx_packets, 1u);
  EXPECT_EQ(sw.stats().tx_packets, 1u);
}

TEST_F(SwitchBaseTest, ChargesDeterministicRoundCost) {
  auto& sw = make(simple_cost());
  sw.start();
  sw.port(0).in().enqueue(frame());
  sim_.run();
  // batch 100 + rx 5 + pipeline 10 + tx 5 = 120 ns.
  EXPECT_EQ(sim_.now(), core::from_ns(120));
}

TEST_F(SwitchBaseTest, ExtraPipelineCostAdds) {
  auto c = simple_cost();
  auto& sw = make(c);
  sw.extra_ns_ = 80;
  sw.start();
  sw.port(0).in().enqueue(frame());
  sim_.run();
  EXPECT_EQ(sim_.now(), core::from_ns(200));
}

TEST_F(SwitchBaseTest, BurstLimitsRoundSize) {
  auto c = simple_cost();
  c.burst = 4;
  auto& sw = make(c);
  sw.start();
  for (int i = 0; i < 10; ++i) sw.port(0).in().enqueue(frame());
  sim_.run();
  EXPECT_EQ(sw.stats().tx_packets, 10u);
  // The watcher fires on the FIRST enqueue, so round one takes the single
  // packet present; the rest arrive while it runs: 1 + 4 + 4 + 1.
  EXPECT_EQ(sw.stats().rounds, 4u);
}

TEST_F(SwitchBaseTest, RoundRobinAcrossPorts) {
  auto& sw = make(simple_cost());
  sw.start();
  for (int i = 0; i < 3; ++i) {
    sw.port(0).in().enqueue(frame());
    sw.port(1).in().enqueue(frame());
  }
  sim_.run();
  EXPECT_EQ(sw.port(0).out().size(), 3u);
  EXPECT_EQ(sw.port(1).out().size(), 3u);
}

TEST_F(SwitchBaseTest, DatapathDiscardsCounted) {
  auto& sw = make(simple_cost());
  sw.drop_all_ = true;
  sw.start();
  for (int i = 0; i < 5; ++i) sw.port(0).in().enqueue(frame());
  sim_.run();
  EXPECT_EQ(sw.stats().discards, 5u);
  EXPECT_EQ(sw.stats().tx_packets, 0u);
  EXPECT_EQ(pool_.outstanding(), 0u);  // discarded packets freed
}

TEST_F(SwitchBaseTest, WastedWorkOnFullOutputRing) {
  auto& sw = make(simple_cost());
  sw.start();
  // Output ring holds 64; pace 100 packets in (so the INPUT ring never
  // overflows) with nobody draining the output: the switch spends cycles
  // on 36 packets that then die at the full ring.
  for (int i = 0; i < 100; ++i) {
    sim_.post_in(i * core::from_ns(150),
                     [this] { sw_->port(0).in().enqueue(frame()); });
  }
  sim_.run();
  EXPECT_EQ(sw.stats().tx_packets, 64u);
  EXPECT_EQ(sw.stats().tx_drops, 36u);  // processed, then dropped
  drain(sw.port(1).out());
}

TEST_F(SwitchBaseTest, WakeupLatencyDelaysFirstRound) {
  auto c = simple_cost();
  c.wakeup_latency_virtual = core::from_us(5);
  auto& sw = make(c);
  sw.start();
  sw.port(0).in().enqueue(frame());
  sim_.run();
  EXPECT_EQ(sim_.now(), core::from_us(5) + core::from_ns(120));
}

TEST_F(SwitchBaseTest, BusyPeriodSkipsWakeup) {
  auto c = simple_cost();
  c.wakeup_latency_virtual = core::from_us(5);
  auto& sw = make(c);
  sw.start();
  for (int i = 0; i < 64; ++i) sw.port(0).in().enqueue(frame());
  sim_.run();
  // One wakeup, two rounds (32 + 32) back to back.
  const auto round = core::from_ns(100 + 32 * 20);
  EXPECT_EQ(sim_.now(), core::from_us(5) + 2 * round);
}

TEST_F(SwitchBaseTest, BatchTimeoutAssemblesBatches) {
  auto c = simple_cost();
  c.batch_timeout = core::from_us(10);
  c.burst = 8;
  auto& sw = make(c);
  sw.start();
  // 3 packets (< burst): the round must wait for the assembly timeout.
  for (int i = 0; i < 3; ++i) sw.port(0).in().enqueue(frame());
  sim_.run();
  EXPECT_EQ(sw.stats().tx_packets, 3u);
  EXPECT_GE(sim_.now(), core::from_us(10));
}

TEST_F(SwitchBaseTest, FullBurstSkipsAssemblyWait) {
  auto c = simple_cost();
  c.batch_timeout = core::from_us(10);
  c.burst = 8;
  auto& sw = make(c);
  sw.start();
  for (int i = 0; i < 8; ++i) sw.port(0).in().enqueue(frame());
  // Run only up to 2 us: the full burst must already be through (a stale
  // assembly-deadline check event may still sit in the queue).
  sim_.run_until(core::from_us(2));
  EXPECT_EQ(sw.stats().tx_packets, 8u);
  sim_.run();
}

// A frame from a wire source (hw/nic.h) that arrives while a round runs is
// put into the RX ring only when the round ends and reads it; its
// batch-assembly wait still counts from its arrival, so the timeout round
// starts at arrival + timeout.
TEST_F(SwitchBaseTest, AssemblyWaitCountsFromArrivalOfALateReadFrame) {
  hw::NicPort peer(sim_, "peer");
  hw::NicPort nic(sim_, "nic");
  hw::Cable cable(sim_, peer, nic);
  auto c = simple_cost();
  c.batch_timeout = core::from_us(10);
  c.burst = 2;
  sw_ = std::make_unique<PatchSwitch>(sim_, cpu_, "sw", c);
  auto& sw = *sw_;
  sw.attach_nic(nic);
  sw.add_port(std::make_unique<ring::Port>(
      "p1", ring::PortKind::kInternal, 64));
  sw.extra_ns_ = 5000;
  sw.start();
  // A full burst on port 1 starts a ~5.2 us round at 0.
  sw.port(1).in().enqueue(frame());
  sw.port(1).in().enqueue(frame());
  // Meanwhile a generator sends one frame at 0 across the wire: 1 us DMA
  // fetch, 67.2 ns on the wire, 5 ns of cable, 2.4 us RX DMA.
  traffic::MoonGen::Config gc;
  gc.rate_pps = 1e5;
  traffic::MoonGen gen(sim_, pool_, gc);
  gen.attach_tx_nic(peer);
  gen.start_tx(0, core::from_us(1));
  ASSERT_TRUE(peer.wired());
  const core::SimTime arrival = core::from_ns(1000 + 67.2 + 5 + 2400);
  sim_.run();
  EXPECT_EQ(gen.tx_sent(), 1u);
  EXPECT_EQ(sw.round_at_[1], 0);
  EXPECT_EQ(sw.round_at_[0], arrival + c.batch_timeout);
  EXPECT_EQ(sw.stats().rx_packets, 3u);
  drain(peer.rx_ring());
}

TEST_F(SwitchBaseTest, JitterPreservesMeanRoughly) {
  auto c = simple_cost();
  c.jitter_cv = 0.5;
  auto& sw = make(c);
  sw.start();
  sw.port(1).out().set_sink([](pkt::PacketHandle) {});  // drain output
  // Many one-packet rounds; total elapsed ~ n x 120 ns.
  const int n = 2000;
  int sent = 0;
  std::function<void()> feed = [&] {
    if (sent++ < n) {
      sw.port(0).in().enqueue(frame());
      sim_.post_in(core::from_ns(500), feed);
    }
  };
  sim_.post_in(0, feed);
  sim_.run();
  EXPECT_EQ(sw.stats().tx_packets, static_cast<std::uint64_t>(n));
}

TEST_F(SwitchBaseTest, IndexOfForeignPortIsNpos) {
  auto& sw = make(simple_cost());
  ring::Port foreign("x", ring::PortKind::kInternal, 4);
  EXPECT_EQ(sw.index_of(foreign), std::numeric_limits<std::size_t>::max());
}

TEST_F(SwitchBaseTest, VhostStallsOnlyOnVhostRounds) {
  auto c = simple_cost();
  c.vhost_stall_prob = 1.0;  // every vhost round stalls
  c.vhost_stall_mean_us = 50;
  c.vhost = PortCosts{5, 5, 0, 0};
  sw_ = std::make_unique<PatchSwitch>(sim_, cpu_, "sw", c);
  sw_->add_port(
      std::make_unique<ring::Port>("p0", ring::PortKind::kInternal, 64));
  sw_->add_port(std::make_unique<ring::VhostUserPort>("p1"));
  sw_->start();
  // Round from the internal port: no stall.
  sw_->port(0).in().enqueue(frame());
  sim_.run();
  EXPECT_LT(sim_.now(), core::from_us(1));
  // Round from the vhost port: stalled.
  const auto before = sim_.now();
  sw_->port(1).in().enqueue(frame());
  sim_.run();
  EXPECT_GT(sim_.now() - before, core::from_us(1));
  drain(sw_->port(0).out());
  drain(sw_->port(1).out());
}

}  // namespace
}  // namespace nfvsb::switches

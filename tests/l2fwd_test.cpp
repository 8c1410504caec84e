// DPDK l2fwd VNF model: cross-connect, MAC update, TX buffering with the
// BURST_TX_DRAIN_US timer (the Table 3 low-load latency mechanism).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/metrics.h"
#include "drain.h"
#include "hw/cpu_core.h"
#include "obs/registry.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "vnf/l2fwd.h"

namespace nfvsb::vnf {
namespace {

class L2FwdTest : public ::testing::Test {
 protected:
  L2FwdTest()
      : vcpu_(sim_, "vm-vcpu"),
        dev0_("dev0"),
        dev1_("dev1"),
        vnf_(sim_, vcpu_, "l2fwd", quiet_cost()) {
    vnf_.bind_virtio_pair(dev0_, dev1_);
  }

  static switches::CostModel quiet_cost() {
    auto c = L2Fwd::default_cost_model();
    c.jitter_cv = 0;
    return c;
  }

  /// Host -> VM: write into what the guest polls (dev.out ring).
  void host_sends(ring::VhostUserPort& dev, int n = 1) {
    for (int i = 0; i < n; ++i) {
      auto p = pool_.allocate();
      pkt::craft_udp_frame(*p, pkt::FrameSpec{});
      dev.out().enqueue(std::move(p));
    }
  }

  core::Simulator sim_;
  hw::CpuCore vcpu_;
  pkt::PacketPool pool_{512};
  ring::VhostUserPort dev0_;
  ring::VhostUserPort dev1_;
  L2Fwd vnf_;
};

TEST_F(L2FwdTest, PortsAreGuestViewsOfTheBackends) {
  ASSERT_EQ(vnf_.num_ports(), 2u);
  EXPECT_EQ(&vnf_.port(0).in(), &dev0_.out());
  EXPECT_EQ(&vnf_.port(0).out(), &dev0_.in());
  EXPECT_EQ(&vnf_.port(1).in(), &dev1_.out());
  EXPECT_EQ(&vnf_.port(1).out(), &dev1_.in());
  EXPECT_EQ(vnf_.port(1).kind(), ring::PortKind::kVhostUser);
}

TEST_F(L2FwdTest, FullBurstFlushesImmediately) {
  vnf_.start();
  host_sends(dev0_, 32);
  sim_.run_until(core::from_us(50));
  // 32 packets = one full TX burst: no drain wait.
  EXPECT_EQ(dev1_.in().size(), 32u);
  EXPECT_EQ(vnf_.full_flushes(), 1u);
  EXPECT_EQ(vnf_.drain_flushes(), 0u);
  sim_.run();
  drain(dev1_.in());
}

TEST_F(L2FwdTest, PartialBatchWaitsForDrainTimer) {
  vnf_.start();
  host_sends(dev0_, 3);
  sim_.run_until(core::from_us(50));
  EXPECT_EQ(dev1_.in().size(), 0u);  // still buffered
  sim_.run_until(core::from_us(150));
  EXPECT_EQ(dev1_.in().size(), 3u);  // drained at ~100 us
  EXPECT_EQ(vnf_.drain_flushes(), 1u);
  sim_.run();
  drain(dev1_.in());
}

TEST_F(L2FwdTest, DrainTimerMeasures100us) {
  vnf_.start();
  core::SimTime arrival = -1;
  dev1_.in().set_watcher([&](bool) {
    if (arrival < 0) arrival = sim_.now();
  });
  host_sends(dev0_, 1);
  sim_.run();
  EXPECT_GE(arrival, core::from_us(100));
  EXPECT_LT(arrival, core::from_us(110));
  drain(dev1_.in());
}

TEST_F(L2FwdTest, CrossConnectsBothDirections) {
  vnf_.start();
  host_sends(dev0_, 32);
  host_sends(dev1_, 32);
  sim_.run();
  EXPECT_EQ(dev1_.in().size(), 32u);
  EXPECT_EQ(dev0_.in().size(), 32u);
  drain(dev0_.in());
  drain(dev1_.in());
}

TEST_F(L2FwdTest, UpdatesSourceMac) {
  vnf_.start();
  host_sends(dev0_, 32);
  sim_.run();
  auto p = dev1_.in().dequeue();
  ASSERT_TRUE(p);
  pkt::EthHeader eth(p->bytes());
  EXPECT_NE(eth.src(), pkt::FrameSpec{}.src_mac);  // l2fwd_mac_updating
  drain(dev1_.in());
}

TEST_F(L2FwdTest, DstMacRewriteTargetsNextHop) {
  const auto next = pkt::MacAddress::from_u64(0x024d4d4d4d03);
  vnf_.set_dst_mac_rewrite(1, next);
  vnf_.start();
  host_sends(dev0_, 32);
  sim_.run();
  auto p = dev1_.in().dequeue();
  ASSERT_TRUE(p);
  pkt::EthHeader eth(p->bytes());
  EXPECT_EQ(eth.dst(), next);
  drain(dev1_.in());
}

TEST_F(L2FwdTest, MixedFullAndPartialFlushes) {
  vnf_.start();
  host_sends(dev0_, 70);  // 2 full bursts + 6 leftover
  sim_.run_until(core::from_us(20));
  EXPECT_EQ(dev1_.in().size(), 64u);
  sim_.run();
  EXPECT_EQ(dev1_.in().size(), 70u);
  EXPECT_EQ(vnf_.full_flushes(), 2u);
  EXPECT_EQ(vnf_.drain_flushes(), 1u);
  drain(dev1_.in());
}

// Every l2fwd TX into an empty vhost-user ring is a guest kick, read from
// the backend's registered "port/<name>/kicks" counter.
TEST(L2FwdKicks, OneKickPerEmptyToNonEmptyTransition) {
  obs::Registry reg;
  core::MetricsScope scope(&reg);
  core::Simulator sim;
  hw::CpuCore vcpu(sim, "vm-vcpu");
  pkt::PacketPool pool(512);
  ring::VhostUserPort dev0("dev0");
  ring::VhostUserPort dev1("dev1");
  auto cost = L2Fwd::default_cost_model();
  cost.jitter_cv = 0;
  L2Fwd vnf(sim, vcpu, "l2fwd", cost);
  vnf.bind_virtio_pair(dev0, dev1);
  vnf.start();
  const auto send = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto p = pool.allocate();
      pkt::craft_udp_frame(*p, pkt::FrameSpec{});
      dev0.out().enqueue(std::move(p));
    }
    sim.run();
  };
  const auto kicks = [&] {
    for (const auto& [path, value] : reg.snapshot()) {
      if (path == "port/dev1/kicks") return value;
    }
    ADD_FAILURE() << "port/dev1/kicks is not registered";
    return std::uint64_t{0};
  };
  // Two full bursts and a drained remainder: only the first finds the
  // ring empty.
  send(70);
  EXPECT_EQ(dev1.in().size(), 70u);
  EXPECT_EQ(kicks(), 1u);
  // The host drains the ring; the next burst kicks again.
  while (dev1.in().dequeue()) {
  }
  send(32);
  EXPECT_EQ(kicks(), 2u);
  // Into a non-empty ring: no kick.
  send(32);
  EXPECT_EQ(kicks(), 2u);
  drain(dev1.in());
}

}  // namespace
}  // namespace nfvsb::vnf

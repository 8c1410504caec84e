// Snabb app engine, pipeline staging and LuaJIT model.
#include <gtest/gtest.h>

#include "drain.h"
#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/snabb/luajit_model.h"
#include "switches/snabb/snabb_switch.h"

namespace nfvsb::switches::snabb {
namespace {

TEST(AppEngine, ParsesLinkSpecs) {
  const LinkSpec l = AppEngine::parse_link("nic1.tx -> nic2.rx");
  EXPECT_EQ(l.from_app, "nic1");
  EXPECT_EQ(l.from_end, "tx");
  EXPECT_EQ(l.to_app, "nic2");
  EXPECT_EQ(l.to_end, "rx");
}

TEST(AppEngine, RejectsMalformedLinks) {
  EXPECT_THROW(AppEngine::parse_link("nic1.tx nic2.rx"),
               std::invalid_argument);
  EXPECT_THROW(AppEngine::parse_link("nic1 -> nic2.rx"),
               std::invalid_argument);
  EXPECT_THROW(AppEngine::parse_link("nic1. -> nic2.rx"),
               std::invalid_argument);
}

TEST(AppEngine, RejectsUnknownAppsAndDuplicates) {
  AppEngine e;
  e.app(std::make_unique<Intel82599App>("nic1", 0));
  EXPECT_THROW(e.link("nic1.tx -> ghost.rx"), std::invalid_argument);
  EXPECT_THROW(e.app(std::make_unique<Intel82599App>("nic1", 1)),
               std::invalid_argument);
}

TEST(LuaJit, WarmupDecaysToSteady) {
  LuaJitModel jit(LuaJitModel::Params{.warmup_multiplier = 10.0,
                                      .warmup_breaths = 100});
  const double first = jit.step_multiplier();
  EXPECT_NEAR(first, 10.0, 0.2);
  for (int i = 0; i < 200; ++i) (void)jit.step_multiplier();
  EXPECT_DOUBLE_EQ(jit.step_multiplier(), 1.0);
  EXPECT_TRUE(jit.warm());
}

TEST(LuaJit, SteadyMultiplierFloorsTheDecay) {
  LuaJitModel jit;
  jit.set_steady_multiplier(2.5);
  for (int i = 0; i < 1000; ++i) (void)jit.step_multiplier();
  EXPECT_DOUBLE_EQ(jit.step_multiplier(), 2.5);
}

TEST(LuaJit, InvalidateResetsWarmup) {
  LuaJitModel jit;
  for (int i = 0; i < 1000; ++i) (void)jit.step_multiplier();
  jit.invalidate_traces();
  EXPECT_FALSE(jit.warm());
  EXPECT_GT(jit.step_multiplier(), 2.0);
}

TEST(LuaJit, StallSamplingRespectsProbability) {
  core::Rng rng(1);
  LuaJitModel never(LuaJitModel::Params{.stall_prob = 0.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(never.sample_stall_ns(rng), 0.0);
  }
  LuaJitModel always(LuaJitModel::Params{.stall_prob = 1.0,
                                         .stall_mean_us = 10});
  double total = 0;
  for (int i = 0; i < 1000; ++i) total += always.sample_stall_ns(rng);
  EXPECT_NEAR(total / 1000, 10000.0, 1500.0);
}

class SnabbTest : public ::testing::Test {
 protected:
  SnabbTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "snabb", warm_cost()) {}

  static CostModel warm_cost() {
    auto c = SnabbSwitch::default_cost_model();
    c.jitter_cv = 0;
    c.wakeup_latency_virtual = 0;
    return c;
  }

  void add_two_port_p2p() {
    sw_.add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kPhysical, 512));
    sw_.add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kPhysical, 512));
    sw_.engine().app(std::make_unique<Intel82599App>("nic1", 0));
    sw_.engine().app(std::make_unique<Intel82599App>("nic2", 1));
    sw_.engine().link("nic1.tx -> nic2.rx");
    sw_.engine().link("nic2.tx -> nic1.rx");
    sw_.commit();
  }

  void push(std::size_t port = 0) {
    auto p = pool_.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    sw_.port(port).in().enqueue(std::move(p));
  }

  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{512};
  SnabbSwitch sw_;
};

TEST_F(SnabbTest, PaperP2pConfigForwardsBothWays) {
  add_two_port_p2p();
  sw_.start();
  push(0);
  push(1);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  EXPECT_EQ(sw_.port(0).out().size(), 1u);
}

TEST_F(SnabbTest, PipelineStagingTakesTwoRounds) {
  add_two_port_p2p();
  sw_.start();
  push(0);
  sim_.run();
  // One breath moves the batch across ONE app: external->link, link->out.
  EXPECT_EQ(sw_.stats().rounds, 2u);
}

TEST_F(SnabbTest, InternalLinkPortsCreatedPerLink) {
  add_two_port_p2p();
  // 2 external + 2 links.
  EXPECT_EQ(sw_.num_ports(), 4u);
  EXPECT_EQ(sw_.port(2).kind(), ring::PortKind::kInternal);
}

TEST_F(SnabbTest, HeterogeneousNetworkGetsPenalty) {
  sw_.add_port(std::make_unique<ring::Port>(
      "p0", ring::PortKind::kPhysical, 512));
  auto& vh = sw_.add_vhost_user_port("vh0");
  (void)vh;
  sw_.engine().app(std::make_unique<Intel82599App>("nic1", 0));
  sw_.engine().app(std::make_unique<VhostUserApp>("vh", 1));
  sw_.engine().link("nic1.tx -> vh.rx");
  sw_.commit();
  sw_.start();
  push(0);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  drain(sw_.port(1).out());
}

TEST_F(SnabbTest, UnroutedPortDiscards) {
  add_two_port_p2p();
  sw_.add_port(std::make_unique<ring::Port>(
      "px", ring::PortKind::kPhysical, 512));
  // px was added after commit: no route.
  sw_.start();
  push(4);
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
}

}  // namespace
}  // namespace nfvsb::switches::snabb

// Ablation hooks on ScenarioConfig: tune_sut, nic_ring_depth, l2fwd_drain,
// num_flows — and FlowMask::union_with.
#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "switches/ovs/flow.h"

namespace nfvsb::scenario {
namespace {

ScenarioConfig quick(Kind kind, switches::SwitchType sut) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.sut = sut;
  cfg.frame_bytes = 64;
  cfg.warmup = core::from_ms(2);
  cfg.measure = core::from_ms(6);
  return cfg;
}

TEST(TuneSutHook, ThrottlingThePipelineCutsThroughput) {
  auto cfg = quick(Kind::kP2p, switches::SwitchType::kBess);
  const double base = run_scenario(cfg).fwd.gbps;
  cfg.tune_sut = [](switches::SwitchBase& sw) {
    sw.mutable_cost_model().pipeline_ns += 200;  // cripple it
  };
  const double slow = run_scenario(cfg).fwd.gbps;
  EXPECT_LT(slow, base * 0.5);
}

TEST(TuneSutHook, AppliedToEveryValeInstanceInLoopback) {
  auto cfg = quick(Kind::kLoopback, switches::SwitchType::kVale);
  cfg.chain_length = 2;
  const double base = run_scenario(cfg).fwd.gbps;
  cfg.tune_sut = [](switches::SwitchBase& sw) {
    sw.mutable_cost_model().pipeline_ns += 300;
  };
  const double slow = run_scenario(cfg).fwd.gbps;
  EXPECT_LT(slow, base * 0.7);
}

TEST(NicRingDepthOverride, TinyRingsLoseMorePackets) {
  auto cfg = quick(Kind::kP2p, switches::SwitchType::kT4p4s);
  cfg.nic_ring_depth = 64;
  const auto small = run_scenario(cfg);
  cfg.nic_ring_depth = 4096;
  const auto big = run_scenario(cfg);
  EXPECT_GT(small.nic_imissed, big.nic_imissed);
}

// Applies to every l2fwd VNF: the loopback chain and the v2v latency bounce.
TEST(L2fwdDrainOverride, ShorterDrainLowersLowLoadLatency) {
  for (Kind kind : {Kind::kLoopback, Kind::kV2v}) {
    auto cfg = quick(kind, switches::SwitchType::kVpp);
    cfg.rate_pps = 1e5;  // low load: drain timer dominates
    cfg.probe_interval = core::from_us(80);
    cfg.l2fwd_drain = core::from_us(10);
    const auto fast = run_scenario(cfg);
    cfg.l2fwd_drain = core::from_us(300);
    const auto slow = run_scenario(cfg);
    ASSERT_FALSE(fast.skipped.has_value()) << *fast.skipped;
    EXPECT_LT(fast.lat_avg_us, slow.lat_avg_us) << to_string(kind);
  }
}

TEST(NumFlows, ManyFlowsSlowOvsViaEmcPressure) {
  auto cfg = quick(Kind::kP2p, switches::SwitchType::kOvsDpdk);
  cfg.num_flows = 1;
  const double one = run_scenario(cfg).fwd.gbps;
  cfg.num_flows = 32768;  // 4x the EMC
  const double many = run_scenario(cfg).fwd.gbps;
  EXPECT_LT(many, one - 0.3);
}

}  // namespace
}  // namespace nfvsb::scenario

namespace nfvsb::switches::ovs {
namespace {

TEST(FlowMaskUnion, CombinesFields) {
  FlowMask a;
  a.in_port = true;
  a.tp_dst = true;
  FlowMask b;
  b.eth_dst = true;
  b.tp_dst = true;
  const FlowMask u = a.union_with(b);
  EXPECT_TRUE(u.in_port);
  EXPECT_TRUE(u.eth_dst);
  EXPECT_TRUE(u.tp_dst);
  EXPECT_FALSE(u.ip_src);
}

TEST(FlowMaskUnion, IdentityWithEmpty) {
  FlowMask a;
  a.ip_proto = true;
  EXPECT_EQ(a.union_with(FlowMask::wildcard_all()), a);
}

}  // namespace
}  // namespace nfvsb::switches::ovs

namespace nfvsb::scenario {
namespace {

TEST(ContainerVnfs, CheaperCrossingsRaiseChainThroughput) {
  ScenarioConfig cfg;
  cfg.kind = Kind::kLoopback;
  cfg.sut = switches::SwitchType::kVpp;
  cfg.chain_length = 2;
  cfg.frame_bytes = 64;
  cfg.warmup = core::from_ms(2);
  cfg.measure = core::from_ms(6);
  const double vm = run_scenario(cfg).fwd.gbps;
  cfg.containers = true;
  const double ctr = run_scenario(cfg).fwd.gbps;
  EXPECT_GT(ctr, vm * 1.03);
}

TEST(ContainerVnfs, CopyBoundLargeFramesGainLittle) {
  ScenarioConfig cfg;
  cfg.kind = Kind::kLoopback;
  cfg.sut = switches::SwitchType::kVpp;
  cfg.chain_length = 2;
  cfg.frame_bytes = 1024;
  cfg.warmup = core::from_ms(2);
  cfg.measure = core::from_ms(6);
  const double vm = run_scenario(cfg).fwd.gbps;
  cfg.containers = true;
  const double ctr = run_scenario(cfg).fwd.gbps;
  // Some gain, but bounded: copies and descriptor chains dominate 1024 B.
  EXPECT_LT(ctr, vm * 1.25);
  EXPECT_GE(ctr, vm * 0.98);
}

}  // namespace
}  // namespace nfvsb::scenario

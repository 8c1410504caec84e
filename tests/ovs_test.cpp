// OvS-DPDK datapath: flow keys/masks, EMC, megaflow, OpenFlow table,
// ovs-ofctl parsing, and the three-tier lookup integration.
#include <gtest/gtest.h>

#include "drain.h"
#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/ovs/emc.h"
#include "switches/ovs/megaflow.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/ovs/ovs_switch.h"

namespace nfvsb::switches::ovs {
namespace {

FlowKey key_from(const pkt::FrameSpec& spec, std::uint32_t in_port = 0) {
  pkt::PacketPool pool(1);
  auto p = pool.allocate();
  pkt::craft_udp_frame(*p, spec);
  return FlowKey::from_frame(in_port, p->bytes());
}

TEST(FlowKey, ExtractsAllFields) {
  pkt::FrameSpec spec;
  spec.src_port = 111;
  spec.dst_port = 222;
  const FlowKey k = key_from(spec, 4);
  EXPECT_EQ(k.in_port, 4u);
  EXPECT_EQ(k.eth_src, spec.src_mac);
  EXPECT_EQ(k.eth_dst, spec.dst_mac);
  EXPECT_EQ(k.eth_type, pkt::kEtherTypeIpv4);
  EXPECT_EQ(k.ip_src, spec.src_ip);
  EXPECT_EQ(k.ip_dst, spec.dst_ip);
  EXPECT_EQ(k.ip_proto, pkt::kIpProtoUdp);
  EXPECT_EQ(k.tp_src, 111);
  EXPECT_EQ(k.tp_dst, 222);
}

TEST(FlowMask, ApplyZeroesWildcardedFields) {
  const FlowKey k = key_from(pkt::FrameSpec{}, 7);
  FlowMask m;
  m.in_port = true;
  const FlowKey masked = m.apply(k);
  EXPECT_EQ(masked.in_port, 7u);
  EXPECT_EQ(masked.eth_src, pkt::MacAddress{});
  EXPECT_EQ(masked.ip_dst, pkt::Ipv4Address{});
}

TEST(Emc, MissThenHitAfterInsert) {
  Emc emc;
  const FlowKey k = key_from(pkt::FrameSpec{});
  EXPECT_FALSE(emc.lookup(k));
  emc.insert(k, Action::output(3));
  const auto hit = emc.lookup(k);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->out_port, 3u);
  EXPECT_EQ(emc.hits(), 1u);
  EXPECT_EQ(emc.misses(), 1u);
}

TEST(Emc, DistinctFlowsDistinctEntries) {
  Emc emc;
  pkt::FrameSpec a, b;
  b.src_port = 9999;
  emc.insert(key_from(a), Action::output(1));
  emc.insert(key_from(b), Action::output(2));
  EXPECT_EQ(emc.lookup(key_from(a))->out_port, 1u);
  EXPECT_EQ(emc.lookup(key_from(b))->out_port, 2u);
}

TEST(Emc, UpdateOverwritesAction) {
  Emc emc;
  const FlowKey k = key_from(pkt::FrameSpec{});
  emc.insert(k, Action::output(1));
  emc.insert(k, Action::output(2));
  EXPECT_EQ(emc.lookup(k)->out_port, 2u);
}

TEST(Megaflow, InsertCreatesOneSubtablePerMask) {
  MegaflowCache mf;
  FlowMask m1;
  m1.in_port = true;
  FlowMask m2;
  m2.eth_dst = true;
  const FlowKey k = key_from(pkt::FrameSpec{}, 1);
  mf.insert(m1, k, Action::output(1));
  mf.insert(m2, k, Action::output(2));
  mf.insert(m1, key_from(pkt::FrameSpec{}, 2), Action::output(3));
  EXPECT_EQ(mf.subtables(), 2u);
}

TEST(Megaflow, LookupMatchesUnderMask) {
  MegaflowCache mf;
  FlowMask m;
  m.in_port = true;
  mf.insert(m, key_from(pkt::FrameSpec{}, 5), Action::output(9));
  // Different 5-tuple, same in_port: must still match (wildcarded).
  pkt::FrameSpec other;
  other.src_port = 777;
  const auto hit = mf.lookup(key_from(other, 5));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->action.out_port, 9u);
  EXPECT_GE(hit->subtables_probed, 1u);
}

TEST(Megaflow, ReportsProbedSubtables) {
  MegaflowCache mf;
  // First subtable will not match; second will.
  FlowMask m1;
  m1.tp_src = true;
  FlowMask m2;
  m2.in_port = true;
  pkt::FrameSpec no_match;
  no_match.src_port = 42;
  mf.insert(m1, key_from(no_match), Action::drop());
  mf.insert(m2, key_from(pkt::FrameSpec{}, 3), Action::output(1));
  pkt::FrameSpec probe;
  probe.src_port = 4242;
  const auto hit = mf.lookup(key_from(probe, 3));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->subtables_probed, 2u);
}

TEST(Megaflow, HotSubtableBubblesForward) {
  MegaflowCache mf;
  FlowMask cold;
  cold.tp_src = true;
  FlowMask hot;
  hot.in_port = true;
  pkt::FrameSpec cold_spec;
  cold_spec.src_port = 1;
  mf.insert(cold, key_from(cold_spec), Action::output(1));
  mf.insert(hot, key_from(pkt::FrameSpec{}, 2), Action::output(2));
  // Hammer the hot entry; it must eventually be found on the first probe.
  std::size_t last_probes = 99;
  for (int i = 0; i < 5; ++i) {
    last_probes = mf.lookup(key_from(pkt::FrameSpec{}, 2))->subtables_probed;
  }
  EXPECT_EQ(last_probes, 1u);
}

TEST(OpenFlowTable, PriorityOrder) {
  OpenFlowTable t;
  OpenFlowRule low;
  low.priority = 1;
  low.mask = FlowMask::wildcard_all();
  low.action = Action::drop();
  OpenFlowRule high;
  high.priority = 100;
  high.mask.in_port = true;
  FlowKey match;
  match.in_port = 0;
  high.match = high.mask.apply(match);
  high.action = Action::output(1);
  t.add_rule(low);
  t.add_rule(high);
  const auto got = t.classify(key_from(pkt::FrameSpec{}, 0));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->rule.action.out_port, 1u);
  // Non-matching in_port falls to the wildcard rule.
  const auto fallback = t.classify(key_from(pkt::FrameSpec{}, 9));
  ASSERT_TRUE(fallback);
  EXPECT_EQ(fallback->rule.action.type, ActionType::kDrop);
}

TEST(OvsOfctl, ParsesFullMatch) {
  const auto rule = OvsOfctl::parse_flow(
      "priority=50,in_port=2,dl_dst=02:4d:00:00:00:01,dl_type=0x0800,"
      "nw_src=10.0.0.1,nw_dst=10.1.0.1,nw_proto=17,tp_src=1000,tp_dst=2000,"
      "actions=output:3");
  EXPECT_EQ(rule.priority, 50u);
  EXPECT_TRUE(rule.mask.in_port);
  EXPECT_EQ(rule.match.in_port, 1u);  // 1-based -> 0-based
  EXPECT_TRUE(rule.mask.eth_dst);
  EXPECT_TRUE(rule.mask.ip_src);
  EXPECT_TRUE(rule.mask.tp_dst);
  EXPECT_EQ(rule.action.type, ActionType::kOutput);
  EXPECT_EQ(rule.action.out_port, 2u);
}

TEST(OvsOfctl, ParsesDropAndDefaults) {
  const auto rule = OvsOfctl::parse_flow("actions=drop");
  EXPECT_EQ(rule.priority, 32768u);  // OpenFlow default
  EXPECT_EQ(rule.action.type, ActionType::kDrop);
  EXPECT_EQ(rule.mask, FlowMask::wildcard_all());
}

TEST(OvsOfctl, RejectsMalformedInput) {
  EXPECT_THROW(OvsOfctl::parse_flow("in_port=1"), std::invalid_argument);
  EXPECT_THROW(OvsOfctl::parse_flow("bogus,actions=drop"),
               std::invalid_argument);
  EXPECT_THROW(OvsOfctl::parse_flow("in_port=x,actions=drop"),
               std::invalid_argument);
  EXPECT_THROW(OvsOfctl::parse_flow("dl_dst=nope,actions=drop"),
               std::invalid_argument);
  EXPECT_THROW(OvsOfctl::parse_flow("actions=teleport"),
               std::invalid_argument);
}

// run() takes `add-flow` alone (with or without the `ovs-ofctl` prefix);
// any other command, `del-flows` included, is refused and leaves the table
// as it was.
TEST(OvsOfctl, RunTakesAddFlowOnly) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "sut");
  OvsSwitch sw(sim, cpu, "ovs");
  OvsOfctl ofctl(sw);
  ofctl.run("ovs-ofctl add-flow br0 \"in_port=1,actions=output:2\"");
  ofctl.run("add-flow br0 priority=10,actions=drop");
  ASSERT_EQ(sw.openflow().rules().size(), 2u);
  for (const char* command :
       {"del-flows br0", "ovs-ofctl del-flows br0", "dump-flows br0",
        "add-flow br0", ""}) {
    EXPECT_THROW(ofctl.run(command), std::invalid_argument) << command;
  }
  EXPECT_EQ(sw.openflow().rules().size(), 2u);
}

class OvsSwitchTest : public ::testing::Test {
 protected:
  OvsSwitchTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "ovs") {
    sw_.add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kInternal, 512));
    sw_.add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kInternal, 512));
  }

  void push(std::uint16_t src_port = 1000) {
    auto p = pool_.allocate();
    pkt::FrameSpec spec;
    spec.src_port = src_port;
    pkt::craft_udp_frame(*p, spec);
    sw_.port(0).in().enqueue(std::move(p));
  }

  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{512};
  OvsSwitch sw_;
};

TEST_F(OvsSwitchTest, UpcallInstallsCachesThenHitsEmc) {
  OvsOfctl ofctl(sw_);
  ofctl.run("ovs-ofctl add-flow br0 \"priority=10,in_port=1,"
            "actions=output:2\"");
  sw_.start();
  push();
  sim_.run();
  EXPECT_EQ(sw_.upcalls(), 1u);
  EXPECT_EQ(sw_.megaflow().subtables(), 1u);
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  // Same flow again: EMC hit, no further upcalls.
  push();
  sim_.run();
  EXPECT_EQ(sw_.upcalls(), 1u);
  EXPECT_GE(sw_.emc().hits(), 1u);
  EXPECT_EQ(sw_.port(1).out().size(), 2u);
  drain(sw_.port(1).out());
}

TEST_F(OvsSwitchTest, MegaflowAbsorbsNewMicroflows) {
  OvsOfctl ofctl(sw_);
  ofctl.run("add-flow br0 priority=10,in_port=1,actions=output:2");
  sw_.start();
  push(1000);
  sim_.run();
  // A different 5-tuple from the same in_port: megaflow hit, no upcall.
  push(2000);
  sim_.run();
  EXPECT_EQ(sw_.upcalls(), 1u);
  EXPECT_GE(sw_.megaflow().hits(), 1u);
  EXPECT_EQ(sw_.port(1).out().size(), 2u);
  drain(sw_.port(1).out());
}

TEST_F(OvsSwitchTest, NoRuleMeansDrop) {
  sw_.start();
  push();
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
  EXPECT_EQ(sw_.port(1).out().size(), 0u);
}

TEST_F(OvsSwitchTest, DropRuleDiscards) {
  OvsOfctl ofctl(sw_);
  ofctl.run("add-flow br0 priority=10,in_port=1,actions=drop");
  sw_.start();
  push();
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
}

TEST_F(OvsSwitchTest, MegaflowNeverShadowsHigherPriorityRule) {
  // Regression: a megaflow installed from a low-priority wildcarded rule
  // must not absorb packets a higher-priority rule matches (requires
  // unwildcarding with every examined field).
  OvsOfctl ofctl(sw_);
  ofctl.run("add-flow br0 priority=200,tp_dst=2001,actions=drop");
  ofctl.run("add-flow br0 priority=100,in_port=1,actions=output:2");
  sw_.start();
  push(1000);  // dst_port 2000: forwarded; installs the in_port megaflow
  sim_.run();
  ASSERT_EQ(sw_.port(1).out().size(), 1u);
  // Same in_port but tp_dst 2001: MUST hit the drop rule, not the cache.
  {
    auto p = pool_.allocate();
    pkt::FrameSpec spec;
    spec.dst_port = 2001;
    pkt::craft_udp_frame(*p, spec);
    sw_.port(0).in().enqueue(std::move(p));
  }
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);  // not forwarded
  EXPECT_EQ(sw_.stats().discards, 1u);
  drain(sw_.port(1).out());
}

TEST_F(OvsSwitchTest, DumpFlowsShowsRules) {
  OvsOfctl ofctl(sw_);
  ofctl.run("add-flow br0 priority=10,in_port=1,actions=output:2");
  const std::string dump = ofctl.dump_flows();
  EXPECT_NE(dump.find("priority=10"), std::string::npos);
  EXPECT_NE(dump.find("in_port=1"), std::string::npos);
}

}  // namespace
}  // namespace nfvsb::switches::ovs

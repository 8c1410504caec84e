// Extended switch features: VPP bridge domains, OvS management plane
// (del-flows, rule stats).
#include <gtest/gtest.h>

#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/vpp/cli.h"
#include "switches/vpp/vpp_switch.h"

namespace nfvsb::switches {
namespace {

// ---------------- VPP bridge domain ---------------------------------------

class VppBridgeTest : public ::testing::Test {
 protected:
  VppBridgeTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "vpp") {
    for (int i = 0; i < 3; ++i) {
      sw_.add_port(std::make_unique<ring::RingPort>(
          std::string("p").append(std::to_string(i)),
          ring::PortKind::kInternal, 512));
    }
  }
  void push(std::size_t port, std::uint64_t src, std::uint64_t dst) {
    auto p = pool_.allocate();
    pkt::FrameSpec spec;
    spec.src_mac = pkt::MacAddress::from_u64(src);
    spec.dst_mac = pkt::MacAddress::from_u64(dst);
    pkt::craft_udp_frame(*p, spec);
    sw_.port(port).in().enqueue(std::move(p));
  }
  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{256};
  vpp::VppSwitch sw_;
};

TEST_F(VppBridgeTest, LearnsAndForwards) {
  sw_.bridge(0);
  sw_.bridge(1);
  sw_.start();
  push(1, 0xB, 0xA);  // learn B@1
  sim_.run();
  sw_.port(0).out().clear();
  push(0, 0xA, 0xB);  // towards B
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  EXPECT_EQ(sw_.bridge_node().fib().entries(), 2u);
  sw_.port(1).out().clear();
}

TEST_F(VppBridgeTest, BridgeAndPatchCoexist) {
  // Ports 0/1 bridged; port 2 patched back to 2 is nonsense, so patch
  // 2 -> 0 instead: both features on one graph.
  sw_.bridge(0);
  sw_.bridge(1);
  sw_.l2patch(2, 0);
  sw_.start();
  push(2, 0xC, 0xD);
  sim_.run();
  EXPECT_EQ(sw_.port(0).out().size(), 1u);
  sw_.port(0).out().clear();
}

TEST_F(VppBridgeTest, CliBridgeCommand) {
  vpp::VppCli cli(sw_);
  cli.register_port("port0", 0);
  cli.register_port("port1", 1);
  cli.run("set interface l2 bridge port0 1");
  cli.run("set interface l2 bridge port1 1");
  sw_.start();
  push(0, 0xA, 0xB);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);  // flood to the other member
  sw_.port(1).out().clear();
}

TEST_F(VppBridgeTest, DisabledBridgeCostsNothing) {
  // Feature arc: with no members the bridge node must not charge.
  sw_.l2patch(0, 1);
  sw_.start();
  push(0, 0xA, 0xB);
  sim_.run();
  EXPECT_EQ(sw_.bridge_node().calls(), 0u);
  sw_.port(1).out().clear();
}

// ---------------- OvS management plane -------------------------------------

class OvsMgmtTest : public ::testing::Test {
 protected:
  OvsMgmtTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "ovs") {
    sw_.add_port(std::make_unique<ring::RingPort>(
        "p0", ring::PortKind::kInternal, 512));
    sw_.add_port(std::make_unique<ring::RingPort>(
        "p1", ring::PortKind::kInternal, 512));
  }
  void push() {
    auto p = pool_.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    sw_.port(0).in().enqueue(std::move(p));
  }
  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{256};
  ovs::OvsSwitch sw_;
};

TEST_F(OvsMgmtTest, RuleStatsCountCachedHits) {
  ovs::OvsOfctl ofctl(sw_);
  ofctl.run("add-flow br0 priority=10,in_port=1,actions=output:2");
  sw_.start();
  for (int i = 0; i < 5; ++i) push();
  sim_.run();
  const auto& rule = sw_.openflow().rules().front();
  EXPECT_EQ(sw_.rule_packets(rule.id), 5u);  // 1 upcall + 4 EMC hits
  const std::string dump = ofctl.dump_flows();
  EXPECT_NE(dump.find("n_packets=5"), std::string::npos);
  sw_.port(1).out().clear();
}

TEST_F(OvsMgmtTest, DelFlowsStopsForwardingImmediately) {
  ovs::OvsOfctl ofctl(sw_);
  ofctl.run("add-flow br0 priority=10,in_port=1,actions=output:2");
  sw_.start();
  push();
  sim_.run();
  ASSERT_EQ(sw_.port(1).out().size(), 1u);
  ofctl.run("del-flows br0");
  push();  // must NOT be forwarded by a stale EMC/megaflow entry
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  EXPECT_EQ(sw_.stats().discards, 1u);
  sw_.port(1).out().clear();
}

}  // namespace
}  // namespace nfvsb::switches

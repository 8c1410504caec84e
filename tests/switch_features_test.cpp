// Extended switch features: the OvS management plane's per-rule stats.
#include <gtest/gtest.h>

#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/ovs/ovs_ctl.h"

namespace nfvsb::switches {
namespace {

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

}  // namespace
}  // namespace nfvsb::switches

// VPP graph, nodes and CLI.
#include <gtest/gtest.h>

#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/vpp/cli.h"
#include "switches/vpp/vpp_switch.h"

namespace nfvsb::switches::vpp {
namespace {

class VppTest : public ::testing::Test {
 protected:
  VppTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "vpp") {
    sw_.add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kInternal, 512));
    sw_.add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kInternal, 512));
  }

  void push(std::size_t port = 0, std::uint32_t size = 64) {
    auto p = pool_.allocate();
    pkt::FrameSpec spec;
    spec.frame_bytes = size;
    pkt::craft_udp_frame(*p, spec);
    sw_.port(port).in().enqueue(std::move(p));
  }

  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{512};
  VppSwitch sw_;
};

TEST_F(VppTest, L2PatchForwards) {
  sw_.l2patch(0, 1);
  sw_.start();
  push(0);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
}

TEST_F(VppTest, UnpatchedPortDrops) {
  sw_.l2patch(0, 1);  // port 1 has no patch
  sw_.start();
  push(1);
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
  EXPECT_EQ(sw_.port(0).out().size(), 0u);
}

TEST_F(VppTest, BidirectionalPatch) {
  sw_.l2patch(0, 1);
  sw_.l2patch(1, 0);
  sw_.start();
  push(0);
  push(1);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  EXPECT_EQ(sw_.port(0).out().size(), 1u);
}

TEST_F(VppTest, RuntFramesDroppedByEthernetInput) {
  sw_.l2patch(0, 1);
  sw_.start();
  auto p = pool_.allocate();
  p->resize(8);  // runt
  sw_.port(0).in().enqueue(std::move(p));
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
  auto* eth = dynamic_cast<EthernetInputNode*>(&sw_.graph().node(0));
  ASSERT_NE(eth, nullptr);
  EXPECT_EQ(eth->runts_dropped(), 1u);
}

TEST_F(VppTest, NodeCountersTrackVectors) {
  sw_.l2patch(0, 1);
  sw_.start();
  for (int i = 0; i < 10; ++i) push(0);
  sim_.run();
  const Node& n = sw_.patch_node();
  EXPECT_EQ(n.vectors(), 10u);
  EXPECT_GE(n.calls(), 1u);
  EXPECT_GT(n.avg_vector_size(), 0.0);
}

TEST_F(VppTest, CliConfiguresPatch) {
  VppCli cli(sw_);
  cli.register_port("port0", 0);
  cli.register_port("port1", 1);
  cli.run("test l2patch rx port0 tx port1");
  sw_.start();
  push(0);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
}

TEST_F(VppTest, CliRejectsUnknownPortAndCommand) {
  VppCli cli(sw_);
  cli.register_port("port0", 0);
  EXPECT_THROW(cli.run("test l2patch rx port0 tx portX"),
               std::invalid_argument);
  EXPECT_THROW(cli.run("test l2patch rx portX tx port0"),
               std::invalid_argument);
  EXPECT_THROW(cli.run("show interfaces"), std::invalid_argument);
}

TEST_F(VppTest, ShowRuntimeRendersNodes) {
  VppCli cli(sw_);
  const std::string out = cli.show_runtime();
  EXPECT_NE(out.find("ethernet-input"), std::string::npos);
  EXPECT_NE(out.find("l2-patch"), std::string::npos);
}

TEST(VppGraph, StandaloneGraphRunsNodes) {
  Graph g;
  auto& eth = g.add(std::make_unique<EthernetInputNode>());
  auto& patch = g.add(std::make_unique<L2PatchNode>());
  dynamic_cast<L2PatchNode&>(patch).patch(0, 1);

  pkt::PacketPool pool(4);
  Vector frame;
  auto p = pool.allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  frame.push_back(VectorEntry{std::move(p), 0, kNoTxPort, false});
  const double cost = g.run(frame);
  EXPECT_GT(cost, 0.0);
  EXPECT_FALSE(frame[0].drop);
  EXPECT_EQ(frame[0].tx_port, 1u);
  EXPECT_EQ(eth.vectors(), 1u);
}

TEST(VppGraph, VectorAmortizationLowersPerPacketCharge) {
  EthernetInputNode node;
  const double one = node.charge_ns(1);
  const double many = node.charge_ns(256) / 256.0;
  EXPECT_LT(many, one);
}

}  // namespace
}  // namespace nfvsb::switches::vpp

// t4p4s P4 pipeline: parser/deparser, tables, MAC rewriting, tunings.
#include <gtest/gtest.h>

#include "drain.h"
#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/t4p4s/t4p4s_switch.h"

namespace nfvsb::switches::t4p4s {
namespace {

TEST(P4Parser, ExtractsEthernetAndIpv4) {
  pkt::PacketPool pool(1);
  auto p = pool.allocate();
  pkt::FrameSpec spec;
  pkt::craft_udp_frame(*p, spec);
  const Phv phv = parse(p->bytes());
  EXPECT_TRUE(phv.eth_valid);
  EXPECT_TRUE(phv.ipv4_valid);
  EXPECT_EQ(phv.eth_src, spec.src_mac);
  EXPECT_EQ(phv.eth_dst, spec.dst_mac);
  EXPECT_EQ(phv.ip_src, spec.src_ip);
  EXPECT_EQ(phv.ip_dst, spec.dst_ip);
  EXPECT_EQ(phv.ttl, 64);
}

TEST(P4Parser, RuntFrameInvalid) {
  const std::array<std::uint8_t, 6> tiny{};
  const Phv phv = parse(std::span<const std::uint8_t>(tiny));
  EXPECT_FALSE(phv.eth_valid);
}

TEST(P4Deparser, WritesMutatedDstMac) {
  pkt::PacketPool pool(1);
  auto p = pool.allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  Phv phv = parse(p->bytes());
  phv.eth_dst = pkt::MacAddress::from_u64(0x112233445566);
  deparse(phv, p->bytes());
  pkt::EthHeader eth(p->bytes());
  EXPECT_EQ(eth.dst().as_u64(), 0x112233445566u);
}

TEST(ExactMacTable, AddLookup) {
  ExactMacTable t;
  t.add(pkt::MacAddress::from_u64(1), P4Action::forward(2));
  const auto a = t.lookup(pkt::MacAddress::from_u64(1));
  ASSERT_TRUE(a);
  EXPECT_EQ(a->port, 2u);
  EXPECT_FALSE(t.lookup(pkt::MacAddress::from_u64(9)));
}

class T4p4sTest : public ::testing::Test {
 protected:
  T4p4sTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "t4p4s", fast_cost()) {
    sw_.add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kInternal, 512));
    sw_.add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kInternal, 512));
  }

  static CostModel fast_cost() {
    auto c = T4p4sSwitch::default_cost_model();
    c.batch_timeout = 0;  // keep unit tests snappy
    c.jitter_cv = 0;
    c.stall_prob = 0;
    c.vhost_stall_prob = 0;
    return c;
  }

  void push(pkt::MacAddress dst) {
    auto p = pool_.allocate();
    pkt::FrameSpec spec;
    spec.dst_mac = dst;
    pkt::craft_udp_frame(*p, spec);
    sw_.port(0).in().enqueue(std::move(p));
  }

  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{512};
  T4p4sSwitch sw_;
};

TEST_F(T4p4sTest, ForwardsByDstMac) {
  const auto mac = pkt::MacAddress::from_u64(0x024d0000001);
  sw_.l2_table().add(mac, P4Action::forward(1));
  sw_.start();
  push(mac);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  EXPECT_EQ(sw_.table_misses(), 0u);
}

TEST_F(T4p4sTest, TableMissDropsAsP4Default) {
  sw_.l2_table().add(pkt::MacAddress::from_u64(1), P4Action::forward(1));
  sw_.start();
  push(pkt::MacAddress::from_u64(2));
  sim_.run();
  EXPECT_EQ(sw_.table_misses(), 1u);
  EXPECT_EQ(sw_.stats().discards, 1u);
}

TEST_F(T4p4sTest, ActionRewritesDstMac) {
  const auto in_mac = pkt::MacAddress::from_u64(0x02aa);
  const auto next_mac = pkt::MacAddress::from_u64(0x02bb);
  auto action = P4Action::forward(1);
  action.new_dst_mac = next_mac;
  sw_.l2_table().add(in_mac, action);
  sw_.start();
  push(in_mac);
  sim_.run();
  auto p = sw_.port(1).out().dequeue();
  ASSERT_TRUE(p);
  pkt::EthHeader eth(p->bytes());
  EXPECT_EQ(eth.dst(), next_mac);
}

TEST_F(T4p4sTest, SmacLearningStageTogglesCost) {
  // The Table 2 tuning removed the smac stage; re-enabling must add cost.
  const auto mac = pkt::MacAddress::from_u64(0x02cc);
  sw_.l2_table().add(mac, P4Action::forward(1));
  sw_.start();
  push(mac);
  sim_.run();
  const auto without = sim_.now();
  EXPECT_FALSE(sw_.smac_learning());

  core::Simulator sim2;
  hw::CpuCore cpu2(sim2, "sut");
  T4p4sSwitch sw2(sim2, cpu2, "t4p4s", fast_cost());
  sw2.add_port(std::make_unique<ring::Port>(
      "p0", ring::PortKind::kInternal, 512));
  sw2.add_port(std::make_unique<ring::Port>(
      "p1", ring::PortKind::kInternal, 512));
  sw2.l2_table().add(mac, P4Action::forward(1));
  sw2.set_smac_learning(true);
  sw2.start();
  {
    pkt::PacketPool pool2(4);
    auto p = pool2.allocate();
    pkt::FrameSpec spec;
    spec.dst_mac = mac;
    pkt::craft_udp_frame(*p, spec);
    sw2.port(0).in().enqueue(std::move(p));
    sim2.run();
    drain(sw2.port(1).out());
  }
  EXPECT_GT(sim2.now(), without);
  drain(sw_.port(1).out());
}

TEST_F(T4p4sTest, RuntFrameDiscarded) {
  sw_.start();
  auto p = pool_.allocate();
  p->resize(4);
  sw_.port(0).in().enqueue(std::move(p));
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
}

}  // namespace
}  // namespace nfvsb::switches::t4p4s

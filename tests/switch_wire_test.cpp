// SwitchBase::wire: each of the seven switches, built by make_switch and
// wired through its own configuration interface, forwards both directions
// of a bidirectional port pair and into a vhost-user port (VALE by learning
// and flooding); each override installs what the switch's own interface
// would (BESS modules, OvS add-flow rules, t4p4s table entries, a Click
// config, Snabb apps and links, VPP l2patches).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/simulator.h"
#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "ring/port.h"
#include "ring/vhost_user_port.h"
#include "switches/bess/bess_switch.h"
#include "switches/fastclick/fastclick_switch.h"
#include "switches/ovs/ovs_switch.h"
#include "switches/registry.h"
#include "switches/snabb/snabb_switch.h"
#include "switches/switch_base.h"
#include "switches/t4p4s/t4p4s_switch.h"
#include "switches/vale/vale_switch.h"
#include "switches/vpp/vpp_switch.h"

namespace nfvsb::switches {
namespace {

constexpr std::uint64_t kFrames = 100;

class SwitchWire : public ::testing::TestWithParam<SwitchType> {};

TEST_P(SwitchWire, BidirectionalPairsForward) {
  core::Simulator sim(0x5eed);
  pkt::PacketPool pool(1024);
  hw::CpuCore cpu(sim, "wire.core");
  std::unique_ptr<SwitchBase> sw = make_switch(GetParam(), sim, cpu, "sut");
  for (int p = 0; p < 2; ++p) {
    sw->add_port(std::make_unique<ring::Port>(
        "sut:nic" + std::to_string(p), ring::PortKind::kPhysical));
  }
  const PortPair pairs[] = {{0, 1}, {1, 0}};
  sw->wire(pairs);
  std::uint64_t left[2] = {0, 0};
  for (std::size_t p = 0; p < 2; ++p) {
    sw->port(p).out().set_sink([&left, p](pkt::PacketHandle) { ++left[p]; });
  }
  sw->start();

  // Port 0's frames address egress port 1, and port 1's address port 0.
  for (std::size_t in = 0; in < 2; ++in) {
    pkt::FrameSpec spec;
    spec.dst_mac = egress_mac(1 - in);
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      pkt::PacketHandle f = pool.allocate();
      pkt::craft_udp_frame(*f, spec);
      ASSERT_TRUE(sw->port(in).in().enqueue(std::move(f)));
    }
  }
  sim.run();
  EXPECT_EQ(left[1], kFrames) << "port 0 -> port 1";
  EXPECT_EQ(left[0], kFrames) << "port 1 -> port 0";
  EXPECT_EQ(sw->stats().discards, 0u);
}

TEST_P(SwitchWire, PairIntoVhostUserPortForwards) {
  core::Simulator sim(0x5eed);
  pkt::PacketPool pool(1024);
  hw::CpuCore cpu(sim, "wire.core");
  std::unique_ptr<SwitchBase> sw = make_switch(GetParam(), sim, cpu, "sut");
  sw->add_port(std::make_unique<ring::Port>("sut:nic0",
                                                ring::PortKind::kPhysical));
  ring::VhostUserPort& vh = sw->add_vhost_user_port("sut:vhost0");
  ASSERT_EQ(sw->num_ports(), 2u);
  EXPECT_EQ(sw->port(1).kind(), ring::PortKind::kVhostUser);
  const PortPair pairs[] = {{0, 1}};
  sw->wire(pairs);
  std::uint64_t left = 0;
  vh.out().set_sink([&left](pkt::PacketHandle) { ++left; });
  sw->start();

  pkt::FrameSpec spec;
  spec.dst_mac = egress_mac(1);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    pkt::PacketHandle f = pool.allocate();
    pkt::craft_udp_frame(*f, spec);
    ASSERT_TRUE(sw->port(0).in().enqueue(std::move(f)));
  }
  sim.run();
  EXPECT_EQ(left, kFrames);
  EXPECT_EQ(sw->stats().discards, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSwitches, SwitchWire,
                         ::testing::ValuesIn(kAllSwitches),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// Per-switch: what each override installs through the switch's own
// configuration interface.
class SwitchWireInstalls : public ::testing::Test {
 protected:
  template <typename Switch>
  Switch& build(std::size_t ports) {
    auto sw = std::make_unique<Switch>(sim_, cpu_, "sut");
    for (std::size_t p = 0; p < ports; ++p) {
      sw->add_port(std::make_unique<ring::Port>(
          "sut:nic" + std::to_string(p), ring::PortKind::kPhysical));
    }
    Switch& ref = *sw;
    sw_ = std::move(sw);
    return ref;
  }

  static constexpr PortPair kBidi[] = {{0, 1}, {1, 0}};
  core::Simulator sim_{0x5eed};
  hw::CpuCore cpu_{sim_, "wire.core"};
  std::unique_ptr<SwitchBase> sw_;
};

TEST_F(SwitchWireInstalls, EgressMacAddressesThePortInItsLowByte) {
  EXPECT_EQ(egress_mac(0), pkt::MacAddress::from_u64(0x024d4d4d4d00ULL));
  EXPECT_EQ(egress_mac(1), pkt::MacAddress::from_u64(0x024d4d4d4d01ULL));
  EXPECT_EQ(egress_mac(255), pkt::MacAddress::from_u64(0x024d4d4d4dffULL));
  EXPECT_EQ(egress_mac(256), egress_mac(0));  // one byte of port number
  EXPECT_NE(egress_mac(0), egress_mac(1));
}

TEST_F(SwitchWireInstalls, BessBuildsOneQueueIncQueueOutChainPerPair) {
  auto& sw = build<bess::BessSwitch>(2);
  sw.wire(kBidi);
  const std::string text = sw.pipeline().show();
  EXPECT_EQ(text,
            "in0::QueueInc\n  :0 -> out1\nout1::QueueOut\n"
            "in1::QueueInc\n  :0 -> out0\nout0::QueueOut\n");
}

TEST_F(SwitchWireInstalls, OvsAddsOneOpenFlowRulePerPair) {
  auto& sw = build<ovs::OvsSwitch>(2);
  sw.wire(kBidi);
  const auto& rules = sw.openflow().rules();
  ASSERT_EQ(rules.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rules[i].priority, 100u);
    EXPECT_TRUE(rules[i].mask.in_port);
    EXPECT_EQ(rules[i].match.in_port, kBidi[i].in);  // 0-based internally
    EXPECT_EQ(rules[i].action.type, ovs::ActionType::kOutput);
    EXPECT_EQ(rules[i].action.out_port, kBidi[i].out);
  }
  // dump-flows shows the 1-based OpenFlow ports the paper's add-flow uses.
  EXPECT_EQ(rules[0].description, "priority=100,in_port=1,actions=output:2");
  EXPECT_EQ(rules[1].description, "priority=100,in_port=2,actions=output:1");
}

TEST_F(SwitchWireInstalls, T4p4sAddsOneForwardEntryPerEgressMac) {
  auto& sw = build<t4p4s::T4p4sSwitch>(2);
  sw.wire(kBidi);
  ASSERT_EQ(sw.l2_table().size(), 2u);
  for (std::size_t out = 0; out < 2; ++out) {
    const auto action = sw.l2_table().lookup(egress_mac(out));
    ASSERT_TRUE(action.has_value()) << out;
    EXPECT_EQ(action->kind, t4p4s::P4Action::Kind::kForward);
    EXPECT_EQ(action->port, out);
    EXPECT_FALSE(action->new_dst_mac.has_value());
  }
  EXPECT_FALSE(sw.l2_table().lookup(egress_mac(2)).has_value());
}

TEST_F(SwitchWireInstalls, FastClickParsesOnePaperChainPerPair) {
  auto& sw = build<fastclick::FastClickSwitch>(2);
  sw.wire(kBidi);
  const std::string text = sw.router().unparse();
  EXPECT_NE(text.find("FromDPDKDevice@1 -> EtherMirror@2;"),
            std::string::npos) << text;
  EXPECT_NE(text.find("EtherMirror@2 -> ToDPDKDevice@3;"), std::string::npos)
      << text;
  EXPECT_NE(text.find("FromDPDKDevice@4 -> EtherMirror@5;"),
            std::string::npos) << text;
  EXPECT_NE(text.find("EtherMirror@5 -> ToDPDKDevice@6;"), std::string::npos)
      << text;
  EXPECT_NE(sw.router().input_for(0), nullptr);
  EXPECT_NE(sw.router().input_for(1), nullptr);
}

TEST_F(SwitchWireInstalls, SnabbCommitsOneAppPerPortAndOneLinkPerPair) {
  auto& sw = build<snabb::SnabbSwitch>(2);
  sw.wire(kBidi);
  const std::string text = sw.engine().report();
  EXPECT_NE(text.find("app0 (intel_mp.Intel82599)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("app1 (intel_mp.Intel82599)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("app0.tx -> app1.rx"), std::string::npos) << text;
  EXPECT_NE(text.find("app1.tx -> app0.rx"), std::string::npos) << text;
}

TEST_F(SwitchWireInstalls, VppPatchesOnlyTheWiredRxPorts) {
  auto& sw = build<vpp::VppSwitch>(3);
  const PortPair pairs[] = {{0, 1}};
  sw.wire(pairs);
  EXPECT_TRUE(sw.patch_node().has_patch(0));
  EXPECT_FALSE(sw.patch_node().has_patch(1));
  EXPECT_FALSE(sw.patch_node().has_patch(2));
}

TEST_F(SwitchWireInstalls, ValeDefaultWireLeavesALearningSwitch) {
  auto& sw = build<vale::ValeSwitch>(2);
  sw.wire(kBidi);
  EXPECT_EQ(sw.mac_table().entries(), 0u);
  EXPECT_EQ(sw.floods(), 0u);
}

}  // namespace
}  // namespace nfvsb::switches

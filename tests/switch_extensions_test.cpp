// Second wave of switch features: t4p4s runtime controller, VALE's mSwitch
// lookup hook, and each switch's introspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/bess/bess_switch.h"
#include "switches/fastclick/fastclick_switch.h"
#include "switches/snabb/snabb_switch.h"
#include "switches/t4p4s/t4p4s_switch.h"
#include "switches/vale/vale_switch.h"

namespace nfvsb::switches {
namespace {

pkt::PacketHandle frame(pkt::PacketPool& pool, std::uint64_t dst = 0) {
  auto p = pool.allocate();
  pkt::FrameSpec spec;
  if (dst != 0) spec.dst_mac = pkt::MacAddress::from_u64(dst);
  pkt::craft_udp_frame(*p, spec);
  return p;
}

// ---------------- t4p4s controller ------------------------------------------

TEST(T4p4sController, TableAddForwardAndDrop) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  pkt::PacketPool pool(64);
  auto cost = t4p4s::T4p4sSwitch::default_cost_model();
  cost.batch_timeout = 0;
  cost.jitter_cv = 0;
  cost.stall_prob = 0;
  t4p4s::T4p4sSwitch sw(sim, cpu, "t4", cost);
  sw.add_port(std::make_unique<ring::RingPort>("p0",
                                               ring::PortKind::kInternal, 64));
  sw.add_port(std::make_unique<ring::RingPort>("p1",
                                               ring::PortKind::kInternal, 64));
  sw.controller("table_add l2fwd forward 02:4d:00:00:00:01 => 1");
  sw.controller("table_add l2fwd _drop 02:4d:00:00:00:02");
  sw.start();
  sw.port(0).in().enqueue(frame(pool, 0x024d00000001));
  sw.port(0).in().enqueue(frame(pool, 0x024d00000002));
  sim.run();
  EXPECT_EQ(sw.port(1).out().size(), 1u);
  EXPECT_EQ(sw.stats().discards, 1u);
  sw.controller("table_clear l2fwd");
  sw.port(0).in().enqueue(frame(pool, 0x024d00000001));
  sim.run();
  EXPECT_EQ(sw.table_misses(), 1u);
  sw.port(1).out().clear();
}

TEST(T4p4sController, RejectsMalformedCommands) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  t4p4s::T4p4sSwitch sw(sim, cpu, "t4");
  EXPECT_THROW(sw.controller(""), std::invalid_argument);
  EXPECT_THROW(sw.controller("table_add other forward 02:00:00:00:00:01 => 1"),
               std::invalid_argument);
  EXPECT_THROW(sw.controller("table_add l2fwd forward nonsense => 1"),
               std::invalid_argument);
  EXPECT_THROW(sw.controller("table_add l2fwd forward 02:00:00:00:00:01 1"),
               std::invalid_argument);
  EXPECT_THROW(sw.controller("table_add l2fwd teleport 02:00:00:00:00:01"),
               std::invalid_argument);
  EXPECT_THROW(sw.controller("table_clear other"), std::invalid_argument);
  // The port must be a whole, in-range, unsigned number.
  for (const char* port : {"99999999999999999999999", "1abc", "-1"}) {
    EXPECT_THROW(
        sw.controller(std::string("table_add l2fwd forward "
                                  "02:4d:4d:4d:4d:01 => ") + port),
        std::invalid_argument)
        << port;
  }
  EXPECT_EQ(sw.l2_table().size(), 0u);
}

// ---------------- mSwitch hook ----------------------------------------------

TEST(MSwitchHook, CustomLogicOverridesLearning) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  pkt::PacketPool pool(64);
  auto cost = vale::ValeSwitch::default_cost_model();
  cost.wakeup_latency = 0;
  cost.wakeup_latency_virtual = 0;
  cost.interrupt_coalescing = 0;
  cost.jitter_cv = 0;
  vale::ValeSwitch sw(sim, cpu, "msw", cost);
  for (int i = 0; i < 3; ++i) {
    sw.add_port(std::make_unique<ring::RingPort>(
        std::string("p").append(std::to_string(i)), ring::PortKind::kNetmapHost,
        64));
  }
  // Route by UDP dst port parity instead of MACs (an mSwitch-style module).
  sw.set_lookup_fn([](const pkt::Packet& p, std::size_t) {
    const auto t = pkt::parse_five_tuple(p.bytes());
    if (!t) return std::optional<std::size_t>{};
    return std::optional<std::size_t>{1 + (t->dst_port % 2)};
  });
  sw.start();
  for (std::uint16_t port : {2000, 2001, 2002, 2003}) {
    auto p = pool.allocate();
    pkt::FrameSpec spec;
    spec.dst_port = port;
    pkt::craft_udp_frame(*p, spec);
    sw.port(0).in().enqueue(std::move(p));
  }
  sim.run();
  EXPECT_EQ(sw.port(1).out().size(), 2u);  // even ports
  EXPECT_EQ(sw.port(2).out().size(), 2u);  // odd ports
  EXPECT_EQ(sw.floods(), 0u);              // learning never consulted
  sw.port(1).out().clear();
  sw.port(2).out().clear();
}

TEST(Introspection, ClickUnparseRoundTrips) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  fastclick::FastClickSwitch sw(sim, cpu, "fc");
  // The paper's config; anonymous elements are named Class@N in order.
  sw.configure("FromDPDKDevice(0) -> EtherMirror() -> ToDPDKDevice(1);");
  const std::string text = sw.router().unparse();
  EXPECT_NE(text.find("EtherMirror@2 :: EtherMirror;"), std::string::npos);
  EXPECT_NE(text.find("FromDPDKDevice@1 -> EtherMirror@2;"),
            std::string::npos);
  EXPECT_NE(text.find("EtherMirror@2 -> ToDPDKDevice@3;"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), ';'),
            3 + 2);  // 3 declarations + 2 connections
}

TEST(Introspection, BessShowPipelineListsGates) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  bess::BessSwitch sw(sim, cpu, "b");
  sw.add_port(std::make_unique<ring::RingPort>("p0",
                                               ring::PortKind::kInternal, 8));
  sw.add_port(std::make_unique<ring::RingPort>("p1",
                                               ring::PortKind::kInternal, 8));
  sw.wire(0, 1);
  const std::string text = sw.pipeline().show();
  EXPECT_NE(text.find("in0::QueueInc"), std::string::npos);
  EXPECT_NE(text.find(":0 -> out1"), std::string::npos);
}

TEST(Introspection, SnabbReportListsAppsAndLinks) {
  snabb::AppEngine e;
  e.app(std::make_unique<snabb::Intel82599App>("nic1", 0));
  e.app(std::make_unique<snabb::Intel82599App>("nic2", 1));
  e.link("nic1.tx -> nic2.rx");
  const std::string text = e.report();
  EXPECT_NE(text.find("nic1 (intel_mp.Intel82599)"), std::string::npos);
  EXPECT_NE(text.find("nic1.tx -> nic2.rx"), std::string::npos);
}

}  // namespace
}  // namespace nfvsb::switches

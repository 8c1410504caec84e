// Second wave of switch features: t4p4s runtime controller and each
// switch's introspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "drain.h"
#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/bess/bess_switch.h"
#include "switches/fastclick/fastclick_switch.h"
#include "switches/snabb/snabb_switch.h"
#include "switches/t4p4s/t4p4s_switch.h"

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
  sw.add_port(std::make_unique<ring::Port>("p0",
                                               ring::PortKind::kInternal, 64));
  sw.add_port(std::make_unique<ring::Port>("p1",
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
  drain(sw.port(1).out());
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
  sw.add_port(std::make_unique<ring::Port>("p0",
                                               ring::PortKind::kInternal, 8));
  sw.add_port(std::make_unique<ring::Port>("p1",
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

// FastClick element graph and Click config parser.
#include <gtest/gtest.h>

#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/fastclick/elements.h"
#include "switches/fastclick/fastclick_switch.h"

namespace nfvsb::switches::fastclick {
namespace {

class FastClickTest : public ::testing::Test {
 protected:
  FastClickTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "fc", no_timeout()) {
    sw_.add_port(std::make_unique<ring::RingPort>(
        "p0", ring::PortKind::kInternal, 512));
    sw_.add_port(std::make_unique<ring::RingPort>(
        "p1", ring::PortKind::kInternal, 512));
  }

  static CostModel no_timeout() {
    auto c = FastClickSwitch::default_cost_model();
    c.batch_timeout = 0;  // keep unit tests time-exact
    c.batch_timeout_vhost = 0;
    c.jitter_cv = 0;
    return c;
  }

  void push(std::size_t port = 0) {
    auto p = pool_.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    sw_.port(port).in().enqueue(std::move(p));
  }

  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{512};
  FastClickSwitch sw_;
};

TEST_F(FastClickTest, PaperConfigForwards) {
  sw_.configure("FromDPDKDevice(0) -> ToDPDKDevice(1);");
  sw_.start();
  push(0);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
}

TEST_F(FastClickTest, EtherMirrorSwapsMacs) {
  sw_.configure("FromDPDKDevice(0) -> EtherMirror() -> ToDPDKDevice(1);");
  sw_.start();
  push(0);
  sim_.run();
  auto p = sw_.port(1).out().dequeue();
  ASSERT_TRUE(p);
  pkt::EthHeader eth(p->bytes());
  pkt::FrameSpec spec;
  EXPECT_EQ(eth.dst(), spec.src_mac);
  EXPECT_EQ(eth.src(), spec.dst_mac);
}

TEST_F(FastClickTest, NamedElementsAndChains) {
  sw_.configure(R"(
    // a named element, declared once and used in a chain
    m :: EtherMirror;
    FromDPDKDevice(0) -> m -> ToDPDKDevice(1);
  )");
  sw_.start();
  for (int i = 0; i < 5; ++i) push(0);
  sim_.run();
  Element* m = sw_.router().find("m");
  ASSERT_NE(m, nullptr);
  EXPECT_STREQ(m->class_name(), "EtherMirror");
  EXPECT_EQ(sw_.router().size(), 3u);
  EXPECT_EQ(sw_.port(1).out().size(), 5u);
  sw_.port(1).out().clear();
}

TEST_F(FastClickTest, UnboundInputPortDropsBatch) {
  sw_.configure("FromDPDKDevice(0) -> ToDPDKDevice(1);");
  sw_.start();
  push(1);  // no FromDPDKDevice(1)
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
}

TEST_F(FastClickTest, ExtraDeviceArgsAccepted) {
  // The paper passes extra args (queue counts etc.); they must parse.
  sw_.configure("FromDPDKDevice(0, N_QUEUES 1) -> ToDPDKDevice(1, BLOCKING true);");
  sw_.start();
  push(0);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
}

TEST(ClickParser, RejectsBadConfigs) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  FastClickSwitch sw(sim, cpu, "fc");
  EXPECT_THROW(sw.configure("FromDPDKDevice(0) -> NoSuchElement();"),
               std::invalid_argument);
  EXPECT_THROW(sw.configure("-> ToDPDKDevice(0);"), std::invalid_argument);
  EXPECT_THROW(sw.configure("undeclared -> ToDPDKDevice(0);"),
               std::invalid_argument);
  EXPECT_THROW(sw.configure("FromDPDKDevice(x) -> ToDPDKDevice(0);"),
               std::invalid_argument);
  EXPECT_THROW(sw.configure("m :: EtherMirror; m :: EtherMirror;"),
               std::invalid_argument);
  EXPECT_THROW(sw.configure("FromDPDKDevice(0 -> ToDPDKDevice(1);"),
               std::invalid_argument);
}

// The element library holds what the paper's configs use; a config naming
// any other Click class is refused, not run without it.
TEST(ClickParser, RejectsElementClassesItDoesNotModel) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  FastClickSwitch sw(sim, cpu, "fc");
  for (const char* config :
       {"FromDPDKDevice(0) -> Counter() -> ToDPDKDevice(1);",
        "FromDPDKDevice(0) -> DecIPTTL() -> ToDPDKDevice(1);",
        "FromDPDKDevice(0) -> Discard();", "c :: Counter;"}) {
    EXPECT_THROW(sw.configure(config), std::invalid_argument) << config;
  }
}

TEST(ClickParser, CommentsStripped) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  FastClickSwitch sw(sim, cpu, "fc");
  EXPECT_NO_THROW(sw.configure(
      "// p2p forwarding\nFromDPDKDevice(0) -> ToDPDKDevice(1); // done\n"));
  EXPECT_EQ(sw.router().size(), 2u);
}

TEST(ClickParser, AnonymousElementsGetUniqueNames) {
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  FastClickSwitch sw(sim, cpu, "fc");
  sw.configure(
      "FromDPDKDevice(0) -> EtherMirror() -> EtherMirror() -> "
      "ToDPDKDevice(1);");
  EXPECT_EQ(sw.router().size(), 4u);
  EXPECT_NE(sw.router().find("EtherMirror@2"), nullptr);
  EXPECT_NE(sw.router().find("EtherMirror@3"), nullptr);
}

TEST(ClickParser, OutputPortSyntaxRejected) {
  // Every element has one output: `e[n] ->` and `-> [n]e` are not part of
  // the grammar and are refused.
  core::Simulator sim;
  hw::CpuCore cpu(sim, "c");
  for (const char* config :
       {"m :: EtherMirror; FromDPDKDevice(0) -> m; m[0] -> ToDPDKDevice(1);",
        "m :: EtherMirror; FromDPDKDevice(0) -> [0]m;"}) {
    FastClickSwitch sw(sim, cpu, "fc");
    EXPECT_THROW(sw.configure(config), std::invalid_argument) << config;
  }
}

}  // namespace
}  // namespace nfvsb::switches::fastclick

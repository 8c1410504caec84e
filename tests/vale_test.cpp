// VALE learning switch.
#include <gtest/gtest.h>

#include "drain.h"
#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/vale/vale_switch.h"

namespace nfvsb::switches::vale {
namespace {

class ValeTest : public ::testing::Test {
 protected:
  ValeTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "vale0", quiet_cost()) {
    sw_.add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kPtnet, 512));
    sw_.add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kPtnet, 512));
    sw_.add_port(std::make_unique<ring::Port>(
        "p2", ring::PortKind::kPtnet, 512));
  }

  static CostModel quiet_cost() {
    auto c = ValeSwitch::default_cost_model();
    c.jitter_cv = 0;
    c.wakeup_latency = 0;
    c.wakeup_latency_virtual = 0;
    c.interrupt_coalescing = 0;
    return c;
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
  pkt::PacketPool pool_{512};
  ValeSwitch sw_;
};

TEST_F(ValeTest, UnknownDstFloods) {
  sw_.start();
  push(0, 0xA, 0xB);
  sim_.run();
  EXPECT_EQ(sw_.floods(), 1u);
  // Single-copy flood: the frame went to exactly one other port.
  EXPECT_EQ(sw_.port(1).out().size() + sw_.port(2).out().size(), 1u);
  drain(sw_.port(1).out());
  drain(sw_.port(2).out());
}

TEST_F(ValeTest, LearnsSourceThenUnicasts) {
  sw_.start();
  push(1, 0xB, 0xA);  // teaches that B lives on port 1
  sim_.run();
  drain(sw_.port(0).out());
  drain(sw_.port(2).out());
  push(0, 0xA, 0xB);  // now towards B: must go to port 1 only
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
  EXPECT_EQ(sw_.port(2).out().size(), 0u);
  EXPECT_EQ(sw_.mac_table().entries(), 2u);  // A and B learned
  drain(sw_.port(1).out());
}

TEST_F(ValeTest, HairpinFiltered) {
  sw_.start();
  push(0, 0xA, 0xB);  // learn A@0
  sim_.run();
  drain(sw_.port(1).out());
  drain(sw_.port(2).out());
  push(1, 0xB, 0xB);  // dst B unknown... first learn B@1
  sim_.run();
  drain(sw_.port(0).out());
  drain(sw_.port(2).out());
  // Now a frame for B arriving ON port 1 must be filtered (hairpin).
  push(1, 0xC, 0xB);
  sim_.run();
  EXPECT_EQ(sw_.port(0).out().size(), 0u);
  EXPECT_EQ(sw_.port(2).out().size(), 0u);
  EXPECT_GE(sw_.stats().discards, 1u);
}

TEST_F(ValeTest, RuntFrameDiscarded) {
  sw_.start();
  auto p = pool_.allocate();
  p->resize(6);
  sw_.port(0).in().enqueue(std::move(p));
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
}

}  // namespace
}  // namespace nfvsb::switches::vale

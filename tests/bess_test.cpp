// BESS module pipeline.
#include <gtest/gtest.h>

#include "hw/cpu_core.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "switches/bess/bess_switch.h"

namespace nfvsb::switches::bess {
namespace {

class BessTest : public ::testing::Test {
 protected:
  BessTest() : cpu_(sim_, "sut"), sw_(sim_, cpu_, "bess") {
    sw_.add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kInternal, 512));
    sw_.add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kInternal, 512));
  }

  void push(std::size_t port = 0) {
    auto p = pool_.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    sw_.port(port).in().enqueue(std::move(p));
  }

  core::Simulator sim_;
  hw::CpuCore cpu_;
  pkt::PacketPool pool_{512};
  BessSwitch sw_;
};

TEST_F(BessTest, WireForwards) {
  sw_.wire(0, 1);
  sw_.start();
  push(0);
  sim_.run();
  EXPECT_EQ(sw_.port(1).out().size(), 1u);
}

TEST_F(BessTest, UnwiredPortDrops) {
  sw_.wire(0, 1);
  sw_.start();
  push(1);
  sim_.run();
  EXPECT_EQ(sw_.stats().discards, 1u);
}

TEST(BessLimits, MaxVmsIsThree) {
  EXPECT_EQ(BessSwitch::kMaxVms, 3);
}

}  // namespace
}  // namespace nfvsb::switches::bess

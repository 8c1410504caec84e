// RSS multi-queue NICs and multi-worker p2p (the paper's future work).
#include <gtest/gtest.h>

#include "drain.h"
#include "hw/cable.h"
#include "hw/nic.h"
#include "pkt/crafting.h"
#include "pkt/headers.h"
#include "pkt/packet_pool.h"
#include "scenario/scenario.h"
#include "traffic/moongen.h"

namespace nfvsb {
namespace {

class RssTest : public ::testing::Test {
 protected:
  RssTest()
      : a_(sim_, "a", cfg()), b_(sim_, "b", cfg()), cable_(sim_, a_, b_) {}

  static hw::NicPort::Config cfg() {
    hw::NicPort::Config c;
    c.num_queues = 4;
    return c;
  }

  void send(std::uint16_t src_port) {
    auto p = pool_.allocate();
    pkt::FrameSpec spec;
    spec.src_port = src_port;
    pkt::craft_udp_frame(*p, spec);
    a_.tx_ring(0).enqueue(std::move(p));
  }

  core::Simulator sim_;
  pkt::PacketPool pool_{256};
  hw::NicPort a_;
  hw::NicPort b_;
  hw::Cable cable_;
};

TEST_F(RssTest, SingleFlowPinsToOneQueue) {
  for (int i = 0; i < 20; ++i) send(1000);
  sim_.run();
  int nonempty = 0;
  std::size_t total = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    nonempty += !b_.rx_ring(q).empty();
    total += b_.rx_ring(q).size();
    drain(b_.rx_ring(q));
  }
  EXPECT_EQ(nonempty, 1);
  EXPECT_EQ(total, 20u);
}

// A generator's frames cross the wire unbuilt: RSS reads each one's
// 5-tuple from its sequence number, and every frame lands on the queue its
// built bytes hash to.
TEST_F(RssTest, UnbuiltGeneratorFramesLandOnTheirHashQueue) {
  traffic::MoonGen::Config c;
  c.rate_pps = 1e6;
  c.num_flows = 64;
  traffic::MoonGen gen(sim_, pool_, c);
  gen.attach_tx_nic(a_);
  gen.start_tx(0, core::from_us(100));
  sim_.run();
  std::size_t total = 0;
  int nonempty = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    nonempty += !b_.rx_ring(q).empty();
    while (auto p = b_.rx_ring(q).dequeue()) {
      const auto tuple = pkt::parse_five_tuple(p->bytes());
      ASSERT_TRUE(tuple.has_value());
      EXPECT_EQ(tuple->hash() % 4, q);
      ++total;
    }
  }
  EXPECT_EQ(total, gen.tx_sent());
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(nonempty, 4);
}

TEST_F(RssTest, ManyFlowsSpreadAcrossQueues) {
  for (std::uint16_t f = 0; f < 64; ++f) send(static_cast<std::uint16_t>(1000 + f));
  sim_.run();
  int nonempty = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    nonempty += !b_.rx_ring(q).empty();
    drain(b_.rx_ring(q));
  }
  EXPECT_EQ(nonempty, 4);
}

TEST_F(RssTest, SameFlowAlwaysSameQueue) {
  send(7777);
  sim_.run();
  std::size_t first = 99;
  for (std::size_t q = 0; q < 4; ++q) {
    if (!b_.rx_ring(q).empty()) first = q;
    drain(b_.rx_ring(q));
  }
  for (int i = 0; i < 5; ++i) send(7777);
  sim_.run();
  for (std::size_t q = 0; q < 4; ++q) {
    if (q == first) {
      EXPECT_EQ(b_.rx_ring(q).size(), 5u);
    } else {
      EXPECT_TRUE(b_.rx_ring(q).empty());
    }
    drain(b_.rx_ring(q));
  }
}

TEST_F(RssTest, TxQueuesShareTheWireRoundRobin) {
  for (std::size_t q = 0; q < 4; ++q) {
    auto p = pool_.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    a_.tx_ring(q).enqueue(std::move(p));
  }
  sim_.run();
  EXPECT_EQ(a_.tx_frames(), 4u);
  std::size_t total = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    total += b_.rx_ring(q).size();
    drain(b_.rx_ring(q));
  }
  EXPECT_EQ(total, 4u);
}

// Both directions spread over the RSS queues: the reverse generator gets the
// same flow count as the forward one.
TEST(MultiWorkerP2p, MultiFlowTrafficScalesAcrossWorkers) {
  for (bool bidir : {false, true}) {
    scenario::ScenarioConfig cfg;
    cfg.kind = scenario::Kind::kP2p;
    cfg.sut = switches::SwitchType::kT4p4s;
    cfg.frame_bytes = 64;
    cfg.bidirectional = bidir;
    cfg.warmup = core::from_ms(2);
    cfg.measure = core::from_ms(6);
    cfg.num_flows = 64;
    const auto one = scenario::run_scenario(cfg);
    cfg.sut_workers = 4;
    const auto four = scenario::run_scenario(cfg);
    const auto& dir_one = bidir ? one.rev : one.fwd;
    const auto& dir_four = bidir ? four.rev : four.fwd;
    EXPECT_GT(dir_four.gbps, dir_one.gbps * 1.6) << "bidir=" << bidir;
  }
}

TEST(MultiWorkerP2p, SingleFlowCannotScale) {
  scenario::ScenarioConfig cfg;
  cfg.kind = scenario::Kind::kP2p;
  cfg.sut = switches::SwitchType::kT4p4s;
  cfg.frame_bytes = 64;
  cfg.warmup = core::from_ms(2);
  cfg.measure = core::from_ms(6);
  cfg.num_flows = 1;
  const double one = scenario::run_scenario(cfg).fwd.gbps;
  cfg.sut_workers = 4;
  const double four = scenario::run_scenario(cfg).fwd.gbps;
  EXPECT_NEAR(four, one, one * 0.15);
}

}  // namespace
}  // namespace nfvsb

// Whole-run packet conservation: every packet offered to the data plane is
// either delivered to the terminal monitor or attributed to a specific
// loss site (NIC RX overflow, SUT/VNF datapath discard, wasted work at a
// full ring). Swept over all seven switches x all four paper scenarios
// (p2p, p2v, v2v, loopback) x three frame sizes, plus a bidirectional
// probe per scenario and v2v latency mode — the simulator-level "no packet
// is created or silently lost" property.
#include <gtest/gtest.h>

#include "pkt/packet_pool.h"
#include "ring/spsc_ring.h"
#include "scenario/scenario.h"

namespace nfvsb::scenario {
namespace {

struct Combo {
  Kind kind;
  switches::SwitchType sut;
  std::uint32_t frame;
  bool bidir;
  /// Paced 1 Mpps with 40 us probes: v2v's latency mode (Table 4).
  bool latency{false};
};

class Conservation : public ::testing::TestWithParam<Combo> {};

TEST_P(Conservation, OfferedEqualsDeliveredPlusAccountedLosses) {
  ScenarioConfig cfg;
  cfg.kind = GetParam().kind;
  cfg.sut = GetParam().sut;
  cfg.frame_bytes = GetParam().frame;
  cfg.bidirectional = GetParam().bidir;
  if (GetParam().latency) {
    cfg.rate_pps = 1e6;
    cfg.probe_interval = core::from_us(40);
  }
  // A short chain still exercises the VM-hop accounting (VNF l2fwd / guest
  // VALE drops) without tripping BESS's 3-VM limit.
  if (cfg.kind == Kind::kLoopback) cfg.chain_length = 2;
  cfg.warmup = core::from_ms(1);
  cfg.measure = core::from_ms(5);
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.skipped.has_value());
  ASSERT_GT(r.offered_packets, 0u);
  // The simulation drains completely before teardown, so the books must
  // balance EXACTLY: offered = delivered + imissed + discards + wasted
  // (SUT and chained VNFs alike).
  EXPECT_EQ(r.offered_packets, r.accounted_packets())
      << "delivered=" << r.delivered_packets << " imissed=" << r.nic_imissed
      << " sut_wasted=" << r.sut_wasted_work
      << " sut_discards=" << r.sut_discards
      << " vnf_wasted=" << r.vnf_wasted_work
      << " vnf_discards=" << r.vnf_discards;
}

std::vector<Combo> combos() {
  std::vector<Combo> v;
  for (Kind k : {Kind::kP2p, Kind::kP2v, Kind::kV2v, Kind::kLoopback}) {
    for (auto s : switches::kAllSwitches) {
      for (std::uint32_t f : {64u, 256u, 1024u}) {
        v.push_back({k, s, f, false});
      }
      v.push_back({k, s, 64u, true});
    }
  }
  for (auto s : switches::kAllSwitches) {
    v.push_back({Kind::kV2v, s, 64u, false, true});
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenariosSwitchesAndSizes, Conservation, ::testing::ValuesIn(combos()),
    [](const auto& info) {
      std::string n = std::string(to_string(info.param.kind)) + "_" +
                      switches::to_string(info.param.sut) + "_" +
                      std::to_string(info.param.frame) +
                      (info.param.bidir ? "_bidir" : "_uni") +
                      (info.param.latency ? "_latency" : "");
      for (auto& c : n) if (c == '-') c = '_';
      return n;
    });

// Regression: tearing a ring down with buffered residue used to make the
// ledger books not balance — clear() freed the packets without counting
// them anywhere, so enqueued != dequeued + <any loss site>. clear() now
// counts into cleared() and the ring-local conservation identity
//   enqueued == dequeued + cleared + size()
// holds at every point of the lifecycle, residue included.
TEST(RingConservation, TeardownWithResidueIsCounted) {
  pkt::PacketPool pool(16);
  ring::SpscRing ring("residue", 8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.enqueue(pool.allocate()));
  }
  (void)ring.dequeue();
  (void)ring.dequeue();
  EXPECT_EQ(ring.enqueued(), ring.dequeued() + ring.cleared() + ring.size());
  ring.clear();  // teardown with 3 packets still buffered
  EXPECT_EQ(ring.cleared(), 3u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.enqueued(), ring.dequeued() + ring.cleared() + ring.size());
  EXPECT_EQ(pool.outstanding(), 0u);  // cleared packets went home
}

}  // namespace
}  // namespace nfvsb::scenario

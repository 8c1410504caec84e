// Whole-run packet conservation: every packet offered to the data plane is
// either delivered to the terminal monitor or attributed to a specific
// loss site (NIC RX overflow, SUT/VNF datapath discard, wasted work at a
// full ring). Swept over all seven switches x all four paper scenarios
// (p2p, p2v, v2v, loopback) x three frame sizes, plus a bidirectional
// probe per scenario and v2v latency mode — the simulator-level "no packet
// is created or silently lost" property.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

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

class Conservation : public ::testing::TestWithParam<Combo> {
 protected:
  static ScenarioConfig config() {
    ScenarioConfig cfg;
    cfg.kind = GetParam().kind;
    cfg.sut = GetParam().sut;
    cfg.frame_bytes = GetParam().frame;
    cfg.bidirectional = GetParam().bidir;
    if (GetParam().latency) {
      cfg.rate_pps = 1e6;
      cfg.probe_interval = core::from_us(40);
    }
    // A short chain still exercises the VM-hop accounting (VNF l2fwd /
    // guest VALE drops) without tripping BESS's 3-VM limit.
    if (cfg.kind == Kind::kLoopback) cfg.chain_length = 2;
    cfg.warmup = core::from_ms(1);
    cfg.measure = core::from_ms(5);
    return cfg;
  }
};

TEST_P(Conservation, OfferedEqualsDeliveredPlusAccountedLosses) {
  const ScenarioResult r = run_scenario(config());
  ASSERT_FALSE(r.skipped.has_value());
  ASSERT_GT(r.offered_packets, 0u);
  // The simulation drains completely before it accounts, so the books must
  // balance EXACTLY: offered = delivered + imissed + discards + wasted
  // (SUT and chained VNFs alike).
  EXPECT_EQ(r.offered_packets, r.accounted_packets())
      << "delivered=" << r.delivered_packets << " imissed=" << r.nic_imissed
      << " sut_wasted=" << r.sut_wasted_work
      << " sut_discards=" << r.sut_discards
      << " vnf_wasted=" << r.vnf_wasted_work
      << " vnf_discards=" << r.vnf_discards;
}

// The ledger has no term for frames left in a ring: it relies on the run's
// final drain. Pin that from the public output, which holds in builds
// without asserts too: every ring of an observed run ends with as many
// dequeues as enqueues.
TEST_P(Conservation, EveryRingDrainsBeforeAccounting) {
  ScenarioConfig cfg = config();
  cfg.observe = true;
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.skipped.has_value());
  std::map<std::string, std::uint64_t> enqueued;
  std::map<std::string, std::uint64_t> dequeued;
  for (const auto& [path, value] : r.counters) {
    if (!path.starts_with("ring/")) continue;
    const std::size_t slash = path.rfind('/');
    const std::string ring = path.substr(0, slash);
    const std::string_view leaf = std::string_view(path).substr(slash + 1);
    if (leaf == "enqueued") enqueued[ring] += value;
    if (leaf == "dequeued") dequeued[ring] += value;
  }
  ASSERT_FALSE(enqueued.empty());
  EXPECT_EQ(enqueued.size(), dequeued.size());
  std::uint64_t through = 0;
  for (const auto& [ring, n] : enqueued) {
    EXPECT_EQ(n, dequeued[ring]) << ring;
    through += n;
  }
  EXPECT_GT(through, 0u);
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

}  // namespace
}  // namespace nfvsb::scenario

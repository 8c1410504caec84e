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
#include "switches/switch_base.h"

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

std::uint64_t counter(const ScenarioResult& r, std::string_view path) {
  for (const auto& [p, v] : r.counters) {
    if (p == path) return v;
  }
  return 0;
}

// A dry packet pool is counted, not silent. Sixteen RSS queues of 4096
// descriptors on each of two SUT ports hold 131,072 frames, against 65,536
// pool buffers, so a switch slowed far below line rate lets the RX rings
// run the pool dry. A generator frame takes its buffer where it lands, so
// every frame the pacing law owes is still sent, one that finds no buffer
// is counted as imissed at the SUT's NIC, and the ledger balances. A run
// that samples queue depths sends each frame on a TX fetch of its own
// (hw/nic.h) and must count the same losses in the same fields.
TEST(Conservation, DryPoolLossesAreCountedAndTheLedgerBalances) {
  ScenarioConfig cfg;
  cfg.kind = Kind::kP2p;
  cfg.sut = switches::SwitchType::kBess;
  cfg.bidirectional = true;
  cfg.sut_workers = 16;
  cfg.nic_ring_depth = 4096;
  cfg.num_flows = 1024;  // spread the frames over every RSS queue
  cfg.warmup = core::from_us(100);
  cfg.measure = core::from_ms(5);
  cfg.observe = true;
  const ScenarioResult owed = run_scenario(cfg);
  ASSERT_FALSE(owed.skipped.has_value());
  ASSERT_EQ(counter(owed, "pool/alloc_failures"), 0u);
  ASSERT_EQ(owed.gen_pool_exhausted, 0u);

  cfg.tune_sut = [](switches::SwitchBase& sw) {
    sw.mutable_cost_model().pipeline_ns += 20'000;  // 50 kpps per worker
  };
  const ScenarioResult dry = run_scenario(cfg);
  ASSERT_FALSE(dry.skipped.has_value());
  EXPECT_GT(counter(dry, "pool/alloc_failures"), 0u);
  EXPECT_EQ(dry.offered_packets + dry.gen_tx_failures + dry.gen_pool_exhausted,
            owed.offered_packets + owed.gen_tx_failures);
  EXPECT_EQ(dry.offered_packets, dry.accounted_packets())
      << "delivered=" << dry.delivered_packets
      << " imissed=" << dry.nic_imissed << " sut_wasted=" << dry.sut_wasted_work
      << " sut_discards=" << dry.sut_discards;
  EXPECT_EQ(dry.gen_pool_exhausted, 0u);
  EXPECT_GT(dry.nic_imissed, owed.nic_imissed);

  cfg.queue_sample_period = core::from_us(50);
  const ScenarioResult sampled = run_scenario(cfg);
  ASSERT_FALSE(sampled.skipped.has_value());
  EXPECT_EQ(sampled.offered_packets, dry.offered_packets);
  EXPECT_EQ(sampled.gen_tx_failures, dry.gen_tx_failures);
  EXPECT_EQ(sampled.gen_pool_exhausted, dry.gen_pool_exhausted);
  EXPECT_EQ(sampled.nic_imissed, dry.nic_imissed);
  EXPECT_EQ(sampled.delivered_packets, dry.delivered_packets);
  EXPECT_EQ(counter(sampled, "pool/alloc_failures"),
            counter(dry, "pool/alloc_failures"));
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

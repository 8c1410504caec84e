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

#include "campaign/serialize.h"
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

/// Every result field, without the counters (a sampled run adds some).
std::string fields(ScenarioResult r) {
  r.counters.clear();
  return campaign::result_to_json(r);
}

// The scenario's pool is sized from every NIC descriptor the testbed
// configures, plus an allowance for the rings that are not NIC rings
// (scenario/detail.h), so it never runs dry, even where the rings fill.
// Points that fill them: sixteen RSS queues of 4096 descriptors on each
// of two SUT ports, with and without probes, and the config with the most
// non-NIC ring slots (bidirectional Snabb loopback through five VNFs),
// each behind a switch slowed far below line rate. The ledger balances,
// and a run that samples queue depths (one TX fetch and one arrival event
// per frame, hw/nic.h) reports every result field the same.
TEST(Conservation, DescriptorSizedPoolNeverDries) {
  ScenarioConfig p2p;
  p2p.kind = Kind::kP2p;
  p2p.sut = switches::SwitchType::kBess;
  p2p.sut_workers = 16;
  p2p.num_flows = 1024;  // spread the frames over every RSS queue
  // Probes take their buffer at emit: a dry pool would lose them at the
  // generator on one path and not the other.
  ScenarioConfig probed = p2p;
  probed.probe_interval = core::from_us(40);
  ScenarioConfig loopback;
  loopback.kind = Kind::kLoopback;
  loopback.sut = switches::SwitchType::kSnabb;
  loopback.chain_length = 5;
  for (ScenarioConfig cfg : {p2p, probed, loopback}) {
    cfg.bidirectional = true;
    cfg.nic_ring_depth = 4096;
    cfg.warmup = core::from_us(100);
    cfg.measure = core::from_ms(5);
    cfg.observe = true;
    cfg.tune_sut = [](switches::SwitchBase& sw) {
      sw.mutable_cost_model().pipeline_ns += 20'000;  // 50 kpps per worker
    };
    const std::string point = std::string(to_string(cfg.kind)) +
                              (cfg.probe_interval > 0 ? "+probes" : "");
    const ScenarioResult plain = run_scenario(cfg);
    ASSERT_FALSE(plain.skipped.has_value()) << point << ": " << *plain.skipped;
    EXPECT_GT(plain.nic_imissed, 0u) << point;  // the RX rings filled
    EXPECT_EQ(counter(plain, "pool/alloc_failures"), 0u) << point;
    EXPECT_EQ(plain.gen_pool_exhausted, 0u) << point;
    EXPECT_EQ(plain.offered_packets, plain.accounted_packets())
        << point << ": delivered=" << plain.delivered_packets
        << " imissed=" << plain.nic_imissed
        << " sut_wasted=" << plain.sut_wasted_work
        << " sut_discards=" << plain.sut_discards
        << " vnf_wasted=" << plain.vnf_wasted_work
        << " vnf_discards=" << plain.vnf_discards;

    cfg.queue_sample_period = core::from_us(50);
    const ScenarioResult sampled = run_scenario(cfg);
    ASSERT_FALSE(sampled.skipped.has_value()) << point;
    EXPECT_EQ(counter(sampled, "pool/alloc_failures"), 0u) << point;
    EXPECT_EQ(fields(sampled), fields(plain)) << point;
  }
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

// Bulk drops (hw/nic.h): while the SUT's RX rings are full, the generator
// NIC's wire source replays a whole run of fetches, whose frames those
// rings drop, in one step. Each point here runs twice, with bulk steps and
// with them refused (hw::detail::bulk_drops_refused, so every fetch is
// replayed one at a time), and the two must agree on every result field
// and on every counter. The points cover each condition the step checks:
// a single RX queue, probes among the frames, two RSS queues, a gap that
// is not a whole number of picoseconds (128 B), a rate above line rate
// whose TX ring overflows, and a VNF loopback chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "campaign/serialize.h"
#include "core/time.h"
#include "hw/nic.h"
#include "scenario/scenario.h"
#include "switches/switch_base.h"

namespace nfvsb::scenario {
namespace {

using switches::SwitchType;

ScenarioConfig bidi_t4p4s() {
  ScenarioConfig cfg;
  cfg.kind = Kind::kP2p;
  cfg.sut = SwitchType::kT4p4s;
  cfg.bidirectional = true;
  cfg.warmup = core::from_ms(1);
  cfg.measure = core::from_ms(3);
  cfg.observe = true;
  return cfg;
}

struct Point {
  const char* label;
  ScenarioConfig cfg;
  /// The unsampled run steps over a third of its drops or more; else it
  /// replays every frame offered.
  bool steps;
};

std::map<std::string, std::uint64_t> counters(const ScenarioResult& r) {
  return {r.counters.begin(), r.counters.end()};
}

/// Every result field, without the counters.
std::string fields(ScenarioResult r) {
  r.counters.clear();
  return campaign::result_to_json(r);
}

/// `cfg` run with every wire-source fetch replayed one at a time.
ScenarioResult one_fetch_per_frame(const ScenarioConfig& cfg) {
  hw::detail::bulk_drops_refused = true;
  ScenarioResult r = run_scenario(cfg);
  hw::detail::bulk_drops_refused = false;
  return r;
}

TEST(BulkDrops, SameResultsAsOneFetchPerFrame) {
  ScenarioConfig probed = bidi_t4p4s();
  probed.probe_interval = core::from_us(40);
  ScenarioConfig rss = bidi_t4p4s();
  rss.sut_workers = 2;
  rss.num_flows = 1024;
  ScenarioConfig fractional = bidi_t4p4s();
  fractional.frame_bytes = 128;  // a gap of 118399.99999999999 ps
  ScenarioConfig overflow = bidi_t4p4s();
  overflow.rate_pps = 20e6;
  overflow.tune_sut = [](switches::SwitchBase& sw) {
    sw.mutable_cost_model().pipeline_ns += 1'000;
  };
  ScenarioConfig loopback = bidi_t4p4s();
  loopback.kind = Kind::kLoopback;
  loopback.sut = SwitchType::kVpp;
  loopback.chain_length = 2;
  const Point points[] = {
      {"p2p/bidi/t4p4s", bidi_t4p4s(), true},
      {"+ probes every 40 us", probed, true},
      {"2 SUT workers, 1024 flows", rss, true},
      {"128 B", fractional, false},
      {"20 Mpps, slow SUT", overflow, false},
      {"loopback-2/bidi/VPP", loopback, true},
  };
  for (const Point& pt : points) {
    const ScenarioResult bulk = run_scenario(pt.cfg);
    ASSERT_FALSE(bulk.skipped.has_value()) << pt.label;
    EXPECT_GT(bulk.nic_imissed, 0u) << pt.label;
    const ScenarioResult each = one_fetch_per_frame(pt.cfg);
    ASSERT_FALSE(each.skipped.has_value()) << pt.label;
    EXPECT_EQ(fields(bulk), fields(each)) << pt.label;
    const auto ours = counters(bulk);
    const auto theirs = counters(each);
    ASSERT_EQ(ours.count("pool/alloc_failures"), 1u) << pt.label;
    for (const auto& [path, value] : ours) {
      if (path.rfind("sim/", 0) == 0) continue;  // the runs' own work
      const auto it = theirs.find(path);
      ASSERT_NE(it, theirs.end()) << pt.label << ": " << path;
      EXPECT_EQ(value, it->second) << pt.label << ": " << path;
    }
    EXPECT_EQ(ours.size(), theirs.size()) << pt.label;
    // The oracle fetches every frame one at a time; the bulk run steps over
    // the runs its SUT drops, where the step applies. With two RSS queues
    // it applies only while both are full, which leaves about half of
    // their drops to one fetch each.
    EXPECT_EQ(each.work.wire_steps, each.offered_packets) << pt.label;
    if (pt.steps) {
      EXPECT_LT(bulk.work.wire_steps + bulk.nic_imissed / 3,
                bulk.offered_packets)
          << pt.label;
    } else {
      EXPECT_GE(bulk.work.wire_steps, bulk.offered_packets) << pt.label;
    }
  }
}

}  // namespace
}  // namespace nfvsb::scenario

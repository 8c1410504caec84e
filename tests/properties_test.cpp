// Cross-cutting property tests: latency monotonicity in load, histogram
// quantile ordering under random inputs, meter/linkrate consistency.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.h"
#include "scenario/runner.h"
#include "stats/histogram.h"

namespace nfvsb {
namespace {

TEST(Properties, LatencyIsMonotoneInLoadForPollModeSwitches) {
  // For busy-polling switches, mean RTT must not decrease as offered load
  // rises (queueing only adds). Interrupt/batching switches are exempt —
  // the paper itself shows their 0.10 R+ exceeding 0.50 R+.
  for (auto sut : {switches::SwitchType::kBess, switches::SwitchType::kVpp,
                   switches::SwitchType::kOvsDpdk}) {
    scenario::ScenarioConfig cfg;
    cfg.kind = scenario::Kind::kP2p;
    cfg.sut = sut;
    cfg.frame_bytes = 64;
    cfg.warmup = core::from_ms(3);
    cfg.measure = core::from_ms(10);
    const auto sweep = scenario::latency_sweep(cfg, {0.1, 0.4, 0.7, 0.95});
    ASSERT_FALSE(sweep.skipped.has_value());
    for (std::size_t i = 1; i < sweep.points.size(); ++i) {
      EXPECT_GE(sweep.points[i].result.lat_avg_us,
                sweep.points[i - 1].result.lat_avg_us * 0.85)
          << switches::to_string(sut) << " load "
          << sweep.points[i].load;
    }
  }
}

TEST(Properties, ThroughputIsMonotoneInFrameSizeUntilLineRate) {
  // Gbps never decreases with frame size (per-packet costs amortize).
  for (auto sut : switches::kAllSwitches) {
    double prev = 0;
    for (std::uint32_t size : {64u, 128u, 256u, 512u, 1024u}) {
      scenario::ScenarioConfig cfg;
      cfg.kind = scenario::Kind::kP2p;
      cfg.sut = sut;
      cfg.frame_bytes = size;
      cfg.warmup = core::from_ms(2);
      cfg.measure = core::from_ms(5);
      const double gbps = scenario::run_scenario(cfg).fwd.gbps;
      EXPECT_GE(gbps, prev * 0.99) << switches::to_string(sut) << " " << size;
      prev = gbps;
    }
  }
}

class HistogramProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramProperty, QuantilesAreOrderedAndBounded) {
  core::Rng rng(GetParam());
  stats::Histogram h;
  core::SimDuration lo = std::numeric_limits<core::SimDuration>::max();
  core::SimDuration hi = 0;
  for (int i = 0; i < 5000; ++i) {
    // Heavy-tailed: mixture of us-scale and ms-scale values.
    const auto v = static_cast<core::SimDuration>(
        rng.chance(0.1) ? rng.exponential(2e9) : rng.exponential(5e6));
    h.add(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  core::SimDuration prev = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const auto val = h.quantile(q);
    EXPECT_GE(val, prev) << "q=" << q;
    EXPECT_GE(val, lo);
    EXPECT_LE(val, hi);
    prev = val;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

TEST(Properties, RPlusNeverExceedsLineRate) {
  for (auto sut : switches::kAllSwitches) {
    scenario::ScenarioConfig cfg;
    cfg.kind = scenario::Kind::kP2p;
    cfg.sut = sut;
    cfg.frame_bytes = 64;
    cfg.warmup = core::from_ms(2);
    cfg.measure = core::from_ms(5);
    const double r_plus = scenario::measure_r_plus_mpps(cfg);
    EXPECT_LE(r_plus, core::kTenGigE.line_rate_pps(64) / 1e6 * 1.001)
        << switches::to_string(sut);
  }
}

}  // namespace
}  // namespace nfvsb

// Seeded config-space fuzz: every ScenarioConfig has exactly two outcomes.
// Either validate() refuses it up front (the reason is the result's
// `skipped`, nothing is offered), or it runs to completion with the
// conservation ledger balanced. A crash, a stranded packet (pool leak
// assert in builds with asserts) or an unbalanced ledger fails the case.
//
// The configs are drawn by bench/config_draw.h with a fixed seed, and split
// over parameterized shards so `ctest -j` spreads them.
#include <gtest/gtest.h>

#include <cstdint>

#include "config_draw.h"
#include "core/rng.h"
#include "scenario/scenario.h"

namespace nfvsb::scenario {
namespace {

constexpr std::uint64_t kSeed = 0xf0220fe5;
constexpr int kShards = 32;
constexpr int kConfigsPerShard = 24;

using bench::describe;
using bench::draw;

class ConfigFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConfigFuzz, RejectedUpFrontOrRunsWithBalancedLedger) {
  core::Rng rng(kSeed + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < kConfigsPerShard; ++i) {
    const ScenarioConfig cfg = draw(rng);
    SCOPED_TRACE(describe(cfg));
    const auto reason = validate(cfg);
    const ScenarioResult r = run_scenario(cfg);
    EXPECT_EQ(r.skipped, reason);
    if (r.skipped) {
      EXPECT_FALSE(r.skipped->empty());
      EXPECT_EQ(r.offered_packets, 0u);
    } else {
      EXPECT_GT(r.offered_packets, 0u);
      EXPECT_EQ(r.accounted_packets(), r.offered_packets);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ConfigFuzz, ::testing::Range(0, kShards));

}  // namespace
}  // namespace nfvsb::scenario

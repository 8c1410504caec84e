// Seeded config-space fuzz: every ScenarioConfig has exactly two outcomes.
// Either validate() refuses it up front (the reason is the result's
// `skipped`, nothing is offered), or it runs to completion with the
// conservation ledger balanced. A crash, a stranded packet (pool leak
// assert in builds with asserts) or an unbalanced ledger fails the case.
//
// The configs are drawn from kind x switch x frame size x bidirectional x
// chain length 0..6 x reverse x rate x flows x workers x NIC ring depth x
// containers x probes x l2fwd drain, with a fixed seed, and split over
// parameterized shards so `ctest -j` spreads them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "core/rng.h"
#include "scenario/scenario.h"
#include "switches/registry.h"

namespace nfvsb::scenario {
namespace {

constexpr std::uint64_t kSeed = 0xf0220fe5;
constexpr int kShards = 32;
constexpr int kConfigsPerShard = 24;

template <typename T, std::size_t N>
T pick(core::Rng& rng, const std::array<T, N>& values) {
  return values[rng.uniform_index(N)];
}

/// The field's default three times in four, else any value from `values`:
/// mostly-default configs keep a good share of them runnable.
template <typename T, std::size_t N>
T maybe(core::Rng& rng, T fallback, const std::array<T, N>& values) {
  return rng.uniform_index(4) == 0 ? pick(rng, values) : fallback;
}

ScenarioConfig draw(core::Rng& rng) {
  ScenarioConfig cfg;
  cfg.kind = pick(rng, std::array{Kind::kP2p, Kind::kP2v, Kind::kV2v,
                                  Kind::kLoopback});
  cfg.sut = pick(rng, switches::kAllSwitches);
  cfg.frame_bytes =
      pick(rng, std::array<std::uint32_t, 6>{32, 64, 256, 1024, 1518, 2000});
  cfg.bidirectional = rng.uniform_index(2) == 1;
  cfg.chain_length = maybe(rng, 1, std::array{0, 1, 2, 3, 4, 5, 6});
  cfg.reverse = maybe(rng, false, std::array{true});
  cfg.rate_pps = maybe(rng, 0.0, std::array{1e6});
  cfg.num_flows =
      maybe(rng, std::uint32_t{1}, std::array<std::uint32_t, 1>{64});
  cfg.sut_workers = maybe(rng, 1, std::array{2, 4});
  cfg.nic_ring_depth =
      maybe(rng, std::size_t{0}, std::array<std::size_t, 2>{64, 4096});
  cfg.containers = maybe(rng, false, std::array{true});
  cfg.probe_interval = maybe(rng, core::SimDuration{0},
                             std::array{core::from_us(40)});
  cfg.l2fwd_drain = maybe(rng, core::SimDuration{0},
                          std::array{core::from_us(20)});
  cfg.warmup = core::from_us(200);
  cfg.measure = core::from_ms(1);
  return cfg;
}

std::string describe(const ScenarioConfig& c) {
  return std::string(to_string(c.kind)) + " " + switches::to_string(c.sut) +
         " frame=" + std::to_string(c.frame_bytes) +
         " bidir=" + std::to_string(c.bidirectional) +
         " chain=" + std::to_string(c.chain_length) +
         " reverse=" + std::to_string(c.reverse) +
         " rate=" + std::to_string(c.rate_pps) +
         " flows=" + std::to_string(c.num_flows) +
         " workers=" + std::to_string(c.sut_workers) +
         " ring=" + std::to_string(c.nic_ring_depth) +
         " containers=" + std::to_string(c.containers) +
         " probe_ps=" + std::to_string(c.probe_interval) +
         " drain_ps=" + std::to_string(c.l2fwd_drain);
}

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

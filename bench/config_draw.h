// Seeded random ScenarioConfigs, shared by the config-space fuzz test
// (tests/config_fuzz_test.cpp) and the observed-output sweep
// (bench/observed_sweep.cpp).
//
// A config is drawn from kind x switch x frame size x bidirectional x
// chain length 0..6 x reverse x rate x flows x workers x NIC ring depth x
// containers x probes x l2fwd drain. Most fields keep their default three
// times in four, so a good share of the configs pass validate(); the rest
// exercise its rejections. The same Rng state always draws the same config.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/rng.h"
#include "scenario/scenario.h"
#include "switches/registry.h"

namespace nfvsb::bench {

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

/// One random config, warm-up 0.2 ms and measure 1 ms.
inline scenario::ScenarioConfig draw(core::Rng& rng) {
  using scenario::Kind;
  scenario::ScenarioConfig cfg;
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

/// The drawn fields of `c`, for failure messages.
inline std::string describe(const scenario::ScenarioConfig& c) {
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

}  // namespace nfvsb::bench

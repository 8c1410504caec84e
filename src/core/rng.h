// Deterministic random-number utilities for the simulator.
//
// Wraps a xoshiro256** generator (fast, high quality, reproducible across
// platforms — unlike std::mt19937 + std::distributions whose outputs are not
// specified bit-exactly by the standard for all distributions).
#pragma once

#include <cstdint>

namespace nfvsb::core {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform integer in [0, n). Pre: n > 0.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box–Muller (deterministic given seed).
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Lognormal parameterized by its *own* mean and coefficient of variation.
  /// Convenient for service-time jitter: lognormal_mean_cv(m, 0) == m.
  double lognormal_mean_cv(double mean, double cv);

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p) { return uniform() < p; }

  /// Derive an independent child stream (for per-component RNGs).
  Rng split();

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_{false};
  double cached_normal_{0.0};
};

}  // namespace nfvsb::core

// Log-bucketed latency histogram (HdrHistogram-style, base-2 with linear
// sub-buckets). Records durations in picoseconds, answers quantile queries
// with bounded relative error.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.h"

namespace nfvsb::stats {

class Histogram {
 public:
  /// `sub_bucket_bits` linear sub-buckets per power-of-two bucket; 5 bits
  /// (32 sub-buckets) gives <= ~3% relative quantile error.
  explicit Histogram(int sub_bucket_bits = 5);

  void add(core::SimDuration value);

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Quantile in [0,1]; returns a representative value (bucket midpoint).
  /// Returns 0 when empty.
  [[nodiscard]] core::SimDuration quantile(double q) const;

  [[nodiscard]] core::SimDuration median() const { return quantile(0.5); }
  [[nodiscard]] core::SimDuration p99() const { return quantile(0.99); }
  [[nodiscard]] core::SimDuration max_value() const { return max_seen_; }
  [[nodiscard]] core::SimDuration min_value() const {
    return count_ ? min_seen_ : 0;
  }
 private:
  [[nodiscard]] std::size_t bucket_index(core::SimDuration v) const;
  [[nodiscard]] core::SimDuration bucket_midpoint(std::size_t idx) const;

  int sub_bits_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
  core::SimDuration min_seen_{0};
  core::SimDuration max_seen_{0};
};

}  // namespace nfvsb::stats

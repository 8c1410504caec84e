#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace nfvsb::stats {

Histogram::Histogram(int sub_bucket_bits) : sub_bits_(sub_bucket_bits) {
  assert(sub_bits_ >= 0 && sub_bits_ <= 10);
  // 64 power-of-two ranges, each with 2^sub_bits linear sub-buckets.
  buckets_.assign(static_cast<std::size_t>(64) << sub_bits_, 0);
}

std::size_t Histogram::bucket_index(core::SimDuration v) const {
  if (v < 0) v = 0;
  const auto u = static_cast<std::uint64_t>(v);
  // Values below 2^sub_bits land in the exact linear region.
  const int sub = sub_bits_;
  if (u < (1ULL << sub)) return static_cast<std::size_t>(u);
  const int msb = 63 - std::countl_zero(u);
  const int shift = msb - sub;
  const std::uint64_t sub_idx = (u >> shift) & ((1ULL << sub) - 1);
  const std::size_t base =
      static_cast<std::size_t>(msb - sub + 1) << sub;  // first exp region = 1
  return base + static_cast<std::size_t>(sub_idx);
}

core::SimDuration Histogram::bucket_midpoint(std::size_t idx) const {
  const int sub = sub_bits_;
  if (idx < (1ULL << sub)) return static_cast<core::SimDuration>(idx);
  const std::size_t region = (idx >> sub);  // >= 1
  const std::size_t sub_idx = idx & ((1ULL << sub) - 1);
  const int msb = static_cast<int>(region) + sub - 1;
  const std::uint64_t lo =
      (1ULL << msb) + (static_cast<std::uint64_t>(sub_idx) << (msb - sub));
  const std::uint64_t width = 1ULL << (msb - sub);
  return static_cast<core::SimDuration>(lo + width / 2);
}

void Histogram::add(core::SimDuration value) {
  const std::size_t idx = std::min(bucket_index(value), buckets_.size() - 1);
  ++buckets_[idx];
  if (count_ == 0) {
    min_seen_ = max_seen_ = value;
  } else {
    min_seen_ = std::min(min_seen_, value);
    max_seen_ = std::max(max_seen_, value);
  }
  ++count_;
}

core::SimDuration Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) {
      return std::clamp(bucket_midpoint(i), min_seen_, max_seen_);
    }
  }
  return max_seen_;
}

}  // namespace nfvsb::stats

// Collects round-trip latency samples (PTP probes / software timestamps).
// Keeps both exact streaming moments (for the paper's mean/stddev scatter,
// Fig. 1) and a histogram (for quantiles).
#pragma once

#include "core/time.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"

namespace nfvsb::stats {

class LatencyRecorder {
 public:
  void record(core::SimDuration rtt) {
    moments_.add(core::to_us(rtt));
    hist_.add(rtt);
  }

  [[nodiscard]] std::uint64_t samples() const { return moments_.count(); }
  /// All in microseconds, matching the paper's tables.
  [[nodiscard]] double mean_us() const { return moments_.mean(); }
  [[nodiscard]] double stddev_us() const { return moments_.stddev(); }
  [[nodiscard]] double min_us() const {
    return samples() ? moments_.min() : 0.0;
  }
  [[nodiscard]] double max_us() const {
    return samples() ? moments_.max() : 0.0;
  }
  [[nodiscard]] double median_us() const {
    return core::to_us(hist_.median());
  }
  [[nodiscard]] double p99_us() const { return core::to_us(hist_.p99()); }

 private:
  RunningStats moments_;
  Histogram hist_;
};

}  // namespace nfvsb::stats

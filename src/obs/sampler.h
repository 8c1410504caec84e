// Queue-depth sampler: a simulation event, re-posted every period, that
// snapshots the occupancy of every queue registered with the Registry into
// per-queue histograms — the "where do packets actually sit" view the
// end-to-end numbers cannot give (EMC ring vs vring vs NIC descriptor ring).
//
// Sampling is an observer only: the probe callbacks read ring sizes and
// never touch the data path, so a sampled run produces bit-identical
// measurement results to an unsampled one (asserted by tests/obs_test.cpp).
// Before each round of reads the sampler runs the registry's sync hooks,
// which bring their rings up to date with a lazy producer (a pulled
// generator, ring/tx_source.h; a NIC's wire source, which feeds the peer's
// RX rings and its own TX ring), so every depth read sees the ring as if
// each frame had been enqueued when it arrived and dequeued when it was
// taken. A frame due at the sampling instant itself
// counts as in when its order key comes before the sampling event's, by
// the one tie rule every reader follows.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "obs/registry.h"
#include "stats/histogram.h"

namespace nfvsb::obs {

class QueueSampler {
 public:
  /// Samples every `period` starting at t=period, self-stopping after
  /// `stop_at` (so a draining simulator terminates).
  QueueSampler(core::Simulator& sim, const Registry& reg,
               core::SimDuration period, core::SimTime stop_at);

  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  [[nodiscard]] const std::map<std::string, stats::Histogram>& histograms()
      const {
    return hists_;
  }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

  /// Append per-queue depth summaries ("<path>/depth_{samples,p99,max}") to
  /// a counter list (scenario results reuse the counters section).
  void append_summary(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const;

 private:
  /// One sampling instant: sample and post the next, or stop past stop_at_.
  void tick();
  void sample();

  core::Simulator& sim_;
  const Registry& reg_;
  core::SimDuration period_;
  core::SimTime stop_at_;
  std::uint64_t samples_{0};
  std::map<std::string, stats::Histogram> hists_;
};

}  // namespace nfvsb::obs

// Parallel campaign execution.
//
// CampaignRunner fans a Campaign's points out across a pool of worker
// threads. Each point runs a fully isolated core::Simulator seeded with
// derive_seed(campaign seed, point index), so the result of every point is
// a pure function of the campaign — bit-identical whether the grid runs on
// 1 thread or 64, in whatever order the workers happen to claim points.
// Every point is run on every call; nothing is cached between runs, so a
// result always reflects the model that was just built. A point that
// throws is recorded as skipped ("error: <what>") and the rest of the grid
// still runs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.h"
#include "scenario/scenario.h"

namespace nfvsb::campaign {

struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads{0};
  /// Print per-point progress lines to stderr.
  bool verbose{false};
};

struct PointResult {
  std::string label;
  std::size_t index{0};
  /// The exact config the point ran with (seed already derived).
  scenario::ScenarioConfig cfg;
  scenario::ScenarioResult result;
};

/// Indexable view over a finished campaign, for formatters.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<PointResult> results);

  [[nodiscard]] const std::vector<PointResult>& all() const {
    return results_;
  }
  [[nodiscard]] std::size_t size() const { return results_.size(); }

  /// Result for a label; throws std::out_of_range on unknown labels.
  [[nodiscard]] const scenario::ScenarioResult& at(
      const std::string& label) const;
  [[nodiscard]] bool contains(const std::string& label) const {
    return by_label_.count(label) > 0;
  }

 private:
  std::vector<PointResult> results_;
  std::unordered_map<std::string, std::size_t> by_label_;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions opts = {});

  /// Run every point; results come back in point-index order
  /// regardless of which worker finished when.
  ResultSet run(const Campaign& campaign);

  [[nodiscard]] int threads() const { return threads_; }

 private:
  int threads_;
  bool verbose_;
};

/// Serialize a finished campaign (labels + configs + results) as a JSON
/// array to `path`, creating parent directories. Returns false on I/O
/// failure. This is the machine-readable form of a figure's data.
bool write_results_json(const std::string& path, const Campaign& campaign,
                        const ResultSet& results);

}  // namespace nfvsb::campaign

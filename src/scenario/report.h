// Plain-text table rendering for the bench harness, shaped like the
// paper's figures/tables (one row per switch, one column per condition),
// plus the aggregation helpers the campaign formatters use to turn
// ScenarioResults into figure cells.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace nfvsb::scenario {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Render with aligned columns (first column left, rest right).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "%.2f"-style helper.
std::string fmt(double v, int decimals = 2);

// ---- aggregation helpers for campaign formatters ------------------------

/// Throughput cell of a figure panel: aggregate of both directions for
/// bidirectional panels, forward direction otherwise.
double panel_gbps(const ScenarioResult& r, bool bidirectional);
double panel_mpps(const ScenarioResult& r, bool bidirectional);

}  // namespace nfvsb::scenario

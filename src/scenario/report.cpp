#include "scenario/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace nfvsb::scenario {

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

double panel_gbps(const ScenarioResult& r, bool bidirectional) {
  return bidirectional ? r.gbps_total() : r.fwd.gbps;
}

double panel_mpps(const ScenarioResult& r, bool bidirectional) {
  return bidirectional ? r.mpps_total() : r.fwd.mpps;
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string cell = c < row.size() ? row[c] : "";
      if (c == 0) {
        out << cell << std::string(widths[c] - cell.size(), ' ');
      } else {
        out << "  " << std::string(widths[c] - cell.size(), ' ') << cell;
      }
    }
    out << "\n";
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

}  // namespace nfvsb::scenario

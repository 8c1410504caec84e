// Shared helpers for the figure/table benches.
//
// Every bench binary is now a campaign declaration plus a formatter: it
// builds a campaign::Campaign describing its grid of scenario points, fans
// it out over the CampaignRunner's worker threads, saves the raw results
// as JSON, and renders the same text tables as before from the ResultSet.
//
// Environment knobs (shared by all binaries):
//   NFVSB_THREADS      worker threads (default: hardware concurrency)
//   NFVSB_SEED         campaign seed (default 0x5eed); per-point seeds are
//                      derived as splitmix(seed, point index)
//   NFVSB_RESULTS_DIR  where <campaign>.json files land
//                      (default "campaign-results")
//   NFVSB_VERBOSE      non-empty: per-point progress on stderr
//
// Every run recomputes every point. At the default seed the JSON a paper
// binary writes must match its golden in goldens/ byte for byte; re-record
// the goldens with NFVSB_RESULTS_DIR=goldens after an intended model
// change (EXPERIMENTS.md, "Goldens").
#pragma once

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/runner.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace nfvsb::bench {

inline constexpr std::array<std::uint32_t, 3> kPaperFrameSizes = {64, 256,
                                                                  1024};

inline std::string results_dir() {
  const char* d = std::getenv("NFVSB_RESULTS_DIR");
  return (d && *d) ? d : "campaign-results";
}

inline std::uint64_t campaign_seed() {
  if (const char* s = std::getenv("NFVSB_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return campaign::kDefaultSeed;
}

inline campaign::RunnerOptions runner_options() {
  campaign::RunnerOptions o;
  if (const char* t = std::getenv("NFVSB_THREADS")) o.threads = std::atoi(t);
  const char* v = std::getenv("NFVSB_VERBOSE");
  o.verbose = v && *v;
  return o;
}

/// Prefix of the stderr line that reports a campaign's simulator work
/// (bench/repro collects these lines).
inline constexpr const char* kWorkLinePrefix = "work ";

/// Run `c` with the environment-configured runner and persist the raw
/// results to <results dir>/<campaign name>.json. The campaign's total
/// simulator work (ScenarioResult::Work) goes to stderr as one line,
/// "work <campaign> <wheel events> <lane firings> <frames built>", outside
/// the JSON.
inline campaign::ResultSet run_and_save(const campaign::Campaign& c) {
  campaign::CampaignRunner runner(runner_options());
  campaign::ResultSet rs = runner.run(c);
  const std::string path = results_dir() + "/" + c.name() + ".json";
  if (!campaign::write_results_json(path, c, rs)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  scenario::ScenarioResult::Work w;
  for (const campaign::PointResult& p : rs.all()) w += p.result.work;
  std::fprintf(stderr, "%s%s %llu %llu %llu\n", kWorkLinePrefix,
               c.name().c_str(),
               static_cast<unsigned long long>(w.wheel_events),
               static_cast<unsigned long long>(w.lane_fired),
               static_cast<unsigned long long>(w.frames_built));
  return rs;
}

// ---- the Fig. 4/5/6-style throughput panel -------------------------------

/// One panel of Fig. 4: rows = switches, columns = frame sizes.
struct ThroughputPanel {
  const char* title;
  scenario::Kind kind;
  bool bidirectional;
  int chain_length{1};
};

inline std::string panel_label(const ThroughputPanel& p,
                               switches::SwitchType sw, std::uint32_t frame) {
  return std::string(scenario::to_string(p.kind)) +
         (p.bidirectional ? "/bidi/" : "/uni/") + switches::to_string(sw) +
         "/" + std::to_string(frame) + "B";
}

/// Declare the panel's switch x frame grid as campaign points.
inline void add_throughput_panel(campaign::Campaign& c,
                                 const ThroughputPanel& p) {
  for (auto sw : switches::kAllSwitches) {
    for (auto size : kPaperFrameSizes) {
      scenario::ScenarioConfig cfg;
      cfg.kind = p.kind;
      cfg.sut = sw;
      cfg.frame_bytes = size;
      cfg.bidirectional = p.bidirectional;
      cfg.chain_length = p.chain_length;
      c.add(panel_label(p, sw, size), cfg);
    }
  }
}

/// Render the panel from the finished campaign.
inline void print_throughput_panel(const campaign::ResultSet& rs,
                                   const ThroughputPanel& p) {
  std::printf("-- %s --\n", p.title);
  scenario::TextTable table({"Switch", "64B Gbps", "256B Gbps", "1024B Gbps",
                             "64B Mpps", "wasted", "imissed"});
  for (auto sw : switches::kAllSwitches) {
    std::vector<std::string> row{switches::to_string(sw)};
    double mpps64 = 0;
    std::uint64_t wasted = 0, imissed = 0;
    bool skipped = false;
    for (auto size : kPaperFrameSizes) {
      const auto& r = rs.at(panel_label(p, sw, size));
      if (r.skipped) {
        skipped = true;
        row.push_back("-");
        continue;
      }
      row.push_back(scenario::fmt(scenario::panel_gbps(r, p.bidirectional)));
      if (size == 64) {
        mpps64 = scenario::panel_mpps(r, p.bidirectional);
        wasted = r.sut_wasted_work;
        imissed = r.nic_imissed;
      }
    }
    row.push_back(skipped ? "-" : scenario::fmt(mpps64));
    row.push_back(std::to_string(wasted));
    row.push_back(std::to_string(imissed));
    table.add_row(std::move(row));
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts("");
}

}  // namespace nfvsb::bench

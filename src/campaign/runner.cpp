#include "campaign/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/seed.h"
#include "campaign/serialize.h"

namespace nfvsb::campaign {

ResultSet::ResultSet(std::vector<PointResult> results)
    : results_(std::move(results)) {
  for (std::size_t i = 0; i < results_.size(); ++i) {
    by_label_.emplace(results_[i].label, i);
  }
}

const scenario::ScenarioResult& ResultSet::at(const std::string& label) const {
  auto it = by_label_.find(label);
  if (it == by_label_.end()) {
    throw std::out_of_range("no campaign point labelled '" + label + "'");
  }
  return results_[it->second].result;
}

CampaignRunner::CampaignRunner(RunnerOptions opts)
    : threads_(opts.threads), verbose_(opts.verbose) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

ResultSet CampaignRunner::run(const Campaign& campaign) {
  const std::size_t n = campaign.size();
  std::vector<PointResult> results(n);

  // Each slot is written exactly once, by whichever worker claims its
  // index; claiming order never affects content because every point's
  // simulator is seeded from (campaign seed, index) alone.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      const Point& p = campaign.point(i);
      PointResult& out = results[i];
      out.label = p.label;
      out.index = i;
      out.cfg = p.cfg;
      out.cfg.seed = derive_seed(campaign.seed(), i);
      // A throwing point must not take the whole grid (and its worker
      // thread) down with it: record the error where a skip reason goes.
      try {
        out.result = scenario::run_scenario(out.cfg);
      } catch (const std::exception& e) {
        out.result.skipped = std::string("error: ") + e.what();
      }
      if (verbose_) {
        std::fprintf(stderr, "[%s] %zu/%zu %s\n", campaign.name().c_str(),
                     i + 1, n, p.label.c_str());
      }
    }
  };

  const int pool = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n ? n : 1));
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(pool));
    for (int t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  return ResultSet(std::move(results));
}

bool write_results_json(const std::string& path, const Campaign& campaign,
                        const ResultSet& results) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"campaign\":\"" << campaign.name()
      << "\",\"seed\":" << campaign.seed() << ",\"points\":[\n";
  const auto& all = results.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const PointResult& r = all[i];
    out << "  {\"label\":\"" << r.label << "\",\"index\":" << r.index
        << ",\"config\":" << config_to_json(r.cfg)
        << ",\"result\":" << result_to_json(r.result) << "}"
        << (i + 1 < all.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace nfvsb::campaign

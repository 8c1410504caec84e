// perfbench: the simulator's benchmark driver.
//
//   perfbench --workload <p2p_sat|virt_chain|latency_paced> --seed <n>
//             --seconds <s> --trace <0|1> --digests <dir>
//   perfbench --workload <name> --digests <dir> --record-digests
//
// Untraced run (--trace 0): one warm-up pass on the reference seed, whose
// per-point digests must match <dir>/<workload>.txt, then timed passes on
// the given seed until --seconds have elapsed (at least kMinPasses). In a
// timed pass each point is followed by its set-up run (see run_pass). Host
// times come from the calibrated stopwatch (stopwatch.cpp) and are
// per-point medians over the timed passes (see run_untraced).
//
// Traced run (--trace 1): the per-layer harnesses (layers.cpp), then pairs
// of unobserved and observed passes on the given seed until --seconds have
// elapsed. Observed passes must reproduce the unobserved digests; the
// first one's counters give the per-layer ratios.
//
// Every point of every pass is checked: it fails if it throws, is skipped,
// strands pool buffers, or breaks the conservation ledger. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "campaign/seed.h"
#include "core/time.h"

namespace perfbench {
namespace {

using nfvsb::scenario::ScenarioConfig;
using nfvsb::scenario::ScenarioResult;

/// The seed the committed digests were recorded on (the paper campaigns'
/// default seed).
constexpr std::uint64_t kReferenceSeed = 0x5eed;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string digests_dir;
  bool record{false};
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record-digests") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 0);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (k == "--digests") {
      a.digests_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.digests_dir.empty();
}

/// Tally of checked run_scenario calls.
struct Checks {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
};

/// Run one point and check it. `full` points must also offer traffic (a
/// set-up run's 1 us window may legitimately offer none).
bool run_point(const std::string& label, const ScenarioConfig& cfg, bool full,
               Checks& checks, ScenarioResult& r) {
  ++checks.attempted;
  const std::uint64_t leaked0 = leaked_pool_buffers();
  std::string why;
  try {
    r = nfvsb::scenario::run_scenario(cfg);
    const std::uint64_t leaked = leaked_pool_buffers() - leaked0;
    if (r.skipped) {
      why = "skipped: " + *r.skipped;
    } else if (leaked != 0) {
      why = std::to_string(leaked) + " pool buffers stranded";
    } else if (r.accounted_packets() != r.offered_packets) {
      why = "ledger: accounted " + std::to_string(r.accounted_packets()) +
            " != offered " + std::to_string(r.offered_packets);
    } else if (full && r.offered_packets == 0) {
      why = "no traffic offered";
    }
  } catch (const std::exception& e) {
    why = std::string("threw: ") + e.what();
  }
  if (why.empty()) return true;
  ++checks.failed;
  std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), why.c_str());
  return false;
}

struct Pass {
  double total_s{0};                // calibrated seconds, all points
  std::vector<double> point_s;      // calibrated seconds per point
  std::vector<double> point_cpu_s;  // CPU seconds per point, as measured
  std::vector<double> setup_s;      // calibrated seconds per set-up run
  std::uint64_t offered{0};
  std::uint64_t allocs{0};
  std::vector<std::uint64_t> digests;
  /// Paper Fig. 4a error over the anchored points, Gbps (0 if none).
  double paper_err_gbps{0};
  std::vector<ScenarioResult> results;  // kept only when asked for
};

/// One pass over the workload's points. With `with_setup`, each point is
/// followed by its set-up run: the same config with zero warm-up and a
/// 1 us window, i.e. build plus teardown.
Pass run_pass(const Workload& w, std::uint64_t seed, bool observe,
              bool keep_results, bool with_setup, Checks& checks) {
  Pass p;
  double err_sum = 0;
  int err_n = 0;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const Point& pt = w.points[i];
    ScenarioConfig cfg = pt.cfg;
    cfg.seed = nfvsb::campaign::derive_seed(seed, i);
    cfg.observe = observe;
    ScenarioResult r;
    const std::uint64_t allocs0 = heap_allocs();
    stopwatch_start();
    run_point(pt.label, cfg, true, checks, r);
    const Span span = stopwatch_stop();
    p.point_s.push_back(span.calibrated_s);
    p.point_cpu_s.push_back(span.cpu_s);
    p.allocs += heap_allocs() - allocs0;
    p.offered += r.offered_packets;
    p.digests.push_back(digest(r));
    if (pt.paper_gbps > 0) {
      err_sum += std::abs(r.fwd.gbps - pt.paper_gbps);
      ++err_n;
    }
    if (keep_results) p.results.push_back(std::move(r));

    if (with_setup) {
      cfg.warmup = 0;
      cfg.measure = nfvsb::core::from_us(1);
      ScenarioResult setup;
      stopwatch_start();
      run_point(pt.label + " (set-up)", cfg, false, checks, setup);
      p.setup_s.push_back(stopwatch_stop().calibrated_s);
    }
  }
  for (double t : p.point_s) p.total_s += t;
  if (err_n > 0) p.paper_err_gbps = err_sum / err_n;
  return p;
}

std::size_t count_changed(const std::vector<std::uint64_t>& a,
                          const std::vector<std::uint64_t>& b) {
  std::size_t n = a.size() > b.size() ? a.size() - b.size()
                                      : b.size() - a.size();
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) ++n;
  }
  return n;
}

void print_result(bool correct, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", checks.attempted, checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Sum of counter values whose path starts with `prefix` and ends with
/// `suffix`, over every point's snapshot.
std::uint64_t sum_counters(const std::vector<ScenarioResult>& rs,
                           const std::string& prefix,
                           const std::string& suffix,
                           bool (*keep)(const std::string&) = nullptr) {
  std::uint64_t n = 0;
  for (const ScenarioResult& r : rs) {
    for (const auto& [path, value] : r.counters) {
      if (path.starts_with(prefix) && path.ends_with(suffix) &&
          (keep == nullptr || keep(path))) {
        n += value;
      }
    }
  }
  return n;
}

/// NIC RX descriptor rings ("ring/nic<node>.<port>.rx<q>/...").
bool is_nic_rx_ring(const std::string& path) {
  return path.find(".rx") != std::string::npos;
}

/// SUT switch instances; guest VNFs are named "vm<i>:...".
bool is_sut_switch(const std::string& path) {
  return path.find(':') == std::string::npos;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

int run_untraced(const Args& a, const Workload& w) {
  Checks checks;
  const std::string ref_path = a.digests_dir + "/" + w.name + ".txt";
  const std::vector<std::uint64_t> ref = load_digests(ref_path);
  if (ref.size() != w.points.size()) {
    std::fprintf(stderr, "perfbench: %s has %zu digests, workload has %zu "
                 "points\n", ref_path.c_str(), ref.size(), w.points.size());
    return 2;
  }

  // Warm-up pass on the reference seed: fills caches and lazy set-up, and
  // catches any change to what the simulation computes.
  const Pass warm = run_pass(w, kReferenceSeed, false, false, false, checks);
  const std::size_t changed = count_changed(warm.digests, ref);
  std::fprintf(stderr, "warm-up pass: %.3f s, changed_points %zu\n",
               warm.total_s, changed);

  std::vector<Pass> passes;
  const double t0 = now_s();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         now_s() - t0 < a.seconds) {
    passes.push_back(run_pass(w, a.seed, false, false, true, checks));
    const Pass& p = passes.back();
    double cpu = 0;
    double setup = 0;
    for (double t : p.point_cpu_s) cpu += t;
    for (double t : p.setup_s) setup += t;
    std::fprintf(stderr, "pass %zu: %.3f s calibrated, %.3f s CPU, set-up "
                 "%.3f s\n", passes.size(), p.total_s, cpu, setup);
  }

  // Same seed, same inputs: every timed pass must compute the same results
  // and make exactly the same number of heap allocations.
  bool repeatable = true;
  for (const Pass& p : passes) {
    if (p.digests != passes.front().digests ||
        p.allocs != passes.front().allocs) {
      repeatable = false;
    }
  }

  // Each point's host time, and its set-up time, is its median over the
  // passes. pass_s sums the point medians; sim_pps divides the offered
  // packets by that sum less the sum of set-up medians.
  double pass_s = 0;
  double cpu_s = 0;
  double setup_total = 0;
  std::vector<double> setup_per_point;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    std::vector<double> t, cpu, setup;
    for (const Pass& p : passes) {
      t.push_back(p.point_s[i]);
      cpu.push_back(p.point_cpu_s[i]);
      setup.push_back(p.setup_s[i]);
    }
    pass_s += median(t);
    cpu_s += median(cpu);
    setup_total += median(setup);
    setup_per_point.push_back(median(setup));
  }

  const Pass& first = passes.front();
  const std::vector<Metric> metrics = {
      {"pass_s", pass_s, "s"},
      {"sim_pps", static_cast<double>(first.offered) / (pass_s - setup_total),
       "pkt/s"},
      {"setup_s", median(setup_per_point), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"allocs_per_pkt", ratio(first.allocs, first.offered), "count"},
  };

  std::printf("perfbench %s: seed %" PRIu64 ", %zu points, %zu timed passes, "
              "%.2f M offered packets per pass\n",
              w.name.c_str(), a.seed, w.points.size(), passes.size(),
              static_cast<double>(first.offered) / 1e6);
  if (first.paper_err_gbps > 0) {
    std::printf("  %-34s %.6g Gbps (Fig. 4a, 64 B uni)\n", "paper_err_gbps",
                first.paper_err_gbps);
  }
  std::printf("  %-34s %zu of %zu (reference seed %#" PRIx64 ")\n",
              "changed_points", changed, w.points.size(), kReferenceSeed);
  std::printf("  %-34s %" PRIu64 " of %" PRIu64 " (%.4f)\n", "failed_points",
              checks.failed, checks.attempted,
              ratio(checks.failed, checks.attempted));
  std::printf("  %-34s %.6g s (CPU time as measured, not calibrated)\n",
              "pass_cpu_s", cpu_s);
  std::printf("  %-34s %s\n", "repeatable", repeatable ? "yes" : "NO");
  print_result(checks.failed == 0 && changed == 0 && repeatable, checks,
               metrics);
  return 0;
}

int run_traced(const Args& a, const Workload& w) {
  Checks checks;
  std::vector<Metric> metrics;
  bool exact_ok = true;
  run_layers(metrics, exact_ok);

  // Unobserved and observed passes in pairs until --seconds have elapsed.
  // The observe counters must be measurement-neutral: each observed pass
  // reproduces the unobserved digests. Overhead is the median pair
  // difference.
  std::size_t differ = 0;
  std::vector<double> overhead;
  std::vector<ScenarioResult> rs;
  std::uint64_t offered = 0;
  const double t0 = now_s();
  do {
    const Pass plain = run_pass(w, a.seed, false, false, false, checks);
    Pass observed = run_pass(w, a.seed, true, rs.empty(), false, checks);
    differ += count_changed(plain.digests, observed.digests);
    overhead.push_back(observed.total_s - plain.total_s);
    std::fprintf(stderr, "pair %zu: %.3f s unobserved, %.3f s observed\n",
                 overhead.size(), plain.total_s, observed.total_s);
    if (rs.empty()) {
      rs = std::move(observed.results);
      offered = observed.offered;
    }
  } while (now_s() - t0 < a.seconds);

  const std::uint64_t sut_rx = sum_counters(rs, "switch/", "/rx_packets",
                                            is_sut_switch);
  metrics.push_back({"ring.ops_per_pkt",
                     ratio(sum_counters(rs, "ring/", "/enqueued"), offered),
                     "count"});
  metrics.push_back(
      {"hw.imissed_ratio",
       ratio(sum_counters(rs, "ring/nic", "/drops", is_nic_rx_ring), offered),
       "ratio"});
  metrics.push_back(
      {"switches.pkts_per_round",
       ratio(sut_rx, sum_counters(rs, "switch/", "/rounds", is_sut_switch)),
       "count"});
  metrics.push_back(
      {"switches.wasted_ratio",
       ratio(sum_counters(rs, "switch/", "/tx_drops", is_sut_switch), sut_rx),
       "ratio"});
  metrics.push_back({"trace.overhead_s", median(overhead), "s"});

  std::printf("perfbench %s (traced): seed %" PRIu64 ", %zu points, %zu "
              "pass pairs\n",
              w.name.c_str(), a.seed, w.points.size(), overhead.size());
  std::printf("  %-34s %zu of %zu\n", "observed_digests_differ", differ,
              w.points.size() * overhead.size());
  std::printf("  %-34s %s\n", "exact_counts_repeat", exact_ok ? "yes" : "NO");
  print_result(checks.failed == 0 && differ == 0 && exact_ok, checks, metrics);
  return 0;
}

int record(const Args& a, const Workload& w) {
  Checks checks;
  const Pass p = run_pass(w, kReferenceSeed, false, false, false, checks);
  if (checks.failed != 0) {
    std::fprintf(stderr, "perfbench: not recording, %" PRIu64 " points "
                 "failed\n", checks.failed);
    return 1;
  }
  const std::string path = a.digests_dir + "/" + w.name + ".txt";
  if (!save_digests(path, p.digests)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("recorded %zu digests to %s\n", p.digests.size(), path.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --digests <dir> "
                 "[--seed n] [--seconds s] [--trace 0|1] [--record-digests]\n");
    return 2;
  }
  const Workload w = make_workload(a.workload);
  if (w.points.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  if (a.record) return record(a, w);
  return a.trace ? run_traced(a, w) : run_untraced(a, w);
}

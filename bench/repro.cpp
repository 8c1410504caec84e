// Full reproduction: run the eight paper benches, which write the ten paper
// campaigns (fig1 and table3 write two each), and the observed sweep
// (bench/observed_sweep.cpp) into one directory, and print each bench's
// wall time and CPU time (user + system, from getrusage of the finished
// bench process) and the totals. CPU time varies less than wall time on a
// shared host.
//
//   build/bench/repro [out-dir]
//
// out-dir defaults to $NFVSB_RESULTS_DIR, else campaign-results.
// NFVSB_THREADS and NFVSB_SEED pass through to every bench. The figures'
// text goes to /dev/null; the JSON in out-dir is what to compare:
// `diff -r goldens <out-dir>` at the default seed. Exits non-zero if any
// bench fails.
//
// It also prints what each campaign, and all ten, cost the simulator:
// timing-wheel events, lane firings (NIC TX fetches), frames built, ring
// operations and wire steps (NIC wire-source fetches replayed one at a
// time; ScenarioResult::Work). The benches report these on
// stderr, outside the campaign JSON; unlike wall time they are exact, so
// two builds can be compared on them directly. The same table goes to
// out-dir/work.txt, and goldens/work.txt is the committed copy, so
// `diff -r` also fails when any campaign's work moves.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <sys/resource.h>

#include "bench_util.h"

namespace {

// Times whole bench processes; never feeds simulated results.
// nfvsb-lint: allow(wall-clock)
using Clock = std::chrono::steady_clock;

using nfvsb::bench::kWorkLinePrefix;
using Work = nfvsb::scenario::ScenarioResult::Work;

std::string format_work(const char* campaign, const Work& w) {
  char buf[224];
  std::snprintf(buf, sizeof buf, "%-22.60s %15" PRIu64 " %15" PRIu64
                " %15" PRIu64 " %15" PRIu64 " %15" PRIu64 "\n", campaign,
                w.wheel_events, w.lane_fired, w.frames_built, w.ring_ops,
                w.wire_steps);
  return buf;
}

constexpr const char* kBenches[] = {
    "fig1_scatter",      "fig4a_p2p",           "fig4b_p2v",
    "fig4c_v2v",         "fig5_loopback_uni",   "fig6_loopback_bidir",
    "table3_latency",    "table4_v2v_latency",  "observed_sweep",
};

/// User + system CPU seconds of every finished child process so far.
double children_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_CHILDREN, &u);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(u.ru_utime) + s(u.ru_stime);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out =
      argc > 1 ? argv[1] : nfvsb::bench::results_dir();
  if (setenv("NFVSB_RESULTS_DIR", out.c_str(), 1) != 0) {
    std::perror("setenv");
    return 1;
  }
  const std::filesystem::path dir =
      std::filesystem::path(argv[0]).parent_path();
  const char* threads = std::getenv("NFVSB_THREADS");
  std::printf("== repro: ten paper campaigns and the observed sweep into %s "
              "(%s threads) ==\n",
              out.c_str(), threads != nullptr ? threads : "default");
  std::printf("%-22s %9s %9s\n", "bench", "wall", "cpu");
  int failed = 0;
  double total_s = 0;
  double total_cpu_s = 0;
  Work total;
  std::string work_lines;
  char line[512];
  for (const char* bench : kBenches) {
    // The bench's stderr comes through the pipe, its stdout is dropped.
    std::string cmd = "\"";
    cmd += (dir / bench).string();
    cmd += "\" 2>&1 > /dev/null";
    const double cpu0 = children_cpu_s();
    const auto t0 = Clock::now();
    std::FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      std::perror("popen");
      return 1;
    }
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
      char campaign[128];
      Work w;
      if (std::strncmp(line, kWorkLinePrefix, std::strlen(kWorkLinePrefix)) ==
              0 &&
          std::sscanf(line + std::strlen(kWorkLinePrefix),
                      "%127s %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                      " %" SCNu64,
                      campaign, &w.wheel_events, &w.lane_fired,
                      &w.frames_built, &w.ring_ops, &w.wire_steps) == 6) {
        total += w;
        work_lines += format_work(campaign, w);
      } else {
        std::fputs(line, stderr);
      }
    }
    const int rc = pclose(pipe);
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double cpu = children_cpu_s() - cpu0;
    total_s += s;
    total_cpu_s += cpu;
    std::printf("%-22s %7.2f s %7.2f s%s\n", bench, s, cpu,
                rc == 0 ? "" : "  FAILED");
    if (rc != 0) ++failed;
    std::fflush(stdout);
  }
  std::printf("%-22s %7.2f s %7.2f s\n", "total", total_s, total_cpu_s);
  char header[192];
  std::snprintf(header, sizeof header, "%-22s %15s %15s %15s %15s %15s\n",
                "simulator work", "wheel events", "lane firings",
                "frames built", "ring ops", "wire steps");
  std::string table = header;
  table += work_lines;
  table += format_work("total", total);
  std::printf("\n%s", table.c_str());
  const std::string work_path = std::filesystem::path(out) / "work.txt";
  std::FILE* f = std::fopen(work_path.c_str(), "w");
  if (f == nullptr) {
    std::perror(work_path.c_str());
    return 1;
  }
  std::fputs(table.c_str(), f);
  std::fclose(f);
  return failed == 0 ? 0 : 1;
}

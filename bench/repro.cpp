// Full reproduction: run the eight paper benches, which write the ten paper
// campaigns (fig1 and table3 write two each), into one directory, and print
// each bench's wall time and the total.
//
//   build/bench/repro [out-dir]
//
// out-dir defaults to $NFVSB_RESULTS_DIR, else campaign-results.
// NFVSB_THREADS and NFVSB_SEED pass through to every bench. The figures'
// text goes to /dev/null; the JSON in out-dir is what to compare:
// `diff -r goldens <out-dir>` at the default seed. Exits non-zero if any
// bench fails.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"

namespace {

// Times whole bench processes; never feeds simulated results.
// nfvsb-lint: allow(wall-clock)
using Clock = std::chrono::steady_clock;

constexpr const char* kPaperBenches[] = {
    "fig1_scatter",      "fig4a_p2p",           "fig4b_p2v",
    "fig4c_v2v",         "fig5_loopback_uni",   "fig6_loopback_bidir",
    "table3_latency",    "table4_v2v_latency",
};

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
  std::printf("== repro: ten paper campaigns into %s (%s threads) ==\n",
              out.c_str(), threads != nullptr ? threads : "default");
  int failed = 0;
  double total_s = 0;
  for (const char* bench : kPaperBenches) {
    const std::string cmd = "\"" + (dir / bench).string() + "\" > /dev/null";
    const auto t0 = Clock::now();
    const int rc = std::system(cmd.c_str());
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    total_s += s;
    std::printf("%-22s %7.2f s%s\n", bench, s, rc == 0 ? "" : "  FAILED");
    if (rc != 0) ++failed;
    std::fflush(stdout);
  }
  std::printf("%-22s %7.2f s\n", "total", total_s);
  return failed == 0 ? 0 : 1;
}

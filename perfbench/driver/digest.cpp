// Per-point result digests: FNV-1a over the exact bit patterns of every
// simulated statistic a figure or table reports.
#include <bit>
#include <cinttypes>
#include <cstdio>

#include "bench.h"

namespace perfbench {
namespace {

struct Fnv {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t digest(const nfvsb::scenario::ScenarioResult& r) {
  Fnv f;
  for (const auto* d : {&r.fwd, &r.rev}) {
    f.f64(d->gbps);
    f.f64(d->mpps);
    f.u64(d->rx_packets);
  }
  f.u64(r.lat_samples);
  for (double v : {r.lat_avg_us, r.lat_std_us, r.lat_median_us, r.lat_p99_us,
                   r.lat_min_us, r.lat_max_us}) {
    f.f64(v);
  }
  for (std::uint64_t v :
       {r.nic_imissed, r.sut_wasted_work, r.sut_discards, r.vnf_wasted_work,
        r.vnf_discards, r.offered_packets, r.delivered_packets,
        r.gen_tx_failures, r.cleared_packets}) {
    f.u64(v);
  }
  return f.h;
}

std::vector<std::uint64_t> load_digests(const std::string& path) {
  std::vector<std::uint64_t> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return out;
  char line[128];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    std::uint64_t v = 0;
    if (std::sscanf(line, "%" SCNx64, &v) != 1) {
      out.clear();
      break;
    }
    out.push_back(v);
  }
  std::fclose(f);
  return out;
}

bool save_digests(const std::string& path,
                  const std::vector<std::uint64_t>& digests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "# One digest per point, in point order, for the reference "
               "seed.\n# Regenerate: python3 perfbench/run.py --workload "
               "<name> --record-digests\n");
  for (std::uint64_t d : digests) std::fprintf(f, "%016" PRIx64 "\n", d);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Observed-output golden: a seeded sweep of observed scenario points whose
// counters, queue-depth summaries and packet traces are compared byte for
// byte with goldens/observed/.
//
//   build/bench/observed_sweep
//
// Writes <results dir>/observed/points.txt and one trace-<name>.json per
// traced point (NFVSB_RESULTS_DIR, default campaign-results; bench/repro
// runs it with the paper benches, so `diff -r goldens <dir>` covers it).
// points.txt holds one record per point, in point order: its config, its
// result fields, and every registry counter and sampler summary, sorted by
// path. The simulator's own counts (sim/*) are left out: goldens/work.txt
// pins the work of the paper campaigns, and the observed golden pins what
// a run reports.
//
// The points are drawn with bench/config_draw.h (every kind and switch,
// saturating and paced, probes, workers, ring depths, VALE guest
// generators), plus fixed points at the places where same-instant work
// decides a result: generators above line rate, samples that coincide with
// emits and arrivals, a pool run dry. Every point also runs unobserved,
// and the run fails (exit 1) unless both give the same result: observers
// never touch the data path. The golden is recorded on one thread and
// checked on four (the golden_observed ctest), so it also shows that the
// output does not depend on the thread count.
//
// Re-record after an intended change to what runs report:
//   NFVSB_THREADS=1 NFVSB_RESULTS_DIR=goldens build/bench/observed_sweep
#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "campaign/serialize.h"
#include "config_draw.h"
#include "core/rng.h"

namespace {

using nfvsb::core::from_ns;
using nfvsb::core::from_us;
using nfvsb::scenario::Kind;
using nfvsb::scenario::ScenarioConfig;
using nfvsb::scenario::ScenarioResult;
using nfvsb::switches::SwitchType;

constexpr std::uint64_t kDrawSeed = 0x0b5e7ed;
constexpr int kDrawnPerPair = 4;

/// Short windows: the sweep gates behaviour, not steady-state numbers.
ScenarioConfig windows(ScenarioConfig cfg, double measure_us) {
  cfg.warmup = from_us(50);
  cfg.measure = from_us(measure_us);
  return cfg;
}

/// An unobserved config; the sweep runs it with and without `observe`.
ScenarioConfig point(Kind kind, SwitchType sut, double rate_pps,
                     nfvsb::core::SimDuration sample_period) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.sut = sut;
  cfg.rate_pps = rate_pps;
  cfg.queue_sample_period = sample_period;
  return windows(cfg, 300);
}

std::string mpps(double rate_pps) {
  return std::to_string(static_cast<int>(rate_pps / 1e6)) + "Mpps";
}

struct Entry {
  std::string label;
  ScenarioConfig cfg;
  /// Trace file name ("" when untraced).
  std::string trace;
};

struct Sweep {
  std::vector<Entry> entries;

  void add(const std::string& label, const ScenarioConfig& cfg) {
    entries.push_back({label, cfg, ""});
  }
  /// A point that also writes a packet trace, trace-<name>.json.
  void add_traced(const std::string& name, const ScenarioConfig& cfg) {
    entries.push_back({"traced/" + name, cfg, "trace-" + name + ".json"});
  }
};

Sweep build_sweep() {
  Sweep s;
  nfvsb::core::Rng rng(kDrawSeed);
  // Each kind x switch pair kDrawnPerPair times; the other fields as
  // drawn, redrawn until validate() accepts them.
  int n = 0;
  for (int round = 0; round < kDrawnPerPair; ++round) {
    for (SwitchType sw : nfvsb::switches::kAllSwitches) {
      for (Kind kind : {Kind::kP2p, Kind::kP2v, Kind::kV2v, Kind::kLoopback}) {
        ScenarioConfig cfg;
        do {
          cfg = nfvsb::bench::draw(rng);
          cfg.kind = kind;
          cfg.sut = sw;
        } while (nfvsb::scenario::validate(cfg));
        cfg = windows(cfg, 300);
        if (cfg.rate_pps > 0) {
          cfg.rate_pps = nfvsb::bench::pick(rng, std::array{2e5, 1e6, 2e6});
        }
        cfg.queue_sample_period = nfvsb::bench::pick(
            rng, std::array{from_ns(500), from_us(1), from_us(2), from_us(5)});
        char label[32];
        std::snprintf(label, sizeof label, "drawn/%03d", n++);
        s.add(label, cfg);
      }
    }
  }

  // A generator offered more than line rate fails at its full TX ring.
  for (double rate : {15e6, 20e6, 30e6}) {
    s.add("fixed/p2p-bess-above-line-rate/" + mpps(rate),
          point(Kind::kP2p, SwitchType::kBess, rate, from_us(1)));
  }
  // Samples at the instants of emits and TX fetches (1 Mpps, 1 us), and of
  // arrivals (105 B frames arrive every 100 ns; sampled every 5 ns).
  for (double rate : {1e6, 2e6}) {
    ScenarioConfig cfg = point(Kind::kP2p, SwitchType::kVpp, rate, from_us(1));
    cfg.probe_interval = from_us(40);
    s.add("fixed/p2p-vpp-sampled-1us/" + mpps(rate), cfg);
  }
  for (SwitchType sw : {SwitchType::kVpp, SwitchType::kT4p4s}) {
    ScenarioConfig cfg = point(Kind::kP2p, sw, 0, from_ns(5));
    cfg.frame_bytes = 105;
    cfg.bidirectional = true;
    s.add(std::string("fixed/p2p-105B-sampled-5ns/") +
              nfvsb::switches::to_string(sw),
          cfg);
  }
  // Guest generators: pkt-gen's pacing law in VALE guests, MoonGen's in
  // DPDK guests, read by a switch that idles between paced frames.
  for (SwitchType sw : {SwitchType::kVale, SwitchType::kVpp}) {
    ScenarioConfig cfg = point(Kind::kP2v, sw, 1e6, from_us(1));
    cfg.reverse = true;
    s.add(std::string("fixed/p2v-reverse-paced/") +
              nfvsb::switches::to_string(sw),
          cfg);
  }
  // Table 4's VALE point: pings at 10 kpps that VM2's kernel echoes.
  {
    ScenarioConfig cfg = point(Kind::kV2v, SwitchType::kVale, 0, from_us(5));
    cfg.probe_interval = from_us(40);
    s.add("fixed/v2v-vale-latency", windows(cfg, 2000));
  }
  // fig6's loopback/bidi/t4p4s/64B/3vnf at fig6's own windows (10 ms
  // warm-up, 25 ms measured; the other points run short windows), with the
  // queue sampler on: it pins a saturated three-VNF chain's counters and
  // ring depths over a full-length run. It does not run the pool dry.
  {
    ScenarioConfig cfg;
    cfg.kind = Kind::kLoopback;
    cfg.sut = SwitchType::kT4p4s;
    cfg.bidirectional = true;
    cfg.chain_length = 3;
    cfg.queue_sample_period = from_us(20);
    s.add("fixed/loopback-bidi-t4p4s-3vnf-fig6-windows", cfg);
  }

  // Traced points: every 16th frame's lifecycle, byte for byte.
  auto traced = [&](const std::string& label, ScenarioConfig cfg) {
    cfg.trace_packet_sample = 16;
    s.add_traced(label, windows(cfg, 60));
  };
  traced("p2p-vpp-saturating",
         point(Kind::kP2p, SwitchType::kVpp, 0, from_us(2)));
  {
    ScenarioConfig cfg = point(Kind::kP2v, SwitchType::kVale, 0, from_us(2));
    cfg.reverse = true;
    traced("p2v-reverse-vale", cfg);
  }
  {
    ScenarioConfig cfg = point(Kind::kV2v, SwitchType::kOvsDpdk, 0, 0);
    cfg.probe_interval = from_us(40);
    traced("v2v-ovs-latency", cfg);
  }
  {
    ScenarioConfig cfg =
        point(Kind::kLoopback, SwitchType::kOvsDpdk, 1e6, from_us(1));
    cfg.bidirectional = true;
    cfg.chain_length = 2;
    cfg.probe_interval = from_us(40);
    traced("loopback-bidi-ovs-paced", cfg);
  }
  return s;
}

/// The result fields alone (no counters), for the observed/unobserved
/// comparison.
std::string fields(ScenarioResult r) {
  r.counters.clear();
  return nfvsb::campaign::result_to_json(r);
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const fs::path out = fs::path(nfvsb::bench::results_dir()) / "observed";
  std::error_code ec;
  fs::remove_all(out, ec);
  fs::create_directories(out, ec);
  if (ec) {
    std::fprintf(stderr, "observed_sweep: cannot create %s: %s\n",
                 out.c_str(), ec.message().c_str());
    return 1;
  }

  // Every point twice: observed, and unobserved under the same index, so
  // with the same derived seed.
  nfvsb::campaign::Campaign observed("observed");
  nfvsb::campaign::Campaign plain("observed-plain");
  const Sweep s = build_sweep();
  for (const Entry& e : s.entries) {
    ScenarioConfig cfg = e.cfg;
    cfg.observe = true;
    if (!e.trace.empty()) cfg.trace_path = (out / e.trace).string();
    observed.add(e.label, cfg);
    cfg = e.cfg;
    cfg.queue_sample_period = 0;
    plain.add(e.label, cfg);
  }

  nfvsb::campaign::CampaignRunner runner(nfvsb::bench::runner_options());
  const nfvsb::campaign::ResultSet obs = runner.run(observed);
  const nfvsb::campaign::ResultSet ref = runner.run(plain);

  std::string text;
  int differ = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const nfvsb::campaign::PointResult& p = obs.all()[i];
    const ScenarioResult& r = p.result;
    if (fields(r) != fields(ref.all()[i].result)) {
      std::fprintf(stderr,
                   "observed_sweep: %s: the observed result differs from "
                   "the unobserved one\n  observed:   %s\n  unobserved: %s\n",
                   p.label.c_str(), fields(r).c_str(),
                   fields(ref.all()[i].result).c_str());
      ++differ;
    }
    ScenarioConfig cfg = p.cfg;
    cfg.trace_path.clear();
    text += "== " + p.label + "\n";
    text += "config " + nfvsb::campaign::config_to_json(cfg) + "\n";
    const std::string& trace = s.entries[i].trace;
    if (!trace.empty()) text += "trace " + trace + "\n";
    text += "result " + fields(r) + "\n";
    for (const auto& [path, value] : r.counters) {
      if (path.starts_with("sim/")) continue;
      text += path + " " + std::to_string(value) + "\n";
    }
  }

  const fs::path points = out / "points.txt";
  std::FILE* f = std::fopen(points.c_str(), "w");
  bool written = f != nullptr && std::fputs(text.c_str(), f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "observed_sweep: cannot write %s\n", points.c_str());
    return 1;
  }
  std::printf("observed_sweep: %zu points into %s, %d observed results "
              "differ from unobserved\n",
              obs.size(), out.c_str(), differ);
  return differ == 0 ? 0 : 1;
}

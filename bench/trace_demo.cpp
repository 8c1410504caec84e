// Observability demo: runs one Fig. 4a point (VPP p2p, 64 B, unidirectional,
// shortened windows) with the full observability stack on — counter
// registry, queue-depth sampler, and a Chrome-trace/Perfetto JSON of the
// run.
//
// Output: the scenario's registered counters on stdout, and the trace at
// $NFVSB_TRACE_OUT (default "trace_demo.json"). Load it in ui.perfetto.dev
// or chrome://tracing to see switch service rounds, NIC wire serialization,
// ring drops, sampled queue depths, and 1-in-64 packet lifecycles.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/trace.h"
#include "scenario/scenario.h"

int main() {
  using namespace nfvsb;

  scenario::ScenarioConfig cfg;
  cfg.kind = scenario::Kind::kP2p;
  cfg.sut = switches::SwitchType::kVpp;
  cfg.frame_bytes = 64;
  cfg.warmup = core::from_ms(1);
  cfg.measure = core::from_ms(2);
  cfg.observe = true;
  cfg.queue_sample_period = core::from_us(10);
  const char* out = std::getenv("NFVSB_TRACE_OUT");
  cfg.trace_path = (out && *out) ? out : "trace_demo.json";

  const scenario::ScenarioResult r = scenario::run_scenario(cfg);

  std::printf("== trace_demo: p2p/vpp/64B, %.2f Gbps ==\n", r.fwd.gbps);
  std::printf("conservation: offered=%" PRIu64 " accounted=%" PRIu64 "\n",
              r.offered_packets, r.accounted_packets());
  std::puts("-- counters --");
  for (const auto& [path, value] : r.counters) {
    std::printf("%-48s %" PRIu64 "\n", path.c_str(), value);
  }
  std::printf("trace written to %s\n", cfg.trace_path.c_str());
  return 0;
}

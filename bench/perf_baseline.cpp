// Wall-clock baseline for the event engine, CI-checkable.
//
// Two measurements, both against the real production code paths:
//   1. events/sec — a schedule/pop mix on core::EventQueue at a realistic
//      in-flight depth (the engine microbenchmark);
//   2. packets/sec — wall-clock rate of one fixed Fig. 4a point (BESS,
//      p2p, 64 B, unidirectional), i.e. the end-to-end simulation speed,
//      next to that point's simulator work per offered packet: timing-wheel
//      events, lane firings, frames built, ring operations and wire steps
//      (ScenarioResult::Work of the timed, unobserved run).
//
// Results land in BENCH_events.json at the repository root, a committed
// file: run it from there and commit the new figures with a change that
// moves them, so the trajectory is part of git history (NFVSB_BENCH_OUT
// writes elsewhere, e.g. CI's uploaded copy). When NFVSB_MIN_EVENTS_PER_SEC is set, the binary exits
// non-zero if the engine measurement falls below it — the CI perf-smoke
// floor. Keep that floor conservative: shared 1-vCPU CI runners are easily
// 5-10x slower than a quiet development machine.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/event_queue.h"
#include "core/time.h"
#include "scenario/scenario.h"

namespace {

using namespace nfvsb;
// This harness measures real wall-clock throughput of the engine; it never
// feeds simulated results. nfvsb-lint: allow(wall-clock)
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

/// Schedule/pop mix at a steady depth of 1024 in-flight events; returns
/// pops per wall-clock second.
double measure_events_per_sec() {
  constexpr int kDepth = 1024;
  constexpr std::uint64_t kOps = 4'000'000;
  core::EventQueue q;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  core::SimTime now = 0;
  for (int i = 0; i < kDepth; ++i) {
    (void)q.schedule(
        now + 1 + static_cast<core::SimTime>(lcg_next(rng) % 1'000'000),
        [] {});
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    (void)q.schedule(
        now + 1 + static_cast<core::SimTime>(lcg_next(rng) % 1'000'000),
        [] {});
    auto fired = q.pop();
    now = fired.time;
  }
  const double secs = seconds_since(t0);
  q.clear();
  return static_cast<double>(kOps) / secs;
}

struct ScenarioRate {
  double packets_per_sec{0};
  double wall_secs{0};
  std::uint64_t offered{0};
  double events_per_pkt{0};
  double lane_fired_per_pkt{0};
  double frames_built_per_pkt{0};
  double ring_ops_per_pkt{0};
  double wire_steps_per_pkt{0};
};

/// One fixed Fig. 4a point: BESS p2p 64 B unidirectional, default seed and
/// windows — the same configuration the fig4a_p2p campaign runs.
ScenarioRate measure_fig4a_point() {
  scenario::ScenarioConfig cfg;
  cfg.kind = scenario::Kind::kP2p;
  cfg.sut = switches::SwitchType::kBess;
  cfg.frame_bytes = 64;
  cfg.bidirectional = false;
  const auto t0 = Clock::now();
  const scenario::ScenarioResult r = scenario::run_scenario(cfg);
  ScenarioRate rate;
  rate.wall_secs = seconds_since(t0);
  rate.offered = r.offered_packets;
  rate.packets_per_sec = static_cast<double>(r.offered_packets) /
                         rate.wall_secs;
  const auto offered = static_cast<double>(r.offered_packets);
  rate.events_per_pkt = static_cast<double>(r.work.wheel_events) / offered;
  rate.lane_fired_per_pkt = static_cast<double>(r.work.lane_fired) / offered;
  rate.frames_built_per_pkt =
      static_cast<double>(r.work.frames_built) / offered;
  rate.ring_ops_per_pkt = static_cast<double>(r.work.ring_ops) / offered;
  rate.wire_steps_per_pkt =
      static_cast<double>(r.work.wire_steps) / offered;
  return rate;
}

}  // namespace

int main() {
  const double events_per_sec = measure_events_per_sec();
  const ScenarioRate fig4a = measure_fig4a_point();

  const char* out_env = std::getenv("NFVSB_BENCH_OUT");
  const std::string out = (out_env && *out_env) ? out_env
                                                : "BENCH_events.json";
  if (std::FILE* f = std::fopen(out.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"events_per_sec\": %.0f,\n"
                 "  \"fig4a_point\": {\n"
                 "    \"label\": \"p2p/uni/BESS/64B\",\n"
                 "    \"offered_packets\": %llu,\n"
                 "    \"wall_secs\": %.3f,\n"
                 "    \"packets_per_sec\": %.0f,\n"
                 "    \"events_per_pkt\": %.4f,\n"
                 "    \"lane_fired_per_pkt\": %.4f,\n"
                 "    \"frames_built_per_pkt\": %.4f,\n"
                 "    \"ring_ops_per_pkt\": %.4f,\n"
                 "    \"wire_steps_per_pkt\": %.4f\n"
                 "  }\n"
                 "}\n",
                 events_per_sec,
                 static_cast<unsigned long long>(fig4a.offered),
                 fig4a.wall_secs, fig4a.packets_per_sec,
                 fig4a.events_per_pkt, fig4a.lane_fired_per_pkt,
                 fig4a.frames_built_per_pkt, fig4a.ring_ops_per_pkt,
                 fig4a.wire_steps_per_pkt);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  }

  std::printf("== perf baseline ==\n");
  std::printf("event engine : %.2f M events/sec (schedule/pop mix)\n",
              events_per_sec / 1e6);
  std::printf("fig4a point  : %.2f M packets/sec wall-clock "
              "(%llu packets in %.2f s)\n",
              fig4a.packets_per_sec / 1e6,
              static_cast<unsigned long long>(fig4a.offered),
              fig4a.wall_secs);
  std::printf("               per offered packet: %.4f wheel events, %.4f "
              "lane firings, %.4f frames built, %.4f ring ops, %.4f wire "
              "steps\n",
              fig4a.events_per_pkt, fig4a.lane_fired_per_pkt,
              fig4a.frames_built_per_pkt, fig4a.ring_ops_per_pkt,
              fig4a.wire_steps_per_pkt);
  std::printf("results      : %s\n", out.c_str());

  if (const char* floor_env = std::getenv("NFVSB_MIN_EVENTS_PER_SEC")) {
    const double floor = std::strtod(floor_env, nullptr);
    if (events_per_sec < floor) {
      std::fprintf(stderr,
                   "FAIL: %.0f events/sec below floor %.0f "
                   "(NFVSB_MIN_EVENTS_PER_SEC)\n",
                   events_per_sec, floor);
      return 1;
    }
    std::printf("floor        : %.0f events/sec — ok\n", floor);
  }
  return 0;
}

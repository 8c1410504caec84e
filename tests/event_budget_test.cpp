// Event budget: simulator work per offered packet, one observed point per
// scenario kind plus a paced p2p point with probes, at the default windows
// and seed. Three counts, each gated on its own: events fired from the
// timing wheel, lane firings (NIC TX fetches, core/simulator.h) and frames
// built (pool buffers handed out, pkt/frame.h), so moving work off the
// wheel never reads as removing it. The counts depend on nothing but the
// model and the seed, so unlike wall-clock time they can be gated exactly;
// each bound sits about 1% above the measured count, so a change that adds
// work to the per-packet path fails here first.
#include <gtest/gtest.h>

#include <string>

#include "core/time.h"
#include "scenario/scenario.h"

namespace nfvsb::scenario {
namespace {

struct Budget {
  const char* label;
  Kind kind;
  switches::SwitchType sut;
  int chain_length;
  /// Offered rate (0 = saturate) and probe interval (0 = none).
  double rate_pps;
  core::SimDuration probe_interval;
  /// Upper bounds per offered packet.
  double max_wheel_events;
  double max_lane_firings;
  double max_frames_built;
};

std::uint64_t counter(const ScenarioResult& r, const std::string& path) {
  for (const auto& [p, v] : r.counters) {
    if (p == path) return v;
  }
  ADD_FAILURE() << "missing counter " << path;
  return 0;
}

TEST(EventBudget, PerOfferedPacket) {
  using switches::SwitchType;
  // The per-point table in EXPERIMENTS.md records the measured counts
  // behind these bounds. v2v has no NIC on its path: its guest TX rings
  // pull the in-VM MoonGen (Snabb) and pkt-gen's law (VALE). The paced
  // point gates the NIC's pull path with probes and idle wires.
  const Budget budgets[] = {
      {"p2p uni BESS", Kind::kP2p, SwitchType::kBess, 1, 0, 0, 0.1682, 2.02,
       1.01},
      {"p2p uni VALE", Kind::kP2p, SwitchType::kVale, 1, 0, 0, 0.002215,
       1.576, 0.5659},
      {"p2v VPP", Kind::kP2v, SwitchType::kVpp, 1, 0, 0, 0.01042, 1.01,
       0.6659},
      {"loopback-4 VPP", Kind::kLoopback, SwitchType::kVpp, 4, 0, 0, 0.02767,
       1.1062, 0.09619},
      {"v2v Snabb", Kind::kV2v, SwitchType::kSnabb, 1, 0, 0, 0.01579, 0, 1.01},
      {"v2v VALE", Kind::kV2v, SwitchType::kVale, 1, 0, 0, 0.003955, 0, 1.01},
      {"p2p VPP 1 Mpps, 40 us probes", Kind::kP2p, SwitchType::kVpp, 1, 1e6,
       core::from_us(40), 1.5122, 2.02, 1.01},
  };
  for (const Budget& b : budgets) {
    ScenarioConfig cfg;
    cfg.kind = b.kind;
    cfg.sut = b.sut;
    cfg.chain_length = b.chain_length;
    cfg.rate_pps = b.rate_pps;
    cfg.probe_interval = b.probe_interval;
    cfg.observe = true;
    const ScenarioResult r = run_scenario(cfg);
    ASSERT_FALSE(r.skipped.has_value()) << b.label;
    ASSERT_GT(r.offered_packets, 0u) << b.label;
    const auto offered = static_cast<double>(r.offered_packets);
    const std::uint64_t events = counter(r, "sim/events_processed");
    const std::uint64_t lanes = counter(r, "sim/lane_fired");
    EXPECT_EQ(events, r.work.wheel_events) << b.label;
    EXPECT_EQ(lanes, r.work.lane_fired) << b.label;
    EXPECT_LE(static_cast<double>(events) / offered, b.max_wheel_events)
        << b.label << ": " << events << " wheel events for "
        << r.offered_packets << " offered packets";
    EXPECT_LE(static_cast<double>(lanes) / offered, b.max_lane_firings)
        << b.label << ": " << lanes << " lane firings for "
        << r.offered_packets << " offered packets";
    EXPECT_LE(static_cast<double>(r.work.frames_built) / offered,
              b.max_frames_built)
        << b.label << ": " << r.work.frames_built << " frames built for "
        << r.offered_packets << " offered packets";
  }
}

}  // namespace
}  // namespace nfvsb::scenario

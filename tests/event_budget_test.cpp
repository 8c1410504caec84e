// Event budget: simulator events per offered packet, one observed point per
// scenario kind plus a paced p2p point with probes, at the default windows
// and seed. Event counts depend on
// nothing but the model and the seed, so unlike wall-clock time they can be
// gated exactly; each bound sits about 1% above the measured count, so a
// change that adds events to the per-packet path fails here first.
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
  /// Upper bound on events per offered packet.
  double max_events_per_pkt;
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
  // The per-point events table in EXPERIMENTS.md records the measured
  // counts behind these bounds. v2v has no NIC on its path; the paced
  // point gates the generator's pull path with probes and idle wires.
  const Budget budgets[] = {
      {"p2p uni BESS", Kind::kP2p, SwitchType::kBess, 1, 0, 0, 2.19},
      {"p2p uni VALE", Kind::kP2p, SwitchType::kVale, 1, 0, 0, 1.58},
      {"p2v VPP", Kind::kP2v, SwitchType::kVpp, 1, 0, 0, 1.02},
      {"loopback-4 VPP", Kind::kLoopback, SwitchType::kVpp, 4, 0, 0, 1.14},
      {"v2v Snabb", Kind::kV2v, SwitchType::kSnabb, 1, 0, 0, 1.82},
      {"p2p VPP 1 Mpps, 40 us probes", Kind::kP2p, SwitchType::kVpp, 1, 1e6,
       core::from_us(40), 3.53},
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
    const double per_pkt =
        static_cast<double>(counter(r, "sim/events_processed")) /
        static_cast<double>(r.offered_packets);
    EXPECT_LE(per_pkt, b.max_events_per_pkt)
        << b.label << ": " << counter(r, "sim/events_processed")
        << " events for " << r.offered_packets << " offered packets";
  }
}

}  // namespace
}  // namespace nfvsb::scenario

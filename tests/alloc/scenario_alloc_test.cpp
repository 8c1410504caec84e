// Allocation budget: heap allocations per offered packet over a whole
// scenario run (set-up, traffic, drain and teardown), one point per
// scenario kind at the default windows and seed, unobserved as campaigns
// run them. The steady-state loop allocates nothing
// (steady_state_alloc_test.cpp), so what is left is wiring and the first
// growth of each buffer: a few hundred allocations for ~500k packets. Each
// bound sits about 25% above the measured count, leaving room for standard
// libraries that size containers differently; an allocation per packet
// would cost 1.0 here, and one per service round about 0.03.
#include <gtest/gtest.h>

#include <cstdint>

#include "counting_new.h"
#include "scenario/scenario.h"

namespace nfvsb::scenario {
namespace {

struct Budget {
  const char* label;
  Kind kind;
  switches::SwitchType sut;
  int chain_length;
  /// Upper bound on heap allocations per offered packet.
  double max_allocs_per_pkt;
};

TEST(AllocBudget, PerOfferedPacket) {
  using switches::SwitchType;
  // Measured: 0.000286, 0.000332, 0.000590 and 0.000756.
  const Budget budgets[] = {
      {"p2p uni BESS", Kind::kP2p, SwitchType::kBess, 1, 0.00036},
      {"p2v VPP", Kind::kP2v, SwitchType::kVpp, 1, 0.00042},
      {"v2v Snabb", Kind::kV2v, SwitchType::kSnabb, 1, 0.00074},
      {"loopback-4 VPP", Kind::kLoopback, SwitchType::kVpp, 4, 0.00095},
  };
  for (const Budget& b : budgets) {
    ScenarioConfig cfg;
    cfg.kind = b.kind;
    cfg.sut = b.sut;
    cfg.chain_length = b.chain_length;
    const std::uint64_t allocs0 = alloc_test::thread_heap_allocs();
    const ScenarioResult r = run_scenario(cfg);
    const std::uint64_t allocs = alloc_test::thread_heap_allocs() - allocs0;
    ASSERT_FALSE(r.skipped.has_value()) << b.label;
    ASSERT_GT(r.offered_packets, 0u) << b.label;
    EXPECT_LE(static_cast<double>(allocs) /
                  static_cast<double>(r.offered_packets),
              b.max_allocs_per_pkt)
        << b.label << ": " << allocs << " heap allocations for "
        << r.offered_packets << " offered packets";
  }
}

// Table 4's VALE point: the guest kernel in VM2 echoes every ping after
// its stack latency. An echo is one pending event holding the packet, so
// a longer window, with more echoes, costs no more heap allocations.
TEST(AllocBudget, ValeEchoAllocatesNothingPerFrame) {
  auto run = [](core::SimDuration measure, std::uint64_t& allocs) {
    ScenarioConfig cfg;
    cfg.kind = Kind::kV2v;
    cfg.sut = switches::SwitchType::kVale;
    cfg.probe_interval = core::from_us(40);
    cfg.measure = measure;
    const std::uint64_t allocs0 = alloc_test::thread_heap_allocs();
    const ScenarioResult r = run_scenario(cfg);
    allocs = alloc_test::thread_heap_allocs() - allocs0;
    return r.delivered_packets;
  };
  std::uint64_t short_allocs = 0;
  std::uint64_t long_allocs = 0;
  const std::uint64_t short_echoes = run(core::from_ms(5), short_allocs);
  const std::uint64_t long_echoes = run(core::from_ms(25), long_allocs);
  ASSERT_GE(long_echoes, short_echoes + 150);
  EXPECT_EQ(long_allocs, short_allocs)
      << long_echoes - short_echoes << " more echoes";
}

}  // namespace
}  // namespace nfvsb::scenario

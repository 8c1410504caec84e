// CpuCore: serialized work, FIFO order, utilization accounting.
#include <gtest/gtest.h>

#include <vector>

#include "hw/cpu_core.h"

namespace nfvsb::hw {
namespace {

TEST(CpuCore, RunsSubmittedWork) {
  core::Simulator sim;
  CpuCore cpu(sim, "c0");
  core::SimTime done_at = -1;
  cpu.submit(core::from_us(3), [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, core::from_us(3));
}

TEST(CpuCore, SerializesJobsFifo) {
  core::Simulator sim;
  CpuCore cpu(sim, "c0");
  std::vector<std::pair<int, core::SimTime>> done;
  cpu.submit(core::from_us(2), [&] { done.emplace_back(1, sim.now()); });
  cpu.submit(core::from_us(3), [&] { done.emplace_back(2, sim.now()); });
  cpu.submit(core::from_us(1), [&] { done.emplace_back(3, sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], std::make_pair(1, core::from_us(2)));
  EXPECT_EQ(done[1], std::make_pair(2, core::from_us(5)));
  EXPECT_EQ(done[2], std::make_pair(3, core::from_us(6)));
}

TEST(CpuCore, CompletesInSubmissionOrderAcrossQueueGrowth) {
  core::Simulator sim;
  CpuCore cpu(sim, "c0");
  std::vector<int> done;
  int next = 0;
  const auto submit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const int id = next++;
      cpu.submit(core::from_us(1), [&done, id] { done.push_back(id); });
    }
  };
  submit(12);
  sim.run_until(core::from_us(10));  // 10 done: the queue head has moved
  submit(40);  // wraps the job queue, then grows it twice
  sim.run();
  ASSERT_EQ(done.size(), 52u);
  for (int i = 0; i < 52; ++i) EXPECT_EQ(done[static_cast<std::size_t>(i)], i);
}

TEST(CpuCore, IdleFlagTracksState) {
  core::Simulator sim;
  CpuCore cpu(sim, "c0");
  EXPECT_TRUE(cpu.idle());
  bool mid_check = true;
  cpu.submit(core::from_us(1), [&] { mid_check = cpu.idle(); });
  EXPECT_FALSE(cpu.idle());
  sim.run();
  // During the completion callback the core is still formally busy.
  EXPECT_FALSE(mid_check);
  EXPECT_TRUE(cpu.idle());
}

TEST(CpuCore, UtilizationFraction) {
  core::Simulator sim;
  CpuCore cpu(sim, "c0");
  cpu.submit(core::from_us(2), [] {});
  sim.run();
  sim.post_in(core::from_us(2), [] {});  // advance wall clock to 4 us
  sim.run();
  EXPECT_NEAR(cpu.utilization(), 0.5, 1e-9);
}

TEST(CpuCore, ResetStatsZeroesUtilization) {
  core::Simulator sim;
  CpuCore cpu(sim, "c0");
  cpu.submit(core::from_us(2), [] {});
  sim.run();
  cpu.reset_stats();
  sim.post_in(core::from_us(1), [] {});
  sim.run();
  EXPECT_NEAR(cpu.utilization(), 0.0, 1e-9);
}

TEST(CpuCore, MultipleUsersShareFairlyInFifo) {
  // Two "switches" submitting alternately (the VALE loopback host-instance
  // arrangement): completions interleave in submission order.
  core::Simulator sim;
  CpuCore cpu(sim, "c0");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    cpu.submit(core::from_us(1), [&order, i] { order.push_back(i * 2); });
    cpu.submit(core::from_us(1), [&order, i] { order.push_back(i * 2 + 1); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(cpu.busy_time(), core::from_us(6));
}

TEST(CpuCore, NumaNodeRecorded) {
  core::Simulator sim;
  CpuCore cpu(sim, "c7", 1);
  EXPECT_EQ(cpu.numa_node(), 1);
  EXPECT_EQ(cpu.name(), "c7");
}

}  // namespace
}  // namespace nfvsb::hw

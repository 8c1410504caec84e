// Statistics: running moments, histogram quantiles, meters.
#include <gtest/gtest.h>

#include "core/units.h"
#include "stats/histogram.h"
#include "stats/latency_recorder.h"
#include "stats/running_stats.h"
#include "stats/throughput_meter.h"

namespace nfvsb::stats {
namespace {

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.add(12345);
  EXPECT_EQ(h.median(), 12345);
  EXPECT_EQ(h.quantile(0.0), 12345);
  EXPECT_EQ(h.quantile(1.0), 12345);
}

TEST(Histogram, QuantilesWithinRelativeError) {
  Histogram h;
  // Uniform 1..100000 (ps) — quantiles must land within ~4% relative.
  for (core::SimDuration v = 1; v <= 100000; ++v) h.add(v);
  EXPECT_NEAR(static_cast<double>(h.median()), 50000.0, 50000.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.9)), 90000.0, 90000.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.p99()), 99000.0, 99000.0 * 0.05);
}

TEST(Histogram, MinMaxTracked) {
  Histogram h;
  h.add(7);
  h.add(7000000);
  h.add(300);
  EXPECT_EQ(h.min_value(), 7);
  EXPECT_EQ(h.max_value(), 7000000);
}

TEST(Histogram, HugeValuesDoNotOverflow) {
  Histogram h;
  h.add(core::from_sec(100));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.median(), 0);
}

TEST(LatencyRecorder, ReportsMicroseconds) {
  LatencyRecorder r;
  r.record(core::from_us(10));
  r.record(core::from_us(20));
  EXPECT_EQ(r.samples(), 2u);
  EXPECT_DOUBLE_EQ(r.mean_us(), 15.0);
  EXPECT_NEAR(r.stddev_us(), 7.071, 0.001);
  EXPECT_DOUBLE_EQ(r.min_us(), 10.0);
  EXPECT_DOUBLE_EQ(r.max_us(), 20.0);
  // Lower-median convention for even counts: lands on the 10 us sample.
  EXPECT_NEAR(r.median_us(), 10.0, 0.8);
}

TEST(ThroughputMeter, CountsWireBytes) {
  ThroughputMeter m(0);
  // 1000 64 B frames over 1 ms -> 1 Mpps -> 0.672 Gbps wire.
  for (int i = 0; i < 1000; ++i) {
    m.on_packet(i * core::kMicrosecond, 64);
  }
  m.close(core::from_ms(1));
  EXPECT_EQ(m.packets(), 1000u);
  EXPECT_NEAR(m.pps(), 1e6, 1e3);
  EXPECT_NEAR(m.gbps(), 0.672, 0.001);
}

TEST(ThroughputMeter, IgnoresBeforeOpen) {
  ThroughputMeter m(core::from_us(10));
  m.on_packet(core::from_us(5), 64);
  m.on_packet(core::from_us(15), 64);
  EXPECT_EQ(m.packets(), 1u);
}

TEST(ThroughputMeter, IgnoresAfterClose) {
  ThroughputMeter m(0);
  m.on_packet(core::from_us(1), 64);
  m.close(core::from_us(2));
  m.on_packet(core::from_us(3), 64);
  EXPECT_EQ(m.packets(), 1u);
}

TEST(ThroughputMeter, EmptyWindowIsZero) {
  ThroughputMeter m(0);
  EXPECT_DOUBLE_EQ(m.pps(), 0.0);
  EXPECT_DOUBLE_EQ(m.gbps(), 0.0);
}

TEST(ThroughputMeter, LineRateReadsTenGbps) {
  ThroughputMeter m(0);
  const auto gap = core::kTenGigE.serialization_time(64);
  for (int i = 0; i < 14880; ++i) {
    m.on_packet(i * gap, 64);
  }
  m.close(14880 * gap);
  EXPECT_NEAR(m.gbps(), 10.0, 0.01);
}

// Regression: closing at t=0 must actually close the meter. The old code
// used close_at_ > 0 as the "closed" flag, so a close(0) was ignored and
// late packets kept counting.
TEST(ThroughputMeter, CloseAtTimeZeroStopsCounting) {
  ThroughputMeter m(0);
  EXPECT_FALSE(m.closed());
  m.close(0);
  EXPECT_TRUE(m.closed());
  m.on_packet(core::from_us(1), 64);
  EXPECT_EQ(m.packets(), 0u);
  EXPECT_DOUBLE_EQ(m.pps(), 0.0);
}

// Regression: the window is half-open [open, close) — a packet landing at
// exactly close_at belongs to the next window. The old inclusive-both-ends
// convention counted it, a fencepost that overstated pps by one packet.
TEST(ThroughputMeter, PacketAtCloseInstantExcluded) {
  ThroughputMeter m(0);
  m.on_packet(core::from_us(1), 64);
  m.close(core::from_us(2));
  m.on_packet(core::from_us(2), 64);
  EXPECT_EQ(m.packets(), 1u);
}

}  // namespace
}  // namespace nfvsb::stats

// Deterministic RNG distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <array>

#include "core/rng.h"

namespace nfvsb::core {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(3);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexInRange) {
  Rng r(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform_index(7), 7u);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng r(5);
  std::array<int, 5> hits{};
  for (int i = 0; i < 5000; ++i) ++hits[r.uniform_index(5)];
  for (int h : hits) EXPECT_GT(h, 700);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(6);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(30.0);
  EXPECT_NEAR(sum / n, 30.0, 0.5);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(7);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, LognormalMeanCvMatches) {
  Rng r(8);
  double sum = 0, sq = 0;
  const int n = 400000;
  const double mean = 100.0, cv = 0.5;
  for (int i = 0; i < n; ++i) {
    const double x = r.lognormal_mean_cv(mean, cv);
    EXPECT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double m = sum / n;
  const double var = sq / n - m * m;
  EXPECT_NEAR(m, mean, 1.0);
  EXPECT_NEAR(std::sqrt(var) / m, cv, 0.02);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  Rng r(9);
  EXPECT_DOUBLE_EQ(r.lognormal_mean_cv(77.0, 0.0), 77.0);
}

TEST(Rng, ChanceProbability) {
  Rng r(10);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.split();
  // Child continues differently from a fresh parent-seeded stream.
  Rng parent2(11);
  parent2.split();
  Rng child2 = Rng(11);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next_u64() == child2.next_u64());
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace nfvsb::core

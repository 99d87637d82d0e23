#include "resources/maxmin.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/rng.h"

namespace perfsight {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(MaxMinTest, UnderloadedEveryoneSatisfied) {
  std::vector<Demand> d = {{3, 1, -1}, {2, 1, -1}, {4, 1, -1}};
  auto a = weighted_maxmin(100, d);
  EXPECT_DOUBLE_EQ(a[0], 3);
  EXPECT_DOUBLE_EQ(a[1], 2);
  EXPECT_DOUBLE_EQ(a[2], 4);
}

TEST(MaxMinTest, EqualWeightsEqualShares) {
  std::vector<Demand> d = {{100, 1, -1}, {100, 1, -1}, {100, 1, -1}};
  auto a = weighted_maxmin(30, d);
  EXPECT_NEAR(a[0], 10, 1e-9);
  EXPECT_NEAR(a[1], 10, 1e-9);
  EXPECT_NEAR(a[2], 10, 1e-9);
}

TEST(MaxMinTest, SmallDemandSatisfiedExcessRedistributed) {
  // Classic max-min: {2, 8, 10} with capacity 15 -> {2, 6.5, 6.5}.
  std::vector<Demand> d = {{2, 1, -1}, {8, 1, -1}, {10, 1, -1}};
  auto a = weighted_maxmin(15, d);
  EXPECT_NEAR(a[0], 2, 1e-9);
  EXPECT_NEAR(a[1], 6.5, 1e-9);
  EXPECT_NEAR(a[2], 6.5, 1e-9);
}

TEST(MaxMinTest, WeightsBiasShares) {
  std::vector<Demand> d = {{100, 3, -1}, {100, 1, -1}};
  auto a = weighted_maxmin(40, d);
  EXPECT_NEAR(a[0], 30, 1e-9);
  EXPECT_NEAR(a[1], 10, 1e-9);
}

TEST(MaxMinTest, CapClampsAllocation) {
  std::vector<Demand> d = {{100, 10, 5}, {100, 1, -1}};
  auto a = weighted_maxmin(40, d);
  // Heavy-weight consumer capped at 5; the rest flows to the other.
  EXPECT_NEAR(a[0], 5, 1e-9);
  EXPECT_NEAR(a[1], 35, 1e-9);
}

TEST(MaxMinTest, ZeroCapacity) {
  std::vector<Demand> d = {{10, 1, -1}};
  auto a = weighted_maxmin(0, d);
  EXPECT_DOUBLE_EQ(a[0], 0);
}

TEST(MaxMinTest, EmptyDemands) {
  EXPECT_TRUE(weighted_maxmin(10, {}).empty());
}

TEST(MaxMinTest, ZeroAndNegativeDemandsGetNothing) {
  std::vector<Demand> d = {{0, 1, -1}, {-5, 1, -1}, {10, 1, -1}};
  auto a = weighted_maxmin(6, d);
  EXPECT_DOUBLE_EQ(a[0], 0);
  EXPECT_DOUBLE_EQ(a[1], 0);
  EXPECT_NEAR(a[2], 6, 1e-9);
}

// Property sweep: random demand sets must satisfy the allocation invariants.
class MaxMinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxMinPropertyTest, Invariants) {
  Pcg32 rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    size_t n = 1 + rng.next_below(12);
    double capacity = rng.uniform(0.0, 100.0);
    std::vector<Demand> d(n);
    double total_want = 0;
    for (auto& dem : d) {
      dem.amount = rng.uniform(0.0, 40.0);
      dem.weight = rng.uniform(0.1, 5.0);
      dem.cap = rng.next_below(3) == 0 ? rng.uniform(0.0, 30.0) : -1.0;
      double w = dem.amount;
      if (dem.cap >= 0 && dem.cap < w) w = dem.cap;
      total_want += w;
    }
    auto a = weighted_maxmin(capacity, d);
    ASSERT_EQ(a.size(), n);
    // (1) capacity never exceeded
    EXPECT_LE(sum(a), capacity + 1e-6);
    for (size_t i = 0; i < n; ++i) {
      // (2) nobody gets more than min(demand, cap), nobody gets < 0
      double lim = d[i].amount;
      if (d[i].cap >= 0 && d[i].cap < lim) lim = d[i].cap;
      EXPECT_LE(a[i], lim + 1e-6);
      EXPECT_GE(a[i], -1e-9);
    }
    // (3) work conserving
    EXPECT_NEAR(sum(a), std::min(total_want, capacity), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

// Max-min fairness: among unsatisfied consumers, per-weight shares equal.
TEST(MaxMinTest, UnsatisfiedConsumersGetEqualPerWeightShares) {
  std::vector<Demand> d = {{100, 2, -1}, {100, 1, -1}, {1, 1, -1}};
  auto a = weighted_maxmin(31, d);
  EXPECT_NEAR(a[2], 1, 1e-9);  // tiny demand satisfied
  EXPECT_NEAR(a[0] / 2.0, a[1] / 1.0, 1e-9);
  EXPECT_NEAR(a[0] + a[1], 30, 1e-9);
}

uint64_t bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// One output vector and one scratch reused across demand sets that grow,
// shrink and go empty must give, bit for bit, what fresh storage gives:
// nothing a previous call left behind may leak into the next.
TEST(MaxMinScratchTest, ReusedStorageMatchesFreshCallsBitForBit) {
  Pcg32 rng(20);
  std::vector<double> alloc;
  MaxMinScratch scratch;
  const size_t sizes[] = {0, 1, 12, 3, 0, 40, 5, 40, 2, 0, 17, 1};
  for (int round = 0; round < 40; ++round) {
    for (size_t n : sizes) {
      std::vector<Demand> d(n);
      for (Demand& dem : d) {
        // Zero and negative amounts, tiny and large weights, zero caps.
        const uint32_t shape = rng.next_below(8);
        dem.amount = shape == 0   ? 0.0
                     : shape == 1 ? -rng.uniform(0.0, 5.0)
                                  : rng.uniform(0.0, 40.0);
        dem.weight = rng.next_below(6) == 0 ? 1e-13 : rng.uniform(0.05, 8.0);
        const uint32_t cap = rng.next_below(4);
        dem.cap = cap == 0 ? 0.0 : cap == 1 ? rng.uniform(0.0, 30.0) : -1.0;
      }
      const double capacity =
          rng.next_below(10) == 0 ? 0.0 : rng.uniform(0.0, 200.0);
      weighted_maxmin(capacity, d, &alloc, &scratch);
      const std::vector<double> fresh = weighted_maxmin(capacity, d);
      ASSERT_EQ(alloc.size(), n);
      ASSERT_EQ(fresh.size(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(alloc[i]), bits(fresh[i]))
            << "round " << round << " n=" << n << " i=" << i;
      }
    }
  }
}

// Stale contents of the caller's output vector are overwritten, never
// added to.
TEST(MaxMinScratchTest, StaleOutputIsOverwritten) {
  std::vector<double> alloc(5, 123.0);
  MaxMinScratch scratch;
  weighted_maxmin(15, {{2, 1, -1}, {8, 1, -1}, {10, 1, -1}}, &alloc,
                  &scratch);
  ASSERT_EQ(alloc.size(), 3u);
  EXPECT_NEAR(alloc[0], 2, 1e-9);
  EXPECT_NEAR(alloc[1], 6.5, 1e-9);
  EXPECT_NEAR(alloc[2], 6.5, 1e-9);
  weighted_maxmin(0, {{2, 1, -1}}, &alloc, &scratch);
  ASSERT_EQ(alloc.size(), 1u);
  EXPECT_EQ(alloc[0], 0.0);
  weighted_maxmin(10, {}, &alloc, &scratch);
  EXPECT_TRUE(alloc.empty());
}

}  // namespace
}  // namespace perfsight

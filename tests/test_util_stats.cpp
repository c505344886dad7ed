#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/ewma.h"

namespace broadway {
namespace {

TEST(OnlineStats, EmptyDefaults) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStats, SingleObservationHasZeroVariance) {
  OnlineStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats left;
  OnlineStats right;
  OnlineStats combined;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    left.add(v);
    combined.add(v);
  }
  for (int i = 0; i < 77; ++i) {
    const double v = i * -0.11 + 8.0;
    right.add(v);
    combined.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats stats;
  stats.add(1.0);
  stats.add(2.0);
  OnlineStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Ewma, FirstObservationReplacesInitial) {
  Ewma ewma(0.5, 100.0);
  EXPECT_TRUE(ewma.empty());
  EXPECT_DOUBLE_EQ(ewma.value(), 100.0);
  ewma.observe(10.0);
  EXPECT_FALSE(ewma.empty());
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);  // cold start unbiased
}

TEST(Ewma, BlendsSubsequentObservations) {
  Ewma ewma(0.25);
  ewma.observe(10.0);
  ewma.observe(20.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 0.25 * 20.0 + 0.75 * 10.0);
}

TEST(Ewma, ResetForgets) {
  Ewma ewma(0.5);
  ewma.observe(5.0);
  ewma.reset(1.0);
  EXPECT_TRUE(ewma.empty());
  EXPECT_DOUBLE_EQ(ewma.value(), 1.0);
}

TEST(Ewma, RejectsBadWeight) {
  EXPECT_THROW(Ewma(0.0), CheckFailure);
  EXPECT_THROW(Ewma(1.5), CheckFailure);
}

}  // namespace
}  // namespace broadway

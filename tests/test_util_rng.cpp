#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/check.h"
#include "util/stats.h"

namespace broadway {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform01());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-2.5, 7.5);
    ASSERT_GE(v, -2.5);
    ASSERT_LT(v, 7.5);
  }
}

TEST(Rng, UniformRejectsEmptyRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 1.0), CheckFailure);
  EXPECT_THROW(rng.uniform(2.0, 1.0), CheckFailure);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all ten values appear in 1000 draws
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  OnlineStats stats;
  const double rate = 0.25;  // mean 4
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, ExponentialRejectsBadRate) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), CheckFailure);
  EXPECT_THROW(rng.exponential(-1.0), CheckFailure);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW(rng.bernoulli(1.5), CheckFailure);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent_a(99);
  Rng parent_b(99);
  Rng child_a = parent_a.fork();
  Rng child_b = parent_b.fork();
  // Same lineage -> same stream.
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(child_a.uniform01(), child_b.uniform01());
  }
  // Child and parent streams differ.
  Rng parent_c(99);
  Rng child_c = parent_c.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent_c.uniform01() == child_c.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace broadway

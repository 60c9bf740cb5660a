#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace ccml {
namespace {

TEST(Summary, Basics) {
  Summary s;
  EXPECT_TRUE(s.empty());
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, WelfordMatchesNaiveOnRandomData) {
  Rng rng(123);
  Summary s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(10.0, 3.0);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(Cdf, PercentilesInterpolate) {
  Cdf cdf;
  for (int i = 1; i <= 5; ++i) cdf.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(cdf.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(25), 2.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(12.5), 1.5);
}

TEST(Cdf, UnsortedInsertion) {
  Cdf cdf;
  cdf.add(9);
  cdf.add(1);
  cdf.add(5);
  EXPECT_DOUBLE_EQ(cdf.median(), 5.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 9.0);
}

TEST(Cdf, FractionAtOrBelow) {
  Cdf cdf;
  cdf.add_all({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(10.0), 1.0);
}

TEST(Cdf, CurveIsMonotone) {
  Cdf cdf;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) cdf.add(rng.uniform(0, 100));
  const auto curve = cdf.curve(40);
  ASSERT_EQ(curve.size(), 40u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.front().second, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Cdf, SingleSample) {
  Cdf cdf;
  cdf.add(42.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 42.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(99), 42.0);
}

TEST(Rng, Determinism) {
  Rng a(99), b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace ccml

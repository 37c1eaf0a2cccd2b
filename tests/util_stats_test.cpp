#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace imobif::util {
namespace {

TEST(Summary, EmptyDefaults) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Empirical, QuantileInterpolation) {
  Empirical e;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) e.add(v);
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.125), 1.5);  // interpolated
}

TEST(Empirical, QuantileThrowsOnEmpty) {
  Empirical e;
  EXPECT_THROW(e.quantile(0.5), std::logic_error);
}

TEST(Empirical, MeanAndSorted) {
  Empirical e;
  e.add(3.0);
  e.add(1.0);
  e.add(2.0);
  EXPECT_DOUBLE_EQ(e.mean(), 2.0);
  const auto& s = e.sorted();
  EXPECT_EQ(s, (std::vector<double>{1.0, 2.0, 3.0}));
}

// Property: quantiles are monotone in q.
TEST(EmpiricalProperty, QuantileMonotone) {
  util::Rng rng(7);
  Empirical e;
  for (int i = 0; i < 500; ++i) e.add(rng.uniform(-10, 10));
  double prev = e.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = e.quantile(q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

TEST(BootstrapCi, ContainsSampleMean) {
  util::Rng rng(31);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(rng.uniform(0.0, 10.0));
  double mean = 0.0;
  for (double v : samples) mean += v;
  mean /= static_cast<double>(samples.size());
  const Interval ci = bootstrap_mean_ci(samples);
  EXPECT_LE(ci.lo, mean);
  EXPECT_GE(ci.hi, mean);
  EXPECT_LT(ci.lo, ci.hi);
}

TEST(BootstrapCi, NarrowsWithSampleSize) {
  util::Rng rng(32);
  std::vector<double> small, large;
  for (int i = 0; i < 20; ++i) small.push_back(rng.exponential(3.0));
  for (int i = 0; i < 2000; ++i) large.push_back(rng.exponential(3.0));
  const Interval s = bootstrap_mean_ci(small);
  const Interval l = bootstrap_mean_ci(large);
  EXPECT_LT(l.hi - l.lo, s.hi - s.lo);
}

TEST(BootstrapCi, DeterministicInSeed) {
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0, 5.0};
  const Interval a = bootstrap_mean_ci(samples, 0.95, 500, 7);
  const Interval b = bootstrap_mean_ci(samples, 0.95, 500, 7);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(BootstrapCi, ConstantSampleDegenerates) {
  const std::vector<double> samples{4.0, 4.0, 4.0};
  const Interval ci = bootstrap_mean_ci(samples);
  EXPECT_DOUBLE_EQ(ci.lo, 4.0);
  EXPECT_DOUBLE_EQ(ci.hi, 4.0);
}

TEST(BootstrapCi, Validation) {
  EXPECT_THROW(bootstrap_mean_ci({}), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci({1.0}, 0.95, 0), std::invalid_argument);
}

// Property: Summary mean equals Empirical mean on the same data.
TEST(StatsProperty, SummaryMatchesEmpirical) {
  util::Rng rng(8);
  Summary s;
  Empirical e;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.exponential(2.0);
    s.add(v);
    e.add(v);
  }
  EXPECT_NEAR(s.mean(), e.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), e.min());
  EXPECT_DOUBLE_EQ(s.max(), e.max());
}

}  // namespace
}  // namespace imobif::util

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "stats/descriptive.h"
#include "stats/empirical.h"
#include "stats/ks.h"

namespace d3l {
namespace {

// KsStatistic over sorted copies: the shape every caller outside the
// engine uses for unsorted data.
double SortedKs(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return KsStatistic(a, b);
}

// Reference: copy, sort, then step both empirical CDFs past every value.
// Kept independent of KsStatistic so the merge over pre-sorted spans is
// checked against a second implementation.
double ReferenceKs(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<double> xs = a;
  xs.insert(xs.end(), b.begin(), b.end());
  double d = 0;
  for (double x : xs) {
    const auto fa = static_cast<double>(std::upper_bound(a.begin(), a.end(), x) - a.begin());
    const auto fb = static_cast<double>(std::upper_bound(b.begin(), b.end(), x) - b.begin());
    d = std::max(d, std::fabs(fa / static_cast<double>(a.size()) -
                              fb / static_cast<double>(b.size())));
  }
  return d;
}

TEST(KsTest, IdenticalSamplesGiveZero) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(SortedKs(a, a), 0.0);
}

TEST(KsTest, DisjointSamplesGiveOne) {
  EXPECT_DOUBLE_EQ(SortedKs({1, 2, 3}, {10, 11, 12}), 1.0);
}

TEST(KsTest, EmptySampleGivesOne) {
  EXPECT_DOUBLE_EQ(SortedKs({}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(SortedKs({1, 2}, {}), 1.0);
}

TEST(KsTest, SymmetricAndUnsortedInputs) {
  std::vector<double> a = {5, 1, 3, 2, 4};
  std::vector<double> b = {2.5, 6, 0.5, 3.5};
  EXPECT_DOUBLE_EQ(SortedKs(a, b), SortedKs(b, a));
}

TEST(KsTest, SameDistributionSmallStatistic) {
  Rng rng(1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) a.push_back(rng.Gaussian(10, 2));
  for (int i = 0; i < 2000; ++i) b.push_back(rng.Gaussian(10, 2));
  double d = SortedKs(a, b);
  EXPECT_LT(d, 0.06);
  // The same-distribution p-value should not be tiny.
  EXPECT_GT(KsPValue(d, a.size(), b.size()), 0.01);
}

TEST(KsTest, DifferentDistributionsLargeStatistic) {
  Rng rng(2);
  std::vector<double> age;
  std::vector<double> money;
  for (int i = 0; i < 1000; ++i) age.push_back(rng.UniformDouble(0, 100));
  for (int i = 0; i < 1000; ++i) money.push_back(std::exp(rng.Gaussian(8, 1.2)));
  double d = SortedKs(age, money);
  EXPECT_GT(d, 0.5);
  EXPECT_LT(KsPValue(d, age.size(), money.size()), 1e-6);
}

TEST(KsTest, ShiftDetected) {
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 1000; ++i) a.push_back(rng.Gaussian(0, 1));
  for (int i = 0; i < 1000; ++i) b.push_back(rng.Gaussian(1.0, 1));
  EXPECT_GT(SortedKs(a, b), 0.3);
}

TEST(KsTest, SortedSpanMergeMatchesCopyAndSortReference) {
  Rng rng(11);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 300; ++trial) {
    // Unequal sizes, heavy ties (values from a small grid) and, in some
    // trials, infinities at either end.
    const size_t na = 1 + static_cast<size_t>(rng.UniformInt(0, 40));
    const size_t nb = 1 + static_cast<size_t>(rng.UniformInt(0, 70));
    std::vector<double> a;
    std::vector<double> b;
    for (size_t i = 0; i < na; ++i) a.push_back(rng.UniformInt(0, 8) * 0.5);
    for (size_t i = 0; i < nb; ++i) b.push_back(rng.UniformInt(0, 12) * 0.5 - 1.0);
    if (trial % 3 == 0) a.push_back(inf);
    if (trial % 4 == 0) b.push_back(-inf);
    if (trial % 5 == 0) b.push_back(inf);
    const double expected = ReferenceKs(a, b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_TRUE(IsKsSample(a));
    ASSERT_TRUE(IsKsSample(b));
    EXPECT_DOUBLE_EQ(KsStatistic(a, b), expected) << "trial " << trial;
    EXPECT_DOUBLE_EQ(KsStatistic(b, a), expected) << "trial " << trial;
  }
  // Exact values on hand-checked cases.
  const std::vector<double> ties = {1, 1, 1, 2};
  const std::vector<double> other = {1, 2, 2, 2};
  EXPECT_DOUBLE_EQ(KsStatistic(ties, other), 0.5);
  const std::vector<double> infs = {-inf, inf};
  const std::vector<double> finite = {0};
  EXPECT_DOUBLE_EQ(KsStatistic(infs, finite), 0.5);
  EXPECT_DOUBLE_EQ(KsStatistic(infs, infs), 0.0);
}

TEST(KsTest, IsKsSampleRejectsUnsortedAndNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(IsKsSample(std::vector<double>{}));
  EXPECT_TRUE(IsKsSample(std::vector<double>{-inf, -1, 0, 0, 3, inf}));
  EXPECT_FALSE(IsKsSample(std::vector<double>{1, 0}));
  EXPECT_FALSE(IsKsSample(std::vector<double>{0, 2, 1, 3}));
  // NaN compares false both ways, so an order check alone would pass these.
  EXPECT_FALSE(IsKsSample(std::vector<double>{nan}));
  EXPECT_FALSE(IsKsSample(std::vector<double>{1, nan, 0}));
  EXPECT_FALSE(IsKsSample(std::vector<double>{0, 1, nan}));
}

TEST(EmpiricalTest, CdfAndCcdf) {
  EmpiricalDistribution d({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(1), 0.25);
  EXPECT_DOUBLE_EQ(d.Cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(4), 1.0);
  EXPECT_DOUBLE_EQ(d.Ccdf(1), 0.75);
  EXPECT_DOUBLE_EQ(d.Ccdf(4), 0.0);
}

TEST(EmpiricalTest, EmptyDistribution) {
  EmpiricalDistribution d({});
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.Ccdf(0.5), 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
}

TEST(EmpiricalTest, Quantiles) {
  EmpiricalDistribution d({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(d.Quantile(0), 1);
  EXPECT_DOUBLE_EQ(d.Quantile(1), 5);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 3);
  EXPECT_DOUBLE_EQ(d.min(), 1);
  EXPECT_DOUBLE_EQ(d.max(), 5);
}

TEST(EmpiricalTest, SmallestValueGetsLargestCcdfWeight) {
  // The Eq. 2 intuition: the smallest distance has the highest weight.
  EmpiricalDistribution d({0.1, 0.5, 0.9});
  EXPECT_GT(d.Ccdf(0.1), d.Ccdf(0.5));
  EXPECT_GT(d.Ccdf(0.5), d.Ccdf(0.9));
}

TEST(DescriptiveTest, Summarize) {
  Summary s = Summarize({2, 4, 6});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4);
  EXPECT_DOUBLE_EQ(s.min, 2);
  EXPECT_DOUBLE_EQ(s.max, 6);
  EXPECT_NEAR(s.variance, 8.0 / 3.0, 1e-12);
  Summary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
}

TEST(DescriptiveTest, JaccardAndOverlap) {
  EXPECT_DOUBLE_EQ(JaccardFromCounts(2, 4, 4), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(JaccardFromCounts(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficientFromCounts(2, 2, 10), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficientFromCounts(0, 0, 5), 0.0);
}

}  // namespace
}  // namespace d3l

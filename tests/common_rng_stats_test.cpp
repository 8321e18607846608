#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace aks::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), Error);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW((void)rng.uniform_index(0), Error);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalShiftedAndScaled) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LognormalMedianApproximatelyMedian) {
  Rng rng(9);
  std::vector<double> xs(10001);
  for (auto& x : xs) x = rng.lognormal_median(4.0, 0.5);
  std::nth_element(xs.begin(), xs.begin() + 5000, xs.end());
  EXPECT_NEAR(xs[5000], 4.0, 0.15);
  EXPECT_THROW((void)rng.lognormal_median(-1.0, 0.5), Error);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ForkSeedProducesIndependentStreams) {
  Rng parent(42);
  Rng child1(parent.fork_seed());
  Rng child2(parent.fork_seed());
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(Stats, MeanAndVariance) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptyRangesThrow) {
  const std::span<const double> empty;
  EXPECT_THROW((void)mean(empty), Error);
  EXPECT_THROW((void)geometric_mean(empty), Error);
  EXPECT_THROW((void)median(empty), Error);
  EXPECT_THROW((void)argmax(empty), Error);
}

TEST(Stats, GeometricMeanMatchesClosedForm) {
  const double xs[] = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const double xs[] = {1.0, 0.0};
  EXPECT_THROW((void)geometric_mean(xs), Error);
}

TEST(Stats, GeometricMeanLessThanArithmeticOnSpread) {
  const double xs[] = {0.1, 0.9, 0.5, 0.99};
  EXPECT_LT(geometric_mean(xs), mean(xs));
}

TEST(Stats, MedianEvenAndOdd) {
  const double odd[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const double even[] = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, QuantileEndpointsAndMid) {
  const double xs[] = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 20.0);
  EXPECT_THROW((void)quantile(xs, 1.5), Error);
}

TEST(Stats, ArgmaxArgminFirstOccurrence) {
  const double xs[] = {1.0, 3.0, 3.0, 0.5, 0.5};
  EXPECT_EQ(argmax(xs), 1u);
  // argsort is stable: the first occurrence of the minimum sorts first.
  EXPECT_EQ(argsort(xs).front(), 3u);
}

TEST(Stats, ArgsortAscendingAndDescending) {
  const double xs[] = {3.0, 1.0, 2.0};
  const auto asc = argsort(xs);
  EXPECT_EQ(asc, (std::vector<std::size_t>{1, 2, 0}));
  const auto desc = argsort_descending(xs);
  EXPECT_EQ(desc, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(Stats, ArgsortStableOnTies) {
  const double xs[] = {1.0, 1.0, 1.0};
  EXPECT_EQ(argsort(xs), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(argsort_descending(xs), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Stats, RanksHandleTiesWithAverages) {
  const double xs[] = {10.0, 30.0, 20.0, 30.0};
  const auto r = ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
  EXPECT_DOUBLE_EQ(r[1], 3.5);  // tied for ranks 3 and 4
  EXPECT_DOUBLE_EQ(r[3], 3.5);
}

TEST(Stats, PearsonKnownValues) {
  const double xs[] = {1, 2, 3, 4};
  const double ys[] = {2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  const double neg[] = {8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(xs, neg), -1.0, 1e-12);
  const double constant[] = {5, 5, 5, 5};
  EXPECT_THROW((void)pearson_correlation(xs, constant), Error);
  EXPECT_THROW((void)pearson_correlation(xs, std::vector<double>{1.0}), Error);
}

TEST(Stats, SpearmanIsRankInvariant) {
  // A monotone nonlinear map preserves ranks exactly.
  const double xs[] = {1, 2, 3, 4, 5};
  const double ys[] = {1, 8, 27, 64, 125};  // x^3
  EXPECT_NEAR(spearman_correlation(xs, ys), 1.0, 1e-12);
  const double zs[] = {5, 1, 4, 2, 3};
  const double s = spearman_correlation(xs, zs);
  EXPECT_GT(s, -1.0);
  EXPECT_LT(s, 1.0);
}

TEST(Stats, MinMaxValues) {
  const double xs[] = {4.0, -2.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -2.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

}  // namespace
}  // namespace aks::common

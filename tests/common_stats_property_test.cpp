// Property-based tests for the statistics helpers backing the robust
// measurement path. All randomness comes from common::Rng with fixed seeds,
// so every "random" property case is reproducible bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace aks::common {
namespace {

std::vector<double> random_samples(Rng& rng, std::size_t n, double lo,
                                   double hi) {
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

TEST(StatsProperty, MedianIsWithinRangeAndOrderInvariant) {
  Rng rng(101);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(40);
    auto xs = random_samples(rng, n, -50.0, 50.0);
    const double med = median(xs);
    EXPECT_GE(med, *std::min_element(xs.begin(), xs.end()));
    EXPECT_LE(med, *std::max_element(xs.begin(), xs.end()));
    auto shuffled = xs;
    rng.shuffle(shuffled);
    EXPECT_DOUBLE_EQ(median(shuffled), med);
    // At least half the samples lie on each side (median property).
    const auto at_most = static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(),
                      [med](double x) { return x <= med; }));
    const auto at_least = static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(),
                      [med](double x) { return x >= med; }));
    EXPECT_GE(2 * at_most, n);
    EXPECT_GE(2 * at_least, n);
  }
}

TEST(StatsProperty, BandMinIsPlainMinWhenSpreadWithinBand) {
  // Samples spanning less than the band are all within it of the median:
  // nothing is dropped and the result is the exact minimum.
  Rng rng(202);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(20);
    const double lo = rng.uniform(1e-6, 1.0);
    auto xs = random_samples(rng, n, lo, 2.0 * lo);
    const double expected = *std::min_element(xs.begin(), xs.end());
    std::size_t rejected = 99;
    EXPECT_EQ(min_within_band(xs, 2.0, &rejected), expected);
    EXPECT_EQ(rejected, 0u);
  }
}

TEST(StatsProperty, BandMinDropsOnlySamplesOutsideTheBand) {
  Rng rng(303);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(20);
    std::vector<double> xs(n);
    for (auto& x : xs) x = std::exp(rng.uniform(-3.0, 3.0));
    const double med = median(xs);
    std::size_t outside = 0;
    double expected = std::numeric_limits<double>::infinity();
    for (const double x : xs) {
      if (x * 2.0 < med || x > 2.0 * med) {
        ++outside;
      } else {
        expected = std::min(expected, x);
      }
    }
    std::size_t rejected = 0;
    EXPECT_EQ(min_within_band(xs, 2.0, &rejected), expected);
    EXPECT_EQ(rejected, outside);
    EXPECT_LT(rejected, n);
  }
}

TEST(StatsProperty, RobustPipelineRecoversTrueValueUnderOutliers) {
  // End-to-end property mirroring the measurement path: a cluster plus fast
  // and slow outliers; dropping samples outside 2x of the median and taking
  // the minimum lands near the true center.
  Rng rng(707);
  for (int trial = 0; trial < 50; ++trial) {
    const double truth = rng.uniform(1e-4, 1e-2);
    std::vector<double> xs;
    for (int i = 0; i < 9; ++i) {
      xs.push_back(truth * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)));
    }
    xs.push_back(truth * 64.0);  // slow outlier
    xs.push_back(truth / 64.0);  // fast outlier (attacks best-of-N)
    rng.shuffle(xs);
    // The naive best-of reduction is fooled by the fast outlier.
    EXPECT_LT(min_value(xs), 0.5 * truth);
    std::size_t rejected = 0;
    EXPECT_NEAR(min_within_band(xs, 2.0, &rejected), truth, 0.05 * truth);
    EXPECT_EQ(rejected, 2u);
  }
}

}  // namespace
}  // namespace aks::common

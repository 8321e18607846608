#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/linalg.hpp"
#include "ml/pca.hpp"
#include "ml/scaler.hpp"

namespace aks::ml {
namespace {

/// Data with variance concentrated along a known direction.
Matrix anisotropic_data(std::size_t n, std::size_t d, std::uint64_t seed) {
  common::Rng rng(seed);
  Matrix x(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    const double main_axis = rng.normal(0.0, 10.0);
    for (std::size_t c = 0; c < d; ++c) {
      // The dominant direction is (1, 1, ..., 1)/sqrt(d).
      x(r, c) = main_axis + rng.normal(0.0, 0.5);
    }
  }
  return x;
}

TEST(StandardScaler, TransformsToZeroMeanUnitVariance) {
  common::Rng rng(5);
  Matrix x(50, 3);
  for (auto& v : x.data()) v = rng.uniform(10, 200);
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 3; ++c) {
    double sum = 0, sumsq = 0;
    for (std::size_t r = 0; r < 50; ++r) {
      sum += z(r, c);
      sumsq += z(r, c) * z(r, c);
    }
    EXPECT_NEAR(sum / 50, 0.0, 1e-12);
    EXPECT_NEAR(sumsq / 50, 1.0, 1e-9);
  }
}

TEST(StandardScaler, ConstantColumnsAreSafe) {
  Matrix x{{5, 1}, {5, 2}, {5, 3}};
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(z(r, 0), 0.0);
}

TEST(StandardScaler, RowTransformMatchesMatrixTransform) {
  common::Rng rng(1);
  Matrix x(10, 4);
  for (auto& v : x.data()) v = rng.normal(3, 7);
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  for (std::size_t r = 0; r < 10; ++r) {
    const auto row = scaler.transform_row(x.row(r));
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(row[c], z(r, c));
  }
}

TEST(StandardScaler, UseBeforeFitThrows) {
  StandardScaler scaler;
  EXPECT_THROW((void)scaler.transform(Matrix(2, 2)), common::Error);
}

TEST(Pca, RecoversDominantDirection) {
  const Matrix x = anisotropic_data(100, 4, 11);
  Pca pca;
  pca.fit(x);
  // First component should align with (1,1,1,1)/2 up to sign.
  const auto axis = pca.components().row(0);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(std::abs(axis[c]), 0.5, 0.05);
  }
  // And carry nearly all the variance.
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.95);
}

TEST(Pca, ExplainedVarianceRatiosAreSortedAndSumToOne) {
  common::Rng rng(2);
  Matrix x(60, 6);
  for (auto& v : x.data()) v = rng.normal();
  Pca pca;
  pca.fit(x);
  const auto& ratios = pca.explained_variance_ratio();
  double total = 0;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    total += ratios[i];
    if (i > 0) {
      EXPECT_LE(ratios[i], ratios[i - 1] + 1e-12);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Pca, GramAndCovarianceRoutesAgree) {
  // Same data seen tall (n > d, covariance route) and wide (d > n, Gram
  // route) must produce identical spectra for the shared components.
  const Matrix tall = anisotropic_data(40, 6, 3);
  const Matrix wide = tall.transposed();  // 6 samples, 40 features

  Pca pca_tall;
  pca_tall.fit(tall);
  Pca pca_wide;
  pca_wide.fit(wide);
  // Only sanity: both produce unit-norm components.
  for (std::size_t i = 0; i < pca_tall.num_components(); ++i) {
    EXPECT_NEAR(norm(pca_tall.components().row(i)), 1.0, 1e-9);
  }
  for (std::size_t i = 0; i < pca_wide.num_components(); ++i) {
    EXPECT_NEAR(norm(pca_wide.components().row(i)), 1.0, 1e-9);
  }
  // Wide route keeps at most n-1 components.
  EXPECT_LE(pca_wide.num_components(), 5u);
}

TEST(Pca, GramRouteTransformMatchesProjection) {
  common::Rng rng(8);
  Matrix x(10, 30);  // wide: Gram route
  for (auto& v : x.data()) v = rng.normal();
  Pca pca;
  pca.fit(x);
  const Matrix z = pca.transform(x);
  // Projections must reproduce variance: column c of z has variance equal
  // to the c-th eigenvalue.
  for (std::size_t comp = 0; comp < std::min<std::size_t>(3, z.cols());
       ++comp) {
    double sum = 0, sumsq = 0;
    for (std::size_t r = 0; r < z.rows(); ++r) {
      sum += z(r, comp);
      sumsq += z(r, comp) * z(r, comp);
    }
    const double mean = sum / static_cast<double>(z.rows());
    const double var =
        (sumsq - static_cast<double>(z.rows()) * mean * mean) /
        static_cast<double>(z.rows() - 1);
    EXPECT_NEAR(var, pca.explained_variance()[comp],
                1e-6 * pca.explained_variance()[comp] + 1e-9);
  }
}

TEST(Pca, InverseTransformRoundTripsInSubspace) {
  const Matrix x = anisotropic_data(50, 5, 17);
  Pca pca;  // keep all components
  pca.fit(x);
  const Matrix z = pca.transform(x);
  const Matrix back = pca.inverse_transform(z);
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c)
      EXPECT_NEAR(back(r, c), x(r, c), 1e-6);
}

TEST(Pca, TruncationReducesComponents) {
  const Matrix x = anisotropic_data(50, 8, 23);
  Pca pca(2);
  pca.fit(x);
  EXPECT_EQ(pca.num_components(), 2u);
  EXPECT_EQ(pca.transform(x).cols(), 2u);
}

/// truncate(k) on a full fit must equal Pca(k).fit bit for bit.
void expect_truncation_matches_refit(const Matrix& x, std::size_t k) {
  Pca truncated;
  truncated.fit(x);
  ASSERT_GT(truncated.num_components(), k);
  truncated.truncate(k);
  Pca refit(static_cast<int>(k));
  refit.fit(x);
  ASSERT_EQ(truncated.num_components(), k);
  EXPECT_EQ(truncated.components(), refit.components());
  EXPECT_EQ(truncated.explained_variance(), refit.explained_variance());
  EXPECT_EQ(truncated.explained_variance_ratio(),
            refit.explained_variance_ratio());
  EXPECT_EQ(truncated.mean(), refit.mean());
  const Matrix z = truncated.transform(x);
  EXPECT_EQ(z, refit.transform(x));
  EXPECT_EQ(truncated.inverse_transform(z), refit.inverse_transform(z));
}

TEST(Pca, TruncateEqualsRefitOnCovarianceRoute) {
  expect_truncation_matches_refit(anisotropic_data(50, 8, 23), 3);
}

TEST(Pca, TruncateEqualsRefitOnGramRoute) {
  common::Rng rng(29);
  Matrix x(12, 40);  // wide: Gram route
  for (auto& v : x.data()) v = rng.normal();
  expect_truncation_matches_refit(x, 4);
}

TEST(Pca, TruncateRejectsBadCounts) {
  Pca pca;
  EXPECT_THROW(pca.truncate(1), common::Error);  // before fit
  pca.fit(anisotropic_data(20, 4, 5));
  EXPECT_THROW(pca.truncate(0), common::Error);
  EXPECT_THROW(pca.truncate(pca.num_components() + 1), common::Error);
}

TEST(Pca, ComponentsForVarianceThresholds) {
  const Matrix x = anisotropic_data(80, 6, 31);
  Pca pca;
  pca.fit(x);
  const std::size_t k80 = pca.components_for_variance(0.8);
  const std::size_t k99 = pca.components_for_variance(0.99);
  EXPECT_GE(k99, k80);
  EXPECT_EQ(k80, 1u);  // one dominant direction
  EXPECT_THROW((void)pca.components_for_variance(0.0), common::Error);
  EXPECT_THROW((void)pca.components_for_variance(1.5), common::Error);
}

TEST(Pca, UseBeforeFitThrows) {
  Pca pca;
  EXPECT_THROW((void)pca.transform(Matrix(2, 2)), common::Error);
  EXPECT_THROW((void)pca.components_for_variance(0.9), common::Error);
}

TEST(Pca, TooFewSamplesThrows) {
  Pca pca;
  EXPECT_THROW(pca.fit(Matrix(1, 3)), common::Error);
}

}  // namespace
}  // namespace aks::ml

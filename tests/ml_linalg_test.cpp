#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/linalg.hpp"

namespace aks::ml {
namespace {

/// y = A * x.
std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  std::vector<double> y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
  return y;
}

TEST(Linalg, DotNormDistance) {
  const double a[] = {3, 4};
  const double b[] = {0, 0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25);
  EXPECT_DOUBLE_EQ(norm(a), 5);
  EXPECT_DOUBLE_EQ(distance(a, b), 5);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25);
  EXPECT_THROW((void)dot(a, std::vector<double>{1.0}), common::Error);
}

TEST(Linalg, ColumnMeansAndCentering) {
  const Matrix x{{1, 10}, {3, 20}};
  const auto means = column_means(x);
  EXPECT_DOUBLE_EQ(means[0], 2);
  EXPECT_DOUBLE_EQ(means[1], 15);
  const Matrix centered = center_columns(x, means);
  EXPECT_DOUBLE_EQ(centered(0, 0), -1);
  EXPECT_DOUBLE_EQ(centered(1, 1), 5);
  const auto new_means = column_means(centered);
  EXPECT_NEAR(new_means[0], 0, 1e-15);
  EXPECT_NEAR(new_means[1], 0, 1e-15);
}

TEST(Linalg, CovarianceDiagonalIsVariance) {
  const Matrix x{{1, 0}, {2, 0}, {3, 0}};
  const Matrix cov = covariance(x);
  EXPECT_DOUBLE_EQ(cov(0, 0), 1.0);  // var{1,2,3} = 1 (n-1 denom)
  EXPECT_DOUBLE_EQ(cov(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 0.0);
}

TEST(Linalg, CovarianceIsSymmetric) {
  common::Rng rng(1);
  Matrix x(20, 5);
  for (auto& v : x.data()) v = rng.normal();
  const Matrix cov = covariance(x);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_DOUBLE_EQ(cov(i, j), cov(j, i));
}

TEST(Eigen, DiagonalMatrixEigenvaluesSorted) {
  const Matrix a{{2, 0, 0}, {0, 5, 0}, {0, 0, 1}};
  const auto result = symmetric_eigen(a);
  ASSERT_EQ(result.eigenvalues.size(), 3u);
  EXPECT_NEAR(result.eigenvalues[0], 5, 1e-10);
  EXPECT_NEAR(result.eigenvalues[1], 2, 1e-10);
  EXPECT_NEAR(result.eigenvalues[2], 1, 1e-10);
}

TEST(Eigen, Known2x2) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix a{{2, 1}, {1, 2}};
  const auto result = symmetric_eigen(a);
  EXPECT_NEAR(result.eigenvalues[0], 3, 1e-10);
  EXPECT_NEAR(result.eigenvalues[1], 1, 1e-10);
  // Leading eigenvector is (1,1)/sqrt(2) up to sign.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(result.eigenvectors(0, 0)), inv_sqrt2, 1e-10);
  EXPECT_NEAR(std::abs(result.eigenvectors(0, 1)), inv_sqrt2, 1e-10);
}

TEST(Eigen, ReconstructsRandomSymmetricMatrix) {
  common::Rng rng(7);
  const std::size_t n = 12;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.normal();
      a(j, i) = a(i, j);
    }
  const auto result = symmetric_eigen(a);
  // A v_i = lambda_i v_i for every eigenpair.
  for (std::size_t comp = 0; comp < n; ++comp) {
    const auto av = matvec(a, result.eigenvectors.row(comp));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], result.eigenvalues[comp] * result.eigenvectors(comp, i),
                  1e-8);
    }
  }
}

TEST(Eigen, EigenvectorsAreOrthonormal) {
  common::Rng rng(9);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.uniform(-1, 1);
      a(j, i) = a(i, j);
    }
  const auto result = symmetric_eigen(a);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double expected = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(dot(result.eigenvectors.row(i), result.eigenvectors.row(j)),
                  expected, 1e-9);
    }
  }
}

TEST(Eigen, TraceEqualsEigenvalueSum) {
  common::Rng rng(3);
  const std::size_t n = 10;
  Matrix a(n, n);
  double trace = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.normal();
      a(j, i) = a(i, j);
    }
    trace += a(i, i);
  }
  const auto result = symmetric_eigen(a);
  double sum = 0;
  for (const double v : result.eigenvalues) sum += v;
  EXPECT_NEAR(sum, trace, 1e-9);
}

/// Checks A v_i = lambda_i v_i, orthonormal rows and descending order, at
/// the tolerances of the small-matrix tests above.
void expect_valid_eigendecomposition(const Matrix& a, const EigenResult& r) {
  const std::size_t n = a.rows();
  ASSERT_EQ(r.eigenvalues.size(), n);
  ASSERT_EQ(r.eigenvectors.rows(), n);
  ASSERT_EQ(r.eigenvectors.cols(), n);
  double worst_residual = 0.0;
  double worst_orthonormality = 0.0;
  for (std::size_t comp = 0; comp < n; ++comp) {
    const auto v = r.eigenvectors.row(comp);
    const auto av = matvec(a, v);
    for (std::size_t i = 0; i < n; ++i) {
      worst_residual = std::max(
          worst_residual, std::abs(av[i] - r.eigenvalues[comp] * v[i]));
    }
    for (std::size_t other = 0; other < n; ++other) {
      const double expected = comp == other ? 1.0 : 0.0;
      worst_orthonormality = std::max(
          worst_orthonormality,
          std::abs(dot(v, r.eigenvectors.row(other)) - expected));
    }
    if (comp > 0) {
      EXPECT_GE(r.eigenvalues[comp - 1], r.eigenvalues[comp]);
    }
  }
  EXPECT_LE(worst_residual, 1e-8);
  EXPECT_LE(worst_orthonormality, 1e-9);
}

TEST(Eigen, RankDeficientGramAtProductionShape) {
  // The PCA Gram route sees XX^T for ~170 shapes whose performance vectors
  // span far fewer than 170 directions.
  common::Rng rng(11);
  const std::size_t n = 172;
  const std::size_t rank = 40;
  Matrix x(n, rank);
  for (auto& v : x.data()) v = rng.normal();
  Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) gram(i, j) = dot(x.row(i), x.row(j));
  }
  const auto result = symmetric_eigen(gram);
  expect_valid_eigendecomposition(gram, result);
  EXPECT_GT(result.eigenvalues[rank - 1], 1.0);
  for (std::size_t i = rank; i < n; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], 0.0, 1e-10 * result.eigenvalues[0]);
  }
}

TEST(Eigen, IdentityHasOneRepeatedEigenvalue) {
  const std::size_t n = 6;
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0;
  const auto result = symmetric_eigen(a);
  expect_valid_eigendecomposition(a, result);
  for (const double v : result.eigenvalues) EXPECT_NEAR(v, 1.0, 1e-10);
}

TEST(Eigen, BlockDiagonalWithRepeatedEigenvalues) {
  // Two copies of [[2,1],[1,2]] (eigenvalues 3, 1) and a lone 3: the
  // spectrum is {3, 3, 3, 1, 1}.
  const Matrix a{{2, 1, 0, 0, 0},
                 {1, 2, 0, 0, 0},
                 {0, 0, 2, 1, 0},
                 {0, 0, 1, 2, 0},
                 {0, 0, 0, 0, 3}};
  const auto result = symmetric_eigen(a);
  expect_valid_eigendecomposition(a, result);
  const std::vector<double> expected = {3, 3, 3, 1, 1};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(result.eigenvalues[i], expected[i], 1e-10);
  }
}

TEST(Eigen, OneByOne) {
  const Matrix a{{-4.5}};
  const auto result = symmetric_eigen(a);
  expect_valid_eigendecomposition(a, result);
  EXPECT_DOUBLE_EQ(result.eigenvalues[0], -4.5);
  EXPECT_DOUBLE_EQ(std::abs(result.eigenvectors(0, 0)), 1.0);
}

TEST(Eigen, EmptyMatrixHasNoEigenpairs) {
  const auto result = symmetric_eigen(Matrix(0, 0));
  EXPECT_TRUE(result.eigenvalues.empty());
  EXPECT_EQ(result.eigenvectors.rows(), 0u);
}

TEST(Eigen, NonSquareThrows) {
  EXPECT_THROW((void)symmetric_eigen(Matrix(2, 3)), common::Error);
  EXPECT_THROW((void)symmetric_eigen(Matrix(172, 171)), common::Error);
}

TEST(Linalg, PairwiseDistancesProperties) {
  const Matrix x{{0, 0}, {3, 4}, {6, 8}};
  const Matrix d = pairwise_distances(x);
  EXPECT_DOUBLE_EQ(d(0, 0), 0);
  EXPECT_DOUBLE_EQ(d(0, 1), 5);
  EXPECT_DOUBLE_EQ(d(1, 0), 5);
  EXPECT_DOUBLE_EQ(d(0, 2), 10);
  // Triangle inequality on this collinear set is tight.
  EXPECT_NEAR(d(0, 2), d(0, 1) + d(1, 2), 1e-12);
}

}  // namespace
}  // namespace aks::ml

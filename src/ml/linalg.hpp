// Dense linear algebra for the ML stack.
//
// Everything operates on common::Matrix (row-major double). The symmetric
// eigensolver is direct: Householder reduction to tridiagonal form, then
// implicit QL with Wilkinson shifts (the tred2/tql2 pair, Golub & Van Loan
// 8.3) — O(n^3) with a small constant, for the covariance/Gram matrices
// (<= 640 x 640) this library sees.
#pragma once

#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace aks::ml {

using common::Matrix;

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
[[nodiscard]] double norm(std::span<const double> a);

/// Squared Euclidean distance between two vectors.
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b);

/// Euclidean distance.
[[nodiscard]] double distance(std::span<const double> a,
                              std::span<const double> b);

/// Column means of a matrix.
[[nodiscard]] std::vector<double> column_means(const Matrix& x);

/// Returns X with column means subtracted.
[[nodiscard]] Matrix center_columns(const Matrix& x,
                                    std::span<const double> means);

/// Sample covariance matrix (n-1 denominator) of the rows of X.
[[nodiscard]] Matrix covariance(const Matrix& x);

/// Result of a symmetric eigendecomposition, sorted by descending
/// eigenvalue. eigenvectors.row(i) is the unit eigenvector for
/// eigenvalues[i].
struct EigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;
};

/// Eigendecomposition of a symmetric matrix (Householder + implicit QL).
/// Throws if `a` is not square; symmetry is assumed (the lower triangle is
/// read).
[[nodiscard]] EigenResult symmetric_eigen(const Matrix& a);

/// Pairwise Euclidean distance matrix between rows of X (symmetric, zero
/// diagonal).
[[nodiscard]] Matrix pairwise_distances(const Matrix& x);

}  // namespace aks::ml

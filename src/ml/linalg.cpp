#include "ml/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace aks::ml {

double dot(std::span<const double> a, std::span<const double> b) {
  AKS_CHECK(a.size() == b.size(), "dot: size mismatch " << a.size() << " vs "
            << b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double squared_distance(std::span<const double> a, std::span<const double> b) {
  AKS_CHECK(a.size() == b.size(), "distance: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

std::vector<double> column_means(const Matrix& x) {
  AKS_CHECK(x.rows() > 0, "column_means of empty matrix");
  std::vector<double> means(x.cols(), 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) means[c] += row[c];
  }
  for (auto& m : means) m /= static_cast<double>(x.rows());
  return means;
}

Matrix center_columns(const Matrix& x, std::span<const double> means) {
  AKS_CHECK(means.size() == x.cols(), "center_columns: mean size mismatch");
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c)
      out(r, c) = x(r, c) - means[c];
  return out;
}

Matrix covariance(const Matrix& x) {
  AKS_CHECK(x.rows() >= 2, "covariance needs at least 2 rows");
  const auto means = column_means(x);
  const Matrix centered = center_columns(x, means);
  const std::size_t d = x.cols();
  Matrix cov(d, d, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = centered.row(r);
    for (std::size_t i = 0; i < d; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      for (std::size_t j = i; j < d; ++j) cov(i, j) += ri * row[j];
    }
  }
  const double denom = static_cast<double>(x.rows() - 1);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = i; j < d; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  return cov;
}

namespace {

// Householder reduction of a symmetric matrix to tridiagonal form with the
// orthogonal transform accumulated (tred2; Golub & Van Loan 8.3.1). On entry
// z holds the matrix transposed; only entries z(j, k) with k >= j — the
// lower triangle of the matrix — are read. On exit d is the diagonal, e the
// subdiagonal in e[1..n-1], and row j of z is column j of the transform.
// Storing the transform by rows keeps every inner loop on contiguous memory.
void tridiagonalize(Matrix& z, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = z.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = z(j, n - 1);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      // Row already reduced: skip the reflection.
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = z(j, i - 1);
        z(j, i) = 0.0;
        z(i, j) = 0.0;
      }
    } else {
      // Householder vector, scaled to avoid under/overflow.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      // e = A u on the leading i x i block.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        z(i, j) = f;
        const auto col = z.row(j);
        g = e[j] + col[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += col[k] * d[k];
          e[k] += col[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];

      // Rank-two update A -= u e^T + e u^T.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        const auto col = z.row(j);
        for (std::size_t k = j; k < i; ++k) col[k] -= f * e[k] + g * d[k];
        d[j] = col[i - 1];
        z(j, i) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflections into the transform.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    z(i, n - 1) = z(i, i);
    z(i, i) = 1.0;
    const double h = d[i + 1];
    const auto u = z.row(i + 1);
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        const auto col = z.row(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += u[k] * col[k];
        for (std::size_t k = 0; k <= i; ++k) col[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) u[k] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = z(j, n - 1);
    z(j, n - 1) = 0.0;
  }
  z(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit QL with Wilkinson shifts on the tridiagonal (d, e) from
// tridiagonalize (tql2; Golub & Van Loan 8.3.5). Each Givens rotation
// updates two adjacent rows of z, so on exit row j of z is the unit
// eigenvector for d[j]. Eigenvalues come out unsorted.
void tridiagonal_ql(Matrix& z, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = z.rows();
  // Shifted QL takes a few iterations per eigenvalue; the cap turns a
  // pathological input into an error instead of a hang.
  constexpr int kMaxIterations = 64;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double shift = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find the first negligible subdiagonal entry at or after l.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && !(std::abs(e[m]) <= kEps * tst1)) ++m;

    // Iterate until the block l..m splits at l.
    for (int iteration = 0; m > l && std::abs(e[l]) > kEps * tst1;
         ++iteration) {
      AKS_CHECK(iteration < kMaxIterations,
                "symmetric_eigen: QL iteration did not converge");
      // Wilkinson shift.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift += h;

      // Implicit QL sweep from m up to l.
      p = d[m];
      double c = 1.0;
      double c2 = c;
      double c3 = c;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        const auto lo = z.row(i);
        const auto hi = z.row(i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double zk = hi[k];
          hi[k] = s * lo[k] + c * zk;
          lo[k] = c * lo[k] - s * zk;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift;
    e[l] = 0.0;
  }
}

}  // namespace

EigenResult symmetric_eigen(const Matrix& a) {
  AKS_CHECK(a.rows() == a.cols(), "eigen of non-square matrix");
  const std::size_t n = a.rows();
  EigenResult result;
  if (n == 0) return result;

  Matrix z = a.transposed();  // becomes the eigenvectors, one per row
  std::vector<double> d(n);
  std::vector<double> e(n);
  tridiagonalize(z, d, e);
  tridiagonal_ql(z, d, e);

  const auto order = common::argsort_descending(d);
  result.eigenvalues.resize(n);
  result.eigenvectors.resize(n, n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    const std::size_t src = order[rank];
    result.eigenvalues[rank] = d[src];
    std::copy(z.row(src).begin(), z.row(src).end(),
              result.eigenvectors.row(rank).begin());
  }
  return result;
}

Matrix pairwise_distances(const Matrix& x) {
  const std::size_t n = x.rows();
  Matrix d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dist = distance(x.row(i), x.row(j));
      d(i, j) = dist;
      d(j, i) = dist;
    }
  }
  return d;
}

}  // namespace aks::ml

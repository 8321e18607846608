#include "ml/pca.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "ml/linalg.hpp"

namespace aks::ml {

namespace {

/// The first `k` rows of `m`.
common::Matrix leading_rows(const common::Matrix& m, std::size_t k) {
  common::Matrix out(k, m.cols());
  std::copy_n(m.data().begin(), out.data().size(), out.data().begin());
  return out;
}

}  // namespace

void Pca::fit(const common::Matrix& x) {
  AKS_CHECK(x.rows() >= 2, "PCA needs at least 2 samples, got " << x.rows());
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  mean_ = column_means(x);
  const common::Matrix centered = center_columns(x, mean_);

  // At most min(n-1, d) components carry variance.
  std::size_t max_components = std::min(n - 1, d);
  if (n_components_ > 0) {
    max_components =
        std::min(max_components, static_cast<std::size_t>(n_components_));
  }

  // Gram route when the data is wide: XX^T/(n-1) shares its nonzero
  // eigenvalues with the covariance, and its eigenvectors u give the axes
  // as X^T u / ||X^T u|| — identical components, much cheaper.
  const bool gram_route = d > n;
  EigenResult eigen;
  if (gram_route) {
    common::Matrix gram(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j) {
        const double g = dot(centered.row(i), centered.row(j)) /
                         static_cast<double>(n - 1);
        gram(i, j) = g;
        gram(j, i) = g;
      }
    eigen = symmetric_eigen(gram);
  } else {
    eigen = symmetric_eigen(covariance(centered));
  }

  // Keep the leading components with positive variance.
  std::size_t kept = 0;
  while (kept < max_components && kept < eigen.eigenvalues.size() &&
         eigen.eigenvalues[kept] > 1e-12) {
    ++kept;
  }
  AKS_CHECK(kept > 0, "PCA found no variance in the data");

  if (gram_route) {
    // Only the kept axes are computed.
    components_.resize(kept, d, 0.0);
    for (std::size_t comp = 0; comp < kept; ++comp) {
      const auto axis = components_.row(comp);
      for (std::size_t i = 0; i < n; ++i) {
        const double u = eigen.eigenvectors(comp, i);
        if (u == 0.0) continue;
        const auto row = centered.row(i);
        for (std::size_t c = 0; c < d; ++c) axis[c] += u * row[c];
      }
      const double len = norm(axis);
      if (len > 1e-12) {
        for (std::size_t c = 0; c < d; ++c) axis[c] /= len;
      }
    }
  } else {
    // Covariance route: the eigenvectors are the axes.
    components_ = leading_rows(eigen.eigenvectors, kept);
  }

  // Total variance for the ratio includes *all* variance, not only kept
  // components.
  double total = 0.0;
  for (double v : eigen.eigenvalues) total += std::max(v, 0.0);

  explained_variance_.assign(
      eigen.eigenvalues.begin(),
      eigen.eigenvalues.begin() + static_cast<std::ptrdiff_t>(kept));
  explained_variance_ratio_.resize(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    explained_variance_ratio_[i] =
        total > 0.0 ? explained_variance_[i] / total : 0.0;
  }
}

void Pca::truncate(std::size_t k) {
  AKS_CHECK(fitted(), "PCA used before fit");
  AKS_CHECK(k > 0 && k <= num_components(),
            "PCA truncate: need 1.." << num_components() << " components, got "
            << k);
  components_ = leading_rows(components_, k);
  explained_variance_.resize(k);
  explained_variance_ratio_.resize(k);
  n_components_ = static_cast<int>(k);
}

std::size_t Pca::components_for_variance(double threshold) const {
  AKS_CHECK(fitted(), "PCA used before fit");
  AKS_CHECK(threshold > 0.0 && threshold <= 1.0,
            "variance threshold must be in (0,1], got " << threshold);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < explained_variance_ratio_.size(); ++i) {
    cumulative += explained_variance_ratio_[i];
    if (cumulative >= threshold) return i + 1;
  }
  return explained_variance_ratio_.size();
}

common::Matrix Pca::transform(const common::Matrix& x) const {
  AKS_CHECK(fitted(), "PCA used before fit");
  AKS_CHECK(x.cols() == mean_.size(), "PCA: column count changed");
  common::Matrix out(x.rows(), components_.rows());
  std::vector<double> centered(x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) centered[c] = row[c] - mean_[c];
    for (std::size_t comp = 0; comp < components_.rows(); ++comp)
      out(r, comp) = dot(components_.row(comp), centered);
  }
  return out;
}

common::Matrix Pca::inverse_transform(const common::Matrix& z) const {
  AKS_CHECK(fitted(), "PCA used before fit");
  AKS_CHECK(z.cols() == components_.rows(),
            "inverse_transform: expected " << components_.rows()
            << " components, got " << z.cols());
  common::Matrix out(z.rows(), mean_.size());
  for (std::size_t r = 0; r < z.rows(); ++r) {
    auto out_row = out.row(r);
    std::copy(mean_.begin(), mean_.end(), out_row.begin());
    for (std::size_t comp = 0; comp < components_.rows(); ++comp) {
      const double weight = z(r, comp);
      if (weight == 0.0) continue;
      const auto axis = components_.row(comp);
      for (std::size_t c = 0; c < out_row.size(); ++c)
        out_row[c] += weight * axis[c];
    }
  }
  return out;
}

}  // namespace aks::ml

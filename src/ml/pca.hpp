// Principal component analysis.
//
// Used two ways in the paper: (a) the explained-variance curve that picks
// the target number of kernels (Figure 3), and (b) dimensionality reduction
// ahead of k-means in the PCA+k-means pruner.
//
// When the data has more columns than rows (the 640-wide performance
// vectors with ~140 training rows), the eigendecomposition runs on the
// n x n Gram matrix instead of the d x d covariance — identical components,
// much cheaper — and the feature-space axes are formed only for the kept
// components. One fit serves every dimensionality: pick the count from the
// explained-variance curve, then truncate() instead of refitting.
#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace aks::ml {

class Pca {
 public:
  /// `n_components` <= 0 keeps every component with positive variance.
  explicit Pca(int n_components = 0) : n_components_(n_components) {}

  void fit(const common::Matrix& x);

  /// Keeps only the first `k` components (1 <= k <= num_components()). The
  /// result is bit-identical to Pca(k).fit on the same data, without a
  /// second eigendecomposition.
  void truncate(std::size_t k);

  [[nodiscard]] bool fitted() const { return !explained_variance_.empty(); }
  [[nodiscard]] std::size_t num_components() const {
    return components_.rows();
  }

  /// Row i is the i-th principal axis (unit vector in feature space).
  [[nodiscard]] const common::Matrix& components() const { return components_; }
  [[nodiscard]] const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }
  /// Fraction of total variance per component (sums to <= 1).
  [[nodiscard]] const std::vector<double>& explained_variance_ratio() const {
    return explained_variance_ratio_;
  }
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }

  /// Smallest number of components whose cumulative ratio reaches
  /// `threshold` (e.g. 0.8 -> 4 in the paper).
  [[nodiscard]] std::size_t components_for_variance(double threshold) const;

  /// Projects rows of X into component space (n x num_components).
  [[nodiscard]] common::Matrix transform(const common::Matrix& x) const;

  /// Maps component-space rows back to the original feature space.
  [[nodiscard]] common::Matrix inverse_transform(const common::Matrix& z) const;

 private:
  int n_components_;
  common::Matrix components_;
  std::vector<double> explained_variance_;
  std::vector<double> explained_variance_ratio_;
  std::vector<double> mean_;
};

}  // namespace aks::ml

// Clustering quality metrics, and the sum-of-distances medoid shared by the
// clusterers that have no centroid.
//
// The paper picks its cluster-count range from PCA variance (Figure 3);
// silhouette analysis is the standard alternative, and
// bench/ablation_cluster_count compares the two ways of choosing k.
#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace aks::ml {

/// Mean silhouette coefficient over all points (Rousseeuw 1987):
/// s(i) = (b(i) - a(i)) / max(a(i), b(i)) with a = mean intra-cluster
/// distance and b = mean distance to the nearest other cluster. Requires at
/// least 2 clusters; singleton clusters contribute s = 0 (scikit-learn's
/// convention).
[[nodiscard]] double silhouette_score(const common::Matrix& x,
                                      const std::vector<std::size_t>& labels);

/// Davies-Bouldin index (lower is better): mean over clusters of the worst
/// (scatter_i + scatter_j) / centroid_distance(i, j) ratio.
[[nodiscard]] double davies_bouldin_index(
    const common::Matrix& x, const std::vector<std::size_t>& labels);

/// Per cluster, the row of `x` with the smallest summed distance to the
/// other rows of its cluster (its medoid). `labels[i]` is row i's cluster in
/// [0, num_clusters); rows labelled negative (noise) are skipped.
[[nodiscard]] std::vector<std::size_t> medoid_rows(
    const common::Matrix& x, const std::vector<int>& labels,
    std::size_t num_clusters);

}  // namespace aks::ml

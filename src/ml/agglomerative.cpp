#include "ml/agglomerative.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "ml/cluster_metrics.hpp"
#include "ml/linalg.hpp"

namespace aks::ml {

Agglomerative::Agglomerative(AgglomerativeOptions options)
    : options_(options) {
  AKS_CHECK(options_.n_clusters >= 1, "n_clusters must be positive");
}

void Agglomerative::fit(const common::Matrix& x) {
  const std::size_t n = x.rows();
  AKS_CHECK(n >= static_cast<std::size_t>(options_.n_clusters),
            "need at least n_clusters samples, got " << n);

  common::Matrix dist = pairwise_distances(x);
  std::vector<bool> active(n, true);
  std::vector<std::size_t> sizes(n, 1);
  // Cluster membership as a representative index per row.
  std::vector<std::size_t> rep(n);
  std::iota(rep.begin(), rep.end(), std::size_t{0});

  merge_distances_.clear();
  std::size_t clusters = n;
  const auto target = static_cast<std::size_t>(options_.n_clusters);
  while (clusters > target) {
    // Closest active pair.
    std::size_t best_i = 0;
    std::size_t best_j = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (dist(i, j) < best) {
          best = dist(i, j);
          best_i = i;
          best_j = j;
        }
      }
    }
    merge_distances_.push_back(best);

    // Merge j into i with a Lance-Williams update of the distances.
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == best_i || k == best_j) continue;
      double updated = 0.0;
      switch (options_.linkage) {
        case Linkage::kSingle:
          updated = std::min(dist(best_i, k), dist(best_j, k));
          break;
        case Linkage::kComplete:
          updated = std::max(dist(best_i, k), dist(best_j, k));
          break;
        case Linkage::kAverage: {
          const double ni = static_cast<double>(sizes[best_i]);
          const double nj = static_cast<double>(sizes[best_j]);
          updated = (ni * dist(best_i, k) + nj * dist(best_j, k)) / (ni + nj);
          break;
        }
      }
      dist(best_i, k) = updated;
      dist(k, best_i) = updated;
    }
    sizes[best_i] += sizes[best_j];
    active[best_j] = false;
    for (std::size_t r = 0; r < n; ++r) {
      if (rep[r] == best_j) rep[r] = best_i;
    }
    --clusters;
  }

  // Compact representative indices to labels 0..target-1 (ordered by first
  // appearance, so labelling is deterministic).
  labels_.assign(n, 0);
  std::vector<std::size_t> seen;
  for (std::size_t r = 0; r < n; ++r) {
    const auto it = std::find(seen.begin(), seen.end(), rep[r]);
    if (it == seen.end()) {
      labels_[r] = seen.size();
      seen.push_back(rep[r]);
    } else {
      labels_[r] = static_cast<std::size_t>(std::distance(seen.begin(), it));
    }
  }
  num_clusters_ = seen.size();
}

std::vector<std::size_t> Agglomerative::medoid_rows(
    const common::Matrix& x) const {
  AKS_CHECK(fitted(), "Agglomerative used before fit");
  return ml::medoid_rows(x, std::vector<int>(labels_.begin(), labels_.end()),
                         num_clusters_);
}

}  // namespace aks::ml

#include "ml/cluster_metrics.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "ml/linalg.hpp"

namespace aks::ml {

namespace {

std::size_t validate_labels(const common::Matrix& x,
                            const std::vector<std::size_t>& labels) {
  AKS_CHECK(x.rows() == labels.size(), "labels/rows size mismatch");
  AKS_CHECK(x.rows() >= 2, "need at least 2 points");
  std::size_t num_clusters = 0;
  for (const auto label : labels) {
    num_clusters = std::max(num_clusters, label + 1);
  }
  AKS_CHECK(num_clusters >= 2, "need at least 2 clusters");
  return num_clusters;
}

}  // namespace

double silhouette_score(const common::Matrix& x,
                        const std::vector<std::size_t>& labels) {
  const std::size_t k = validate_labels(x, labels);
  const std::size_t n = x.rows();
  const common::Matrix dist = pairwise_distances(x);

  std::vector<std::size_t> sizes(k, 0);
  for (const auto label : labels) ++sizes[label];

  double total = 0.0;
  std::vector<double> sums(k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t own = labels[i];
    if (sizes[own] <= 1) continue;  // singleton: s = 0 by convention
    std::fill(sums.begin(), sums.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) sums[labels[j]] += dist(i, j);
    }
    const double a = sums[own] / static_cast<double>(sizes[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == own || sizes[c] == 0) continue;
      b = std::min(b, sums[c] / static_cast<double>(sizes[c]));
    }
    total += (b - a) / std::max(a, b);
  }
  return total / static_cast<double>(n);
}

double davies_bouldin_index(const common::Matrix& x,
                            const std::vector<std::size_t>& labels) {
  const std::size_t k = validate_labels(x, labels);
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  // Centroids and mean scatter per cluster.
  common::Matrix centroids(k, d, 0.0);
  std::vector<std::size_t> sizes(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++sizes[labels[i]];
    const auto row = x.row(i);
    auto c = centroids.row(labels[i]);
    for (std::size_t f = 0; f < d; ++f) c[f] += row[f];
  }
  for (std::size_t c = 0; c < k; ++c) {
    AKS_CHECK(sizes[c] > 0, "empty cluster " << c);
    auto row = centroids.row(c);
    for (std::size_t f = 0; f < d; ++f) {
      row[f] /= static_cast<double>(sizes[c]);
    }
  }
  std::vector<double> scatter(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    scatter[labels[i]] += distance(x.row(i), centroids.row(labels[i]));
  }
  for (std::size_t c = 0; c < k; ++c) {
    scatter[c] /= static_cast<double>(sizes[c]);
  }

  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    double worst = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const double separation = distance(centroids.row(i), centroids.row(j));
      AKS_CHECK(separation > 0.0, "coincident centroids " << i << "," << j);
      worst = std::max(worst, (scatter[i] + scatter[j]) / separation);
    }
    total += worst;
  }
  return total / static_cast<double>(k);
}

std::vector<std::size_t> medoid_rows(const common::Matrix& x,
                                     const std::vector<int>& labels,
                                     std::size_t num_clusters) {
  AKS_CHECK(x.rows() == labels.size(),
            "medoid_rows expects the training matrix");
  std::vector<std::size_t> medoids(num_clusters, 0);
  std::vector<double> best(num_clusters,
                           std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (labels[i] < 0) continue;
    const auto c = static_cast<std::size_t>(labels[i]);
    double total = 0.0;
    for (std::size_t j = 0; j < x.rows(); ++j) {
      if (labels[j] == labels[i]) total += distance(x.row(i), x.row(j));
    }
    if (total < best[c]) {
      best[c] = total;
      medoids[c] = i;
    }
  }
  return medoids;
}

}  // namespace aks::ml

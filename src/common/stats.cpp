#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace aks::common {

double mean(std::span<const double> xs) {
  AKS_CHECK(!xs.empty(), "mean of empty range");
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  AKS_CHECK(xs.size() >= 2, "variance needs at least 2 values, got " << xs.size());
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double geometric_mean(std::span<const double> xs) {
  AKS_CHECK(!xs.empty(), "geometric_mean of empty range");
  double log_sum = 0.0;
  for (double x : xs) {
    AKS_CHECK(x > 0.0, "geometric_mean requires positive values, got " << x);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double min_within_band(std::span<double> xs, double band,
                       std::size_t* rejected) {
  AKS_CHECK(!xs.empty(), "min_within_band of empty range");
  AKS_CHECK(band >= 1.0, "min_within_band band must be >= 1, got " << band);
  if (rejected != nullptr) *rejected = 0;
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  // Every sample lies within [min, max] and so does the median, so no
  // sample can be more than max / min away from it.
  if (*hi <= band * *lo) return *lo;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const double med = n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  std::size_t dropped = 0;
  double best = std::numeric_limits<double>::infinity();
  for (const double x : xs) {
    if (x * band < med || x > band * med) {
      ++dropped;
    } else {
      best = std::min(best, x);
    }
  }
  if (rejected != nullptr) *rejected = dropped;
  return best;
}

double quantile(std::span<const double> xs, double q) {
  AKS_CHECK(!xs.empty(), "quantile of empty range");
  AKS_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1], got " << q);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - std::floor(pos);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double min_value(std::span<const double> xs) {
  AKS_CHECK(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  AKS_CHECK(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

std::size_t argmax(std::span<const double> xs) {
  AKS_CHECK(!xs.empty(), "argmax of empty range");
  return static_cast<std::size_t>(
      std::distance(xs.begin(), std::max_element(xs.begin(), xs.end())));
}

std::vector<std::size_t> argsort(std::span<const double> xs) {
  std::vector<std::size_t> idx(xs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  return idx;
}

std::vector<std::size_t> argsort_descending(std::span<const double> xs) {
  std::vector<std::size_t> idx(xs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return xs[a] > xs[b]; });
  return idx;
}

std::vector<double> ranks(std::span<const double> xs) {
  const auto order = argsort(xs);
  std::vector<double> out(xs.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    // Find the run of ties and assign each its average rank.
    std::size_t j = i;
    while (j + 1 < order.size() && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double average_rank =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) out[order[k]] = average_rank;
    i = j + 1;
  }
  return out;
}

double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) {
  AKS_CHECK(xs.size() == ys.size(), "correlation: size mismatch");
  AKS_CHECK(xs.size() >= 2, "correlation needs at least 2 points");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  AKS_CHECK(sxx > 0.0 && syy > 0.0, "correlation of a constant input");
  return sxy / std::sqrt(sxx * syy);
}

double spearman_correlation(std::span<const double> xs,
                            std::span<const double> ys) {
  const auto rx = ranks(xs);
  const auto ry = ranks(ys);
  return pearson_correlation(rx, ry);
}

}  // namespace aks::common

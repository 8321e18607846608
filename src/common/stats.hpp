// Descriptive statistics used by the dataset, evaluation and bench layers.
//
// The paper scores kernel selections with the *geometric* mean of per-shape
// relative performance, so `geometric_mean` is the workhorse here; the rest
// support dataset summaries (Figure 1) and the PCA variance report.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aks::common {

/// Arithmetic mean; requires a non-empty range.
[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); requires at least 2 values.
[[nodiscard]] double variance(std::span<const double> xs);

/// Sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Geometric mean; requires non-empty range of strictly positive values.
[[nodiscard]] double geometric_mean(std::span<const double> xs);

/// Median (average of middle two for even sizes); requires non-empty range.
[[nodiscard]] double median(std::span<const double> xs);

/// Minimum of the samples within a factor `band` of their median: a sample
/// above band * median or below median / band is an outlier and is dropped
/// (the upper middle sample always survives, so the result is defined).
/// When max <= band * min nothing is dropped and this is the plain minimum.
/// Reorders `xs` instead of allocating; requires a non-empty range and
/// band >= 1. `*rejected`, when given, receives the number of samples
/// dropped.
[[nodiscard]] double min_within_band(std::span<double> xs, double band,
                                     std::size_t* rejected = nullptr);

/// Linear-interpolated quantile, q in [0, 1]; requires non-empty range.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

[[nodiscard]] double min_value(std::span<const double> xs);
[[nodiscard]] double max_value(std::span<const double> xs);

/// Index of the maximum element; first occurrence wins ties.
[[nodiscard]] std::size_t argmax(std::span<const double> xs);

/// Indices that would sort `xs` ascending (stable).
[[nodiscard]] std::vector<std::size_t> argsort(std::span<const double> xs);

/// Indices that would sort `xs` descending (stable).
[[nodiscard]] std::vector<std::size_t> argsort_descending(std::span<const double> xs);

/// Fractional ranks of `xs` (average rank for ties), 1-based.
[[nodiscard]] std::vector<double> ranks(std::span<const double> xs);

/// Pearson correlation coefficient; requires >= 2 values and non-constant
/// inputs.
[[nodiscard]] double pearson_correlation(std::span<const double> xs,
                                         std::span<const double> ys);

/// Spearman rank correlation (Pearson on fractional ranks). Used to compare
/// how two timing sources *order* kernel configurations.
[[nodiscard]] double spearman_correlation(std::span<const double> xs,
                                          std::span<const double> ys);

}  // namespace aks::common

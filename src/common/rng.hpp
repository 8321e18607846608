// Deterministic pseudo-random number generation.
//
// AKS requires bit-for-bit reproducible experiments across platforms, so it
// carries its own xoshiro256++ implementation instead of relying on the
// standard library's unspecified distributions. All stochastic components
// (noise injection, k-means++ seeding, dataset splits, forests, SMO) take an
// explicit seed and derive their streams from this generator.
#pragma once

#include <cstdint>
#include <vector>

namespace aks::common {

/// xoshiro256++ by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  /// Initialises state from a 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n);

  /// Standard normal via Box-Muller (deterministic, cached pair).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Lognormal such that the *median* of the distribution is `median` and
  /// the underlying normal has standard deviation `sigma`.
  double lognormal_median(double median, double sigma);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = uniform_index(i + 1);
      std::swap(v[i], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child seed; used to give each parallel worker or
  /// sub-component its own stream without correlation.
  std::uint64_t fork_seed();

 private:
  std::uint64_t s_[4] = {};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace aks::common

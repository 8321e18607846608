#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace aks::common {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53-bit mantissa: uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  AKS_CHECK(lo <= hi, "uniform: lo " << lo << " > hi " << hi);
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) {
  AKS_CHECK(n > 0, "uniform_index: n must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t bound = n;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return static_cast<std::size_t>(v % bound);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal_median(double median, double sigma) {
  AKS_CHECK(median > 0.0, "lognormal_median: median must be positive");
  return median * std::exp(sigma * normal());
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

std::uint64_t Rng::fork_seed() { return next_u64(); }

}  // namespace aks::common

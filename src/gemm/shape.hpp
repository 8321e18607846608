// GEMM problem shape: C[M x N] = A[M x K] * B[K x N], row-major.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace aks::gemm {

struct GemmShape {
  std::size_t m = 0;
  std::size_t k = 0;
  std::size_t n = 0;

  /// Floating-point operations for one GEMM (multiply + add).
  [[nodiscard]] double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n);
  }

  /// Bytes touched assuming each operand is read/written exactly once
  /// (the compulsory traffic lower bound), with 4-byte elements.
  [[nodiscard]] double min_bytes() const {
    return 4.0 * (static_cast<double>(m) * static_cast<double>(k) +
                  static_cast<double>(k) * static_cast<double>(n) +
                  static_cast<double>(m) * static_cast<double>(n));
  }

  [[nodiscard]] std::string to_string() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  }

  [[nodiscard]] auto operator<=>(const GemmShape&) const = default;
};

/// Throws common::Error naming the shape; the cold half of check_shape.
[[noreturn]] void reject_shape(const GemmShape& shape);

/// The input contract of every GEMM entry point — selection, launch, cost
/// model, store and CLIs: each dimension is positive and each operand's
/// element count (m·k, k·n, m·n) fits in std::size_t. Inline so the check
/// costs a few compares on a hot path.
[[nodiscard]] inline bool valid_shape(const GemmShape& shape) {
  std::size_t elements = 0;
  return shape.m != 0 && shape.k != 0 && shape.n != 0 &&
         !__builtin_mul_overflow(shape.m, shape.k, &elements) &&
         !__builtin_mul_overflow(shape.k, shape.n, &elements) &&
         !__builtin_mul_overflow(shape.m, shape.n, &elements);
}

/// Throws common::Error unless valid_shape(shape). A bad shape is refused
/// before it can be cached, counted, swept, launched or blamed on a kernel;
/// the message is built out of line.
inline void check_shape(const GemmShape& shape) {
  if (!valid_shape(shape)) reject_shape(shape);
}

}  // namespace aks::gemm

/// Hash support so shapes can key unordered containers (the serving layer's
/// sharded cache). SplitMix64-style mixing keeps nearby layer shapes —
/// which differ in one dimension by a small factor — well distributed.
///
/// Mixing scheme: each dimension is folded into the running state with a
/// boost::hash_combine-style step (golden-ratio additive constant plus
/// `h << 6` / `h >> 2` feedback, so equal inputs in different positions
/// land differently — (m,k,n) permutations collide only by chance), then
/// diffused with a SplitMix64 finalizer round (odd multiplicative constant
/// + xor-shift) so every input bit reaches the LOW output bits. The low
/// bits matter: serve::SelectionService picks shards as
/// `hash & (num_shards - 1)`, and real corpora are highly structured
/// (powers of two, small multiples of 8). The seed is pi's fraction —
/// a nothing-up-my-sleeve non-zero start.
/// tests/gemm_shape_hash_test.cpp holds the chi-squared distribution gate
/// over the benchmark corpus; change the scheme and those thresholds must
/// still pass.
template <>
struct std::hash<aks::gemm::GemmShape> {
  [[nodiscard]] std::size_t operator()(
      const aks::gemm::GemmShape& shape) const noexcept {
    auto mix = [](std::uint64_t h, std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
      return h ^ (h >> 31);
    };
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    h = mix(h, shape.m);
    h = mix(h, shape.k);
    h = mix(h, shape.n);
    return static_cast<std::size_t>(h);
  }
};

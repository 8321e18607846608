// Convolution as GEMM via the Winograd F(m x m, 3x3) transformation.
//
// For a dense 3x3 stride-1 convolution the Winograd algorithm lowers each
// batch of m x m output tiles to (m+2)^2 independent GEMMs of identical
// shape [tiles x in_c] * [in_c x out_c]. F(2x2, 3x3) is the second family of
// GEMM shapes the dataset layer extracts; F(4x4, 3x3) is an extension the
// ConvEngine considers as a third lowering. With Lavin & Gray's transform
// matrices B^T, G and A^T:
//
//   V = B^T d B (input tiles), U = G g G^T (filter), Y = A^T (U .* V) A.
//
// One implementation serves both tile sizes; the matrices are tabled in
// winograd.cpp.
#pragma once

#include <functional>
#include <span>

#include "conv/direct.hpp"
#include "gemm/config.hpp"
#include "gemm/registry.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::conv {

/// Launch used for the batched transformed multiplies:
/// gemm::launch_batched_gemm by default. The checked execution mode
/// (src/check) passes a recording launcher (see conv/im2col.hpp).
using BatchedGemmLaunchFn = std::function<syclrt::Event(
    syclrt::Queue&, const gemm::KernelConfig&, std::span<const float>,
    std::span<const float>, std::span<float>, const gemm::GemmShape&,
    std::size_t)>;

/// Batch counts of the batched GEMM launches: one multiply per position of
/// the element-wise product, (m+2)^2 positions for F(m x m, 3x3). These are
/// the `batch` values the symbolic access verifier quantifies the
/// batched-launch summaries over (see src/check/symbolic).
template <int M>
inline constexpr auto kWinogradMultiplies =
    static_cast<std::size_t>((M + 2) * (M + 2));
inline constexpr std::size_t kWinogradF2Multiplies = kWinogradMultiplies<2>;
inline constexpr std::size_t kWinogradF4Multiplies = kWinogradMultiplies<4>;

/// True when the Winograd path supports the convolution (3x3, stride 1).
[[nodiscard]] bool winograd_applicable(const ConvShape& shape);

/// Shape of each of the sixteen F(2x2,3x3) multiplies:
/// M = batch * ceil(out_h/2) * ceil(out_w/2), K = in_c, N = out_c.
[[nodiscard]] gemm::GemmShape winograd_gemm_shape(const ConvShape& shape);

/// Runs the convolution via Winograd F(2x2, 3x3), executing the sixteen
/// multiplies with the tiled GEMM kernel `config` as one batched `launch`.
/// Output layout matches direct_conv2d. Throws when the shape is invalid or
/// not applicable.
void winograd_conv2d(
    syclrt::Queue& queue, const gemm::KernelConfig& config,
    std::span<const float> input, std::span<const float> filter,
    std::span<float> output, const ConvShape& shape,
    const BatchedGemmLaunchFn& launch = gemm::launch_batched_gemm);

/// Shape of each of the thirty-six F(4x4,3x3) multiplies:
/// M = batch * ceil(out_h/4) * ceil(out_w/4), K = in_c, N = out_c.
[[nodiscard]] gemm::GemmShape winograd4_gemm_shape(const ConvShape& shape);

/// Runs the convolution via Winograd F(4x4, 3x3) (same applicability rules
/// as F(2x2, 3x3): dense 3x3, stride 1).
void winograd4_conv2d(
    syclrt::Queue& queue, const gemm::KernelConfig& config,
    std::span<const float> input, std::span<const float> filter,
    std::span<float> output, const ConvShape& shape,
    const BatchedGemmLaunchFn& launch = gemm::launch_batched_gemm);

}  // namespace aks::conv

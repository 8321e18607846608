// The shipping launches of the tiled GEMM family.
//
// This is the piece the paper's library-size argument is about: each of the
// 64 {1,2,4,8}^3 tile/accumulator triples is a separately compiled kernel
// that a shipping library must carry. `launch_gemm` checks the operands,
// then dispatches a KernelConfig's compile-time triple onto its
// instantiation and launches it with the config's runtime work-group shape
// — both through the one dispatch and geometry in gemm/tiled_kernel.hpp.
#pragma once

#include <span>

#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::gemm {

/// Number of compiled kernel instantiations (64: tile_sizes() cubed).
[[nodiscard]] std::size_t registry_size();

/// Runs C = A * B with the given configuration on `queue`.
/// Validates the shape (gemm::check_shape) and operand sizes; throws
/// common::Error for a compile-time triple outside {1,2,4,8}^3. Returns the
/// launch event (with wall time).
syclrt::Event launch_gemm(syclrt::Queue& queue, const KernelConfig& config,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c, const GemmShape& shape);

/// Runs `batch` independent multiplies of identical `shape` as ONE launch.
/// Operands are packed contiguously per batch entry (A: batch*m*k floats,
/// etc.); a batch whose packed operand sizes overflow is rejected. Used by
/// the Winograd path for its transformed multiplies.
syclrt::Event launch_batched_gemm(syclrt::Queue& queue,
                                  const KernelConfig& config,
                                  std::span<const float> a,
                                  std::span<const float> b,
                                  std::span<float> c, const GemmShape& shape,
                                  std::size_t batch);

}  // namespace aks::gemm

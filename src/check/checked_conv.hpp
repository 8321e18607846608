// Checked execution of the convolution lowerings.
//
// The conv module lowers every convolution to the tiled GEMM family
// (im2col: one multiply; Winograd F(2x2)/F(4x4): 16/36 batched multiplies).
// These entry points run the *production* lowering code with the GEMM
// launch swapped for a recording one (the `launch` parameter of each
// lowering, which defaults to the shipping launch), so the patch/transform
// bookkeeping and the kernels are analysed together, and verify the result
// against direct_conv2d.
#pragma once

#include <vector>

#include "check/checked_gemm.hpp"
#include "conv/direct.hpp"
#include "gemm/config.hpp"

namespace aks::check {

/// im2col + checked tiled GEMM vs direct_conv2d.
[[nodiscard]] CheckResult check_im2col_conv(const gemm::KernelConfig& config,
                                            const conv::ConvShape& shape);

/// Winograd F(2x2,3x3) with the checked batched GEMM vs direct_conv2d.
[[nodiscard]] CheckResult check_winograd_conv(const gemm::KernelConfig& config,
                                              const conv::ConvShape& shape);

/// Winograd F(4x4,3x3) with the checked batched GEMM vs direct_conv2d.
[[nodiscard]] CheckResult check_winograd4_conv(
    const gemm::KernelConfig& config, const conv::ConvShape& shape);

/// Conv shapes exercising padding, stride and ragged output tiles.
[[nodiscard]] std::vector<conv::ConvShape> default_conv_corpus();

/// Sweeps a spread of configurations across the conv corpus through all
/// three lowerings (Winograd only where applicable).
[[nodiscard]] RegistryCheckSummary check_conv_lowerings(
    std::size_t config_stride = 80);

}  // namespace aks::check

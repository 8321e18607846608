// Direct (naive) 2-D convolution — the correctness oracle for the GEMM-based
// convolution paths in this module.
//
// Layouts: activations NHWC, filters [kh, kw, in_c, out_c] (HWIO). Only
// square kernels/strides/padding are needed by the network zoo.
#pragma once

#include <cstddef>
#include <span>

namespace aks::conv {

/// Static description of one convolution execution.
struct ConvShape {
  int batch = 1;
  int in_height = 0;
  int in_width = 0;
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 1;
  int stride = 1;
  int padding = 0;

  [[nodiscard]] int out_height() const {
    return (in_height + 2 * padding - kernel) / stride + 1;
  }
  [[nodiscard]] int out_width() const {
    return (in_width + 2 * padding - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t input_size() const {
    return static_cast<std::size_t>(batch) *
           static_cast<std::size_t>(in_height) *
           static_cast<std::size_t>(in_width) *
           static_cast<std::size_t>(in_channels);
  }
  [[nodiscard]] std::size_t filter_size() const {
    return static_cast<std::size_t>(kernel) * static_cast<std::size_t>(kernel) *
           static_cast<std::size_t>(in_channels) *
           static_cast<std::size_t>(out_channels);
  }
  [[nodiscard]] std::size_t output_size() const {
    return static_cast<std::size_t>(batch) *
           static_cast<std::size_t>(out_height()) *
           static_cast<std::size_t>(out_width()) *
           static_cast<std::size_t>(out_channels);
  }
};

/// The shape contract of every entry point in this module: batch, spatial
/// extents, channels, kernel and stride positive, and a non-empty output.
/// Throws common::Error otherwise.
void check_shape(const ConvShape& shape);

/// output[n, y, x, f] = sum_{ky, kx, c} input[n, sy+ky-p, sx+kx-p, c] *
/// filter[ky, kx, c, f]; zero padding outside. Shape and sizes are validated.
void direct_conv2d(std::span<const float> input, std::span<const float> filter,
                   std::span<float> output, const ConvShape& shape);

}  // namespace aks::conv

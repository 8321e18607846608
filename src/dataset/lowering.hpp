// Lowering of network layers to GEMM shapes.
//
// The paper: "Convolutional layers ... can be computed using a matrix
// multiply through transformations such as the im2col and Winograd, while
// fully connected layers are comprised of a matrix multiply and a bias add."
// These are those transformations, at the shape level.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "conv/direct.hpp"
#include "dataset/networks.hpp"
#include "gemm/shape.hpp"

namespace aks::data {

/// Which transformation produced a GEMM shape. kWinograd is F(2x2, 3x3) —
/// the paper's variant; kWinograd4 is the F(4x4, 3x3) extension implemented
/// by conv/winograd.hpp (not part of the paper's dataset).
enum class Transform { kIm2col, kWinograd, kFullyConnected, kWinograd4 };

[[nodiscard]] std::string to_string(Transform t);

/// A GEMM shape together with where it came from.
struct LoweredGemm {
  gemm::GemmShape shape;
  Transform transform = Transform::kIm2col;
  std::string layer;
  std::string network;
  int batch = 1;
};

/// The convolution `conv` executes at `batch` (groups are not carried: a
/// ConvShape is always dense).
[[nodiscard]] conv::ConvShape conv_shape(const ConvLayer& conv, int batch);

/// im2col: C[M x N] with M = batch * out_h * out_w, K = in_c * k * k,
/// N = out_c (conv::im2col_gemm_shape). Returns nullopt for grouped
/// convolutions, which do not lower to one dense GEMM.
[[nodiscard]] std::optional<gemm::GemmShape> im2col_shape(
    const ConvLayer& conv, int batch);

/// Winograd F(2x2, 3x3): sixteen batched multiplies of identical shape
/// M = batch * ceil(out_h/2) * ceil(out_w/2), K = in_c, N = out_c
/// (conv::winograd_gemm_shape). Returns nullopt when the layer is not a
/// dense 3x3 stride-1 convolution.
[[nodiscard]] std::optional<gemm::GemmShape> winograd_shape(
    const ConvLayer& conv, int batch);

/// Fully connected: M = batch, K = in_features, N = out_features.
[[nodiscard]] gemm::GemmShape fc_shape(const FcLayer& fc, int batch);

/// Lowers every layer of `network` at each batch size through every
/// applicable transformation.
[[nodiscard]] std::vector<LoweredGemm> lower_network(
    const Network& network, const std::vector<int>& batch_sizes);

}  // namespace aks::data

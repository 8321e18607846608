#include "dataset/lowering.hpp"

#include "common/error.hpp"
#include "conv/im2col.hpp"
#include "conv/winograd.hpp"

namespace aks::data {

std::string to_string(Transform t) {
  switch (t) {
    case Transform::kIm2col: return "im2col";
    case Transform::kWinograd: return "winograd";
    case Transform::kFullyConnected: return "fc";
    case Transform::kWinograd4: return "winograd4";
  }
  return "?";
}

conv::ConvShape conv_shape(const ConvLayer& conv, int batch) {
  return {batch, conv.in_height, conv.in_width, conv.in_channels,
          conv.out_channels, conv.kernel, conv.stride, conv.padding};
}

std::optional<gemm::GemmShape> im2col_shape(const ConvLayer& conv, int batch) {
  AKS_CHECK(batch > 0, "batch must be positive");
  if (conv.groups != 1) return std::nullopt;
  return conv::im2col_gemm_shape(conv_shape(conv, batch));
}

std::optional<gemm::GemmShape> winograd_shape(const ConvLayer& conv,
                                              int batch) {
  AKS_CHECK(batch > 0, "batch must be positive");
  if (!conv.winograd_applicable()) return std::nullopt;
  return conv::winograd_gemm_shape(conv_shape(conv, batch));
}

gemm::GemmShape fc_shape(const FcLayer& fc, int batch) {
  AKS_CHECK(batch > 0, "batch must be positive");
  gemm::GemmShape shape;
  shape.m = static_cast<std::size_t>(batch);
  shape.k = static_cast<std::size_t>(fc.in_features);
  shape.n = static_cast<std::size_t>(fc.out_features);
  return shape;
}

std::vector<LoweredGemm> lower_network(const Network& network,
                                       const std::vector<int>& batch_sizes) {
  AKS_CHECK(!batch_sizes.empty(), "need at least one batch size");
  std::vector<LoweredGemm> out;
  for (int batch : batch_sizes) {
    for (const auto& conv : network.convs) {
      if (auto shape = im2col_shape(conv, batch)) {
        out.push_back({*shape, Transform::kIm2col, conv.name, network.name,
                       batch});
      }
      if (auto shape = winograd_shape(conv, batch)) {
        out.push_back({*shape, Transform::kWinograd, conv.name, network.name,
                       batch});
      }
    }
    for (const auto& fc : network.fcs) {
      out.push_back({fc_shape(fc, batch), Transform::kFullyConnected, fc.name,
                     network.name, batch});
    }
  }
  return out;
}

}  // namespace aks::data

#include "conv/direct.hpp"

#include "common/error.hpp"

namespace aks::conv {

namespace {
/// Local widening cast for index arithmetic on validated dimensions.
inline std::size_t zu(int v) { return static_cast<std::size_t>(v); }
}  // namespace

void check_shape(const ConvShape& shape) {
  AKS_CHECK(shape.batch > 0 && shape.in_height > 0 && shape.in_width > 0 &&
                shape.in_channels > 0 && shape.out_channels > 0 &&
                shape.kernel > 0 && shape.stride > 0,
            "degenerate conv shape");
  AKS_CHECK(shape.out_height() > 0 && shape.out_width() > 0,
            "conv produces empty output");
}

void direct_conv2d(std::span<const float> input, std::span<const float> filter,
                   std::span<float> output, const ConvShape& shape) {
  check_shape(shape);
  AKS_CHECK(input.size() == shape.input_size(), "input size mismatch");
  AKS_CHECK(filter.size() == shape.filter_size(), "filter size mismatch");
  AKS_CHECK(output.size() == shape.output_size(), "output size mismatch");

  const int oh = shape.out_height();
  const int ow = shape.out_width();
  const auto in_c = static_cast<std::size_t>(shape.in_channels);
  const auto out_c = static_cast<std::size_t>(shape.out_channels);
  const auto in_w = static_cast<std::size_t>(shape.in_width);
  const auto in_h = static_cast<std::size_t>(shape.in_height);

  std::fill(output.begin(), output.end(), 0.0f);
  for (int n = 0; n < shape.batch; ++n) {
    const std::size_t in_base = zu(n) * in_h * in_w * in_c;
    const std::size_t out_base = zu(n) * zu(oh) * zu(ow) * out_c;
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        float* out_px =
            &output[out_base + (zu(y) * zu(ow) + zu(x)) * out_c];
        for (int ky = 0; ky < shape.kernel; ++ky) {
          const int in_y = y * shape.stride + ky - shape.padding;
          if (in_y < 0 || in_y >= shape.in_height) continue;
          for (int kx = 0; kx < shape.kernel; ++kx) {
            const int in_x = x * shape.stride + kx - shape.padding;
            if (in_x < 0 || in_x >= shape.in_width) continue;
            const float* in_px =
                &input[in_base +
                       (zu(in_y) * in_w + zu(in_x)) * in_c];
            const float* filt =
                &filter[(zu(ky) * zu(shape.kernel) + zu(kx)) * in_c * out_c];
            for (std::size_t c = 0; c < in_c; ++c) {
              const float v = in_px[c];
              if (v == 0.0f) continue;
              const float* filt_c = &filt[c * out_c];
              for (std::size_t f = 0; f < out_c; ++f) {
                out_px[f] += v * filt_c[f];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace aks::conv

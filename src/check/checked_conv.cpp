#include "check/checked_conv.hpp"

#include <algorithm>
#include <cstdint>

#include "conv/im2col.hpp"
#include "conv/winograd.hpp"

namespace aks::check {

namespace {

/// Winograd transforms lose more precision than plain summation-order
/// error; the conv oracle comparison uses a correspondingly wider band
/// (matching the conv test suite's expectations).
constexpr double kConvTolerance = 5e-3;

/// Recording flat-GEMM launcher for the im2col hook: copies operands into
/// checked buffers, replays the kernel, copies the result back out.
conv::GemmLaunchFn checked_gemm_launch(AccessMonitor& monitor) {
  return [&monitor](syclrt::Queue& queue, const gemm::KernelConfig& config,
                    std::span<const float> a, std::span<const float> b,
                    std::span<float> c, const gemm::GemmShape& shape) {
    CheckedBuffer<float> a_buf("A", a, monitor);
    CheckedBuffer<float> b_buf("B", b, monitor);
    CheckedBuffer<float> c_buf("C", c.size(), monitor);
    const auto event = launch_checked_gemm(queue, config, a_buf.read(),
                                           b_buf.read(), c_buf.write(), shape);
    const auto result = c_buf.host();
    std::copy(result.begin(), result.end(), c.begin());
    return event;
  };
}

/// Recording batched launcher for the Winograd hooks.
conv::BatchedGemmLaunchFn checked_batched_launch(AccessMonitor& monitor) {
  return [&monitor](syclrt::Queue& queue, const gemm::KernelConfig& config,
                    std::span<const float> a, std::span<const float> b,
                    std::span<float> c, const gemm::GemmShape& shape,
                    std::size_t batch) {
    CheckedBuffer<float> a_buf("A", a, monitor);
    CheckedBuffer<float> b_buf("B", b, monitor);
    CheckedBuffer<float> c_buf("C", c.size(), monitor);
    const auto event = launch_checked_batched_gemm(
        queue, config, a_buf.read(), b_buf.read(), c_buf.write(), shape,
        batch);
    const auto result = c_buf.host();
    std::copy(result.begin(), result.end(), c.begin());
    return event;
  };
}

template <typename RunLowering>
CheckResult check_conv(const std::string& label,
                       const gemm::KernelConfig& config,
                       const conv::ConvShape& shape,
                       const RunLowering& run_lowering) {
  AccessMonitor monitor(label);

  const std::uint64_t seed =
      std::uint64_t{0xC0DEC0DE} ^
      (static_cast<std::uint64_t>(shape.input_size()) *
       std::uint64_t{1315423911}) ^
      static_cast<std::uint64_t>(config.work_group_size());
  common::Rng rng(seed);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  fill_uniform(input, rng);
  fill_uniform(filter, rng);

  std::vector<float> expected(shape.output_size());
  conv::direct_conv2d(input, filter, expected, shape);

  std::vector<float> actual(shape.output_size(), 0.0f);
  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  run_lowering(queue, monitor, input, filter, actual);

  return compare_to_reference(monitor, actual, expected, kConvTolerance,
                              "output",
                              "conv output diverges from direct_conv2d");
}

}  // namespace

CheckResult check_im2col_conv(const gemm::KernelConfig& config,
                              const conv::ConvShape& shape) {
  return check_conv(
      "im2col+" + config.name(), config, shape,
      [&config, &shape](syclrt::Queue& queue, AccessMonitor& monitor,
                        std::span<const float> input,
                        std::span<const float> filter,
                        std::span<float> output) {
        conv::im2col_conv2d(queue, config, input, filter, output, shape,
                            checked_gemm_launch(monitor));
      });
}

CheckResult check_winograd_conv(const gemm::KernelConfig& config,
                                const conv::ConvShape& shape) {
  return check_conv(
      "winograd+" + config.name(), config, shape,
      [&config, &shape](syclrt::Queue& queue, AccessMonitor& monitor,
                        std::span<const float> input,
                        std::span<const float> filter,
                        std::span<float> output) {
        conv::winograd_conv2d(queue, config, input, filter, output, shape,
                              checked_batched_launch(monitor));
      });
}

CheckResult check_winograd4_conv(const gemm::KernelConfig& config,
                                 const conv::ConvShape& shape) {
  return check_conv(
      "winograd4+" + config.name(), config, shape,
      [&config, &shape](syclrt::Queue& queue, AccessMonitor& monitor,
                        std::span<const float> input,
                        std::span<const float> filter,
                        std::span<float> output) {
        conv::winograd4_conv2d(queue, config, input, filter, output, shape,
                               checked_batched_launch(monitor));
      });
}

std::vector<conv::ConvShape> default_conv_corpus() {
  return {
      // 3x3 stride-1 padded: all three lowerings apply, ragged 2x2 tiles.
      {.batch = 1, .in_height = 9, .in_width = 7, .in_channels = 5,
       .out_channels = 6, .kernel = 3, .stride = 1, .padding = 1},
      // Unpadded 3x3 with batch: Winograd tile edges land mid-image.
      {.batch = 2, .in_height = 8, .in_width = 8, .in_channels = 3,
       .out_channels = 4, .kernel = 3, .stride = 1, .padding = 0},
      // Strided 5x5: im2col only.
      {.batch = 1, .in_height = 11, .in_width = 11, .in_channels = 4,
       .out_channels = 3, .kernel = 5, .stride = 2, .padding = 2},
  };
}

RegistryCheckSummary check_conv_lowerings(std::size_t config_stride) {
  RegistryCheckSummary summary;
  if (config_stride == 0) config_stride = 1;
  const auto& configs = gemm::enumerate_configs();
  const auto corpus = default_conv_corpus();

  for (std::size_t i = 0; i < configs.size(); i += config_stride) {
    const auto& config = configs[i];
    ++summary.configs_checked;
    for (const auto& shape : corpus) {
      summary.absorb(check_im2col_conv(config, shape));
      if (conv::winograd_applicable(shape)) {
        summary.absorb(check_winograd_conv(config, shape));
        summary.absorb(check_winograd4_conv(config, shape));
      }
    }
  }
  return summary;
}

}  // namespace aks::check

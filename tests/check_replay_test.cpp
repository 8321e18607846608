// Positive-path coverage of the checked execution mode: real kernels, the
// conv lowerings and a registry slice replay without findings.
#include <gtest/gtest.h>

#include "check/checked_conv.hpp"
#include "check/checked_gemm.hpp"
#include "gemm/config.hpp"

namespace {

using namespace aks;

TEST(CheckedExecution, RepresentativeConfigsReplayClean) {
  // One config per work-group shape family, on a ragged shape: exercises
  // interior tiles, edge guards and K remainders through the real kernels.
  for (const auto& config_name :
       {"t4x4_a2_wg8x8", "t1x1_a1_wg1x128", "t8x2_a4_wg16x8"}) {
    const auto config = gemm::KernelConfig::parse(config_name);
    const auto result = check::check_gemm(config, {17, 13, 9});
    EXPECT_TRUE(result.clean()) << config_name << ": "
                                << (result.findings.empty()
                                        ? "numeric divergence"
                                        : result.findings[0].format());
    EXPECT_LE(result.max_abs_error, 1e-3);
  }
}

TEST(CheckedExecution, BatchedAndHierarchicalReplayClean) {
  const auto config = gemm::KernelConfig::parse("t2x2_a2_wg8x8");
  EXPECT_TRUE(check::check_batched_gemm(config, {9, 5, 7}, 3).clean());
  EXPECT_TRUE(check::check_hierarchical_gemm({33, 20, 27}).clean());
}

TEST(CheckedExecution, ConvLoweringsReplayClean) {
  const auto config = gemm::KernelConfig::parse("t2x2_a2_wg8x8");
  const conv::ConvShape shape = {.batch = 1,
                                 .in_height = 9,
                                 .in_width = 7,
                                 .in_channels = 5,
                                 .out_channels = 6,
                                 .kernel = 3,
                                 .stride = 1,
                                 .padding = 1};
  EXPECT_TRUE(check::check_im2col_conv(config, shape).clean());
  EXPECT_TRUE(check::check_winograd_conv(config, shape).clean());
  EXPECT_TRUE(check::check_winograd4_conv(config, shape).clean());
}

TEST(CheckedExecution, RegistrySubsetSweepIsClean) {
  // The full 640-config sweep runs in CI via the akscheck binary; keep the
  // unit test to a slice so the suite stays fast.
  check::RegistryCheckOptions options;
  options.max_configs = 12;
  options.shapes = {{17, 13, 9}};
  const auto summary = check::check_registry(options);
  EXPECT_EQ(summary.configs_checked, 12u);
  for (const auto& finding : summary.findings) {
    ADD_FAILURE() << finding.format();
  }
  EXPECT_TRUE(summary.clean());
}

}  // namespace

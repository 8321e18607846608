#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gemm/reference.hpp"
#include "gemm/registry.hpp"
#include "perfmodel/cost_model.hpp"
#include "syclrt/queue.hpp"

namespace aks::gemm {
namespace {

struct BatchedData {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> expected;
};

BatchedData make_batched(const GemmShape& shape, std::size_t batch,
                         std::uint64_t seed) {
  common::Rng rng(seed);
  BatchedData data;
  data.a.resize(batch * shape.m * shape.k);
  data.b.resize(batch * shape.k * shape.n);
  data.expected.resize(batch * shape.m * shape.n);
  for (auto& v : data.a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : data.b) v = static_cast<float>(rng.uniform(-1, 1));
  for (std::size_t bi = 0; bi < batch; ++bi) {
    reference_gemm(
        std::span<const float>(data.a).subspan(bi * shape.m * shape.k,
                                               shape.m * shape.k),
        std::span<const float>(data.b).subspan(bi * shape.k * shape.n,
                                               shape.k * shape.n),
        std::span<float>(data.expected)
            .subspan(bi * shape.m * shape.n, shape.m * shape.n),
        shape);
  }
  return data;
}

class BatchedCorrectness : public ::testing::TestWithParam<KernelConfig> {};

TEST_P(BatchedCorrectness, MatchesPerEntryReference) {
  const KernelConfig config = GetParam();
  const GemmShape shape{9, 5, 7};  // awkward: edge tiles in every direction
  const std::size_t batch = 16;    // the Winograd batch count
  const auto data = make_batched(shape, batch, 3);

  syclrt::Queue queue;
  std::vector<float> c(batch * shape.m * shape.n, -1.0f);
  const auto event =
      launch_batched_gemm(queue, config, data.a, data.b, c, shape, batch);
  EXPECT_GT(event.item_count, 0u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], data.expected[i], 1e-3f)
        << config.name() << " element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchedCorrectness,
    ::testing::Values(KernelConfig{1, 1, 1, 8, 8}, KernelConfig{2, 4, 8, 8, 16},
                      KernelConfig{4, 4, 4, 16, 8}, KernelConfig{8, 8, 8, 8, 8},
                      KernelConfig{1, 8, 2, 1, 64},
                      KernelConfig{8, 1, 4, 64, 1}),
    [](const auto& param_info) { return param_info.param.name(); });

TEST(BatchedGemm, SingleBatchMatchesPlainLaunch) {
  const GemmShape shape{16, 12, 8};
  const auto data = make_batched(shape, 1, 7);
  syclrt::Queue queue;
  std::vector<float> batched(shape.m * shape.n);
  std::vector<float> plain(shape.m * shape.n);
  const KernelConfig config{2, 2, 2, 8, 8};
  launch_batched_gemm(queue, config, data.a, data.b, batched, shape, 1);
  launch_gemm(queue, config, data.a, data.b, plain, shape);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_FLOAT_EQ(batched[i], plain[i]);
  }
}

TEST(BatchedGemm, ValidatesOperands) {
  syclrt::Queue queue;
  std::vector<float> a(10), b(10), c(10);
  const KernelConfig config{2, 2, 2, 8, 8};
  EXPECT_THROW(
      launch_batched_gemm(queue, config, a, b, c, GemmShape{2, 2, 2}, 0),
      common::Error);
  EXPECT_THROW(
      launch_batched_gemm(queue, config, a, b, c, GemmShape{2, 2, 2}, 3),
      common::Error);
}

TEST(BatchedCostModel, OneLaunchCheaperThanSixteen) {
  const perf::CostModel model(perf::DeviceSpec::amd_r9_nano());
  // A small Winograd-style multiply where launch overhead and device fill
  // dominate: batching must beat sixteen separate launches.
  const KernelConfig config{2, 2, 2, 8, 16};
  const GemmShape shape{196, 64, 64};
  const double separate = 16.0 * model.predict_seconds(config, shape);
  const double batched = model.predict_batched_seconds(config, shape, 16);
  EXPECT_LT(batched, separate);
}

TEST(BatchedCostModel, BatchOfOneMatchesPlainPrediction) {
  const perf::CostModel model(perf::DeviceSpec::amd_r9_nano());
  const KernelConfig config{4, 4, 4, 8, 8};
  const GemmShape shape{128, 64, 128};
  EXPECT_DOUBLE_EQ(model.predict_batched_seconds(config, shape, 1),
                   model.predict_seconds(config, shape));
}

// m·batch = 2^64 + 2^24 would wrap to a 2^24-row stack and predict a tiny
// time for an impossible launch.
TEST(BatchedCostModel, RejectsOverflowingBatch) {
  const perf::CostModel model(perf::DeviceSpec::amd_r9_nano());
  const GemmShape shape{(std::size_t{1} << 40) + 1, 1, 1};
  EXPECT_THROW((void)model.predict_batched_seconds(KernelConfig{}, shape,
                                                   std::size_t{1} << 24),
               common::Error);
}

TEST(BatchedCostModel, MonotoneInBatch) {
  const perf::CostModel model(perf::DeviceSpec::amd_r9_nano());
  const KernelConfig config{4, 4, 4, 8, 8};
  const GemmShape shape{256, 128, 256};
  double prev = 0.0;
  for (const std::size_t batch : {1u, 2u, 4u, 8u, 16u}) {
    const double t = model.predict_batched_seconds(config, shape, batch);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace aks::gemm

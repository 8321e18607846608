#include <gtest/gtest.h>

#include "common/error.hpp"
#include "perfmodel/cost_model.hpp"

namespace aks::perf {
namespace {

gemm::KernelConfig balanced_config() { return {4, 4, 4, 8, 8}; }

TEST(DeviceSpec, R9NanoPeakFlops) {
  // 64 CUs x 64 lanes x 2 flops x 1.0 GHz = 8.192 TFLOP/s.
  EXPECT_NEAR(DeviceSpec::amd_r9_nano().peak_flops(), 8.192e12, 1e9);
}

TEST(DeviceSpec, DevicesAreOrderedByCapability) {
  const auto nano = DeviceSpec::amd_r9_nano();
  const auto igpu = DeviceSpec::integrated_gpu();
  const auto embedded = DeviceSpec::embedded_accelerator();
  EXPECT_GT(nano.peak_flops(), igpu.peak_flops());
  EXPECT_GT(igpu.peak_flops(), embedded.peak_flops());
  EXPECT_GT(nano.dram_bw_gbps, igpu.dram_bw_gbps);
}

TEST(CostModel, RejectsDegenerateInput) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  EXPECT_THROW((void)model.predict_seconds(balanced_config(), {0, 4, 4}),
               common::Error);
  DeviceSpec bad = DeviceSpec::amd_r9_nano();
  bad.num_cus = 0;
  EXPECT_THROW(CostModel{bad}, common::Error);
}

TEST(CostModel, RejectsShapeWhoseOperandSizesOverflow) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  const std::size_t big = std::size_t{1} << 32;
  EXPECT_THROW((void)model.evaluate(balanced_config(), {big, big, big}),
               common::Error);
}

TEST(CostModel, BreakdownIsConsistent) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  const auto b = model.evaluate(balanced_config(), {512, 512, 512});
  EXPECT_GT(b.compute_s, 0.0);
  EXPECT_GT(b.memory_s, 0.0);
  EXPECT_GT(b.launch_s, 0.0);
  EXPECT_GE(b.total_s, std::max(b.compute_s, b.memory_s));
  EXPECT_GT(b.lane_utilization, 0.0);
  EXPECT_LE(b.lane_utilization, 1.0);
  EXPECT_GT(b.occupancy_waves, 0.0);
  EXPECT_LE(b.occupancy_waves, DeviceSpec::amd_r9_nano().max_waves_per_cu);
  EXPECT_GT(b.flops_fraction, 0.0);
  EXPECT_LT(b.flops_fraction, 1.0);
}

TEST(CostModel, MoreWorkTakesLonger) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  const auto config = balanced_config();
  EXPECT_LT(model.predict_seconds(config, {256, 256, 256}),
            model.predict_seconds(config, {1024, 1024, 1024}));
  EXPECT_LT(model.predict_seconds(config, {1024, 256, 1024}),
            model.predict_seconds(config, {1024, 1024, 1024}));
}

TEST(CostModel, SlowerDeviceIsSlower) {
  const auto config = balanced_config();
  const gemm::GemmShape shape{1024, 512, 1024};
  const CostModel nano(DeviceSpec::amd_r9_nano());
  const CostModel embedded(DeviceSpec::embedded_accelerator());
  EXPECT_LT(nano.predict_seconds(config, shape),
            embedded.predict_seconds(config, shape));
}

TEST(CostModel, TailWastePenalisesBigTilesOnTinyShapes) {
  // A 1-row GEMM wastes almost every lane of an 8x8-tile kernel.
  const CostModel model(DeviceSpec::amd_r9_nano());
  const gemm::GemmShape tiny{1, 4096, 1000};
  const double small_tile =
      model.predict_seconds({1, 1, 4, 1, 128}, tiny);
  const double big_tile = model.predict_seconds({8, 8, 4, 8, 8}, tiny);
  EXPECT_LT(small_tile, big_tile);
}

TEST(CostModel, LaneUtilizationReflectsPadding) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  // Perfectly aligned launch vs heavily padded launch.
  const auto aligned = model.evaluate({4, 4, 4, 8, 8}, {512, 64, 512});
  const auto padded = model.evaluate({8, 8, 4, 16, 16}, {9, 64, 9});
  EXPECT_GT(aligned.lane_utilization, padded.lane_utilization);
}

TEST(CostModel, RegisterPressureLowersOccupancy) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  const gemm::GemmShape shape{2048, 512, 2048};
  const auto light = model.evaluate({1, 1, 1, 8, 8}, shape);
  const auto heavy = model.evaluate({8, 8, 8, 8, 8}, shape);
  EXPECT_GT(light.occupancy_waves, heavy.occupancy_waves);
}

TEST(CostModel, CacheFitReducesTraffic) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  // A fits in LLC for the small-K case; per-element traffic should be
  // lower than the LLC-busting case.
  const auto fits = model.evaluate(balanced_config(), {512, 256, 4096});
  const auto busts = model.evaluate(balanced_config(), {8192, 2048, 4096});
  const double fit_ratio = fits.dram_bytes / gemm::GemmShape{512, 256, 4096}.min_bytes();
  const double bust_ratio =
      busts.dram_bytes / gemm::GemmShape{8192, 2048, 4096}.min_bytes();
  EXPECT_LT(fit_ratio, bust_ratio);
}

TEST(CostModel, LargerAccumulatorAmortisesLoopOverhead) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  // Compute-bound shape; identical tiles, different accumulator step.
  const gemm::GemmShape shape{2048, 2048, 2048};
  const double acc1 = model.predict_seconds({4, 4, 1, 8, 8}, shape);
  const double acc4 = model.predict_seconds({4, 4, 4, 8, 8}, shape);
  EXPECT_LT(acc4, acc1);
}

TEST(CostModel, WiderAccessesFixStridedCoalescing) {
  const CostModel model(DeviceSpec::amd_r9_nano());
  // A-traffic-dominated shape with a column-major (128,1) work-group:
  // lanes span tile rows, so A reads are strided and their efficiency is
  // set by the per-lane contiguous width (acc_size floats). Wider accesses
  // must reduce memory time; on a row-major work-group the same change
  // must not matter (reads are already coalesced).
  const gemm::GemmShape shape{4096, 2048, 64};
  const double strided_narrow =
      model.evaluate({2, 2, 1, 128, 1}, shape).memory_s;
  const double strided_wide =
      model.evaluate({2, 2, 8, 128, 1}, shape).memory_s;
  EXPECT_GT(strided_narrow, 1.5 * strided_wide);

  // The same acc change on a row-major work-group still shifts memory time
  // a little (register pressure changes occupancy), but the strided case
  // must benefit far more — that extra factor is the coalescing effect.
  const double coalesced_narrow =
      model.evaluate({2, 2, 1, 8, 32}, shape).memory_s;
  const double coalesced_wide =
      model.evaluate({2, 2, 8, 8, 32}, shape).memory_s;
  EXPECT_GT(strided_narrow / strided_wide,
            2.0 * coalesced_narrow / coalesced_wide);
}

TEST(TimingModel, NoiseIsDeterministic) {
  const TimingModel timing(DeviceSpec::amd_r9_nano(), 0.05, 7);
  const auto config = balanced_config();
  const gemm::GemmShape shape{128, 128, 128};
  EXPECT_DOUBLE_EQ(timing.time_run(config, shape, 3),
                   timing.time_run(config, shape, 3));
  EXPECT_NE(timing.time_run(config, shape, 3),
            timing.time_run(config, shape, 4));
  // A window of runs draws the same noise as the runs one by one.
  double window[3] = {};
  timing.time_runs(config, shape, 3, window);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(window[i], timing.time_run(config, shape, 3 + i));
  }
}

TEST(TimingModel, SeedChangesNoise) {
  const TimingModel a(DeviceSpec::amd_r9_nano(), 0.05, 1);
  const TimingModel b(DeviceSpec::amd_r9_nano(), 0.05, 2);
  EXPECT_NE(a.time_run(balanced_config(), {128, 128, 128}),
            b.time_run(balanced_config(), {128, 128, 128}));
}

TEST(TimingModel, ZeroSigmaMatchesModelExactly) {
  const TimingModel timing(DeviceSpec::amd_r9_nano(), 0.0, 7);
  const auto config = balanced_config();
  const gemm::GemmShape shape{128, 128, 128};
  EXPECT_DOUBLE_EQ(timing.time_run(config, shape),
                   timing.model().predict_seconds(config, shape));
}

TEST(TimingModel, BestOfNeverExceedsSingleRun) {
  const TimingModel timing(DeviceSpec::amd_r9_nano(), 0.1, 7);
  const auto config = balanced_config();
  const gemm::GemmShape shape{256, 64, 256};
  EXPECT_LE(timing.best_of(config, shape, 10),
            timing.time_run(config, shape, 0));
  EXPECT_THROW((void)timing.best_of(config, shape, 0), common::Error);
}

TEST(TimingModel, NoiseStaysNearModel) {
  const TimingModel timing(DeviceSpec::amd_r9_nano(), 0.03, 7);
  const auto config = balanced_config();
  const gemm::GemmShape shape{512, 128, 512};
  const double base = timing.model().predict_seconds(config, shape);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const double t = timing.time_run(config, shape, i);
    EXPECT_GT(t, base * 0.8);
    EXPECT_LT(t, base * 1.25);
  }
}

TEST(TimingModel, RejectsNegativeSigma) {
  EXPECT_THROW(TimingModel(DeviceSpec::amd_r9_nano(), -0.1), common::Error);
}

}  // namespace
}  // namespace aks::perf

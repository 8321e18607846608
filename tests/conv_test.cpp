#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "conv/direct.hpp"
#include "conv/im2col.hpp"
#include "conv/winograd.hpp"
#include "dataset/lowering.hpp"
#include "syclrt/queue.hpp"

namespace aks::conv {
namespace {

struct ConvData {
  std::vector<float> input;
  std::vector<float> filter;
  std::vector<float> expected;
};

ConvData make_data(const ConvShape& shape, std::uint64_t seed) {
  common::Rng rng(seed);
  ConvData data;
  data.input.resize(shape.input_size());
  data.filter.resize(shape.filter_size());
  data.expected.resize(shape.output_size());
  for (auto& v : data.input) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : data.filter) v = static_cast<float>(rng.uniform(-1, 1));
  direct_conv2d(data.input, data.filter, data.expected, shape);
  return data;
}

void expect_near(std::span<const float> actual, std::span<const float> expected,
                 float tolerance) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_NEAR(actual[i], expected[i], tolerance) << "element " << i;
  }
}

TEST(ConvShapeInfo, OutputGeometry) {
  ConvShape s;
  s.in_height = s.in_width = 56;
  s.in_channels = 64;
  s.out_channels = 128;
  s.kernel = 3;
  s.stride = 1;
  s.padding = 1;
  EXPECT_EQ(s.out_height(), 56);
  EXPECT_EQ(s.out_width(), 56);
  s.stride = 2;
  EXPECT_EQ(s.out_height(), 28);
}

TEST(DirectConv, IdentityKernelPassesThrough) {
  // 1x1 kernel with identity channel matrix: output == input.
  ConvShape s;
  s.in_height = s.in_width = 4;
  s.in_channels = s.out_channels = 3;
  s.kernel = 1;
  std::vector<float> input(s.input_size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i) * 0.25f;
  }
  std::vector<float> filter(s.filter_size(), 0.0f);
  for (int c = 0; c < 3; ++c) filter[static_cast<std::size_t>(c) * 3 + static_cast<std::size_t>(c)] = 1.0f;
  std::vector<float> output(s.output_size());
  direct_conv2d(input, filter, output, s);
  expect_near(output, input, 1e-6f);
}

TEST(DirectConv, AveragingKernelOnConstantInput) {
  // All-ones 3x3 kernel on constant input: interior outputs are 9 * value.
  ConvShape s;
  s.in_height = s.in_width = 5;
  s.in_channels = s.out_channels = 1;
  s.kernel = 3;
  s.padding = 1;
  std::vector<float> input(s.input_size(), 2.0f);
  std::vector<float> filter(s.filter_size(), 1.0f);
  std::vector<float> output(s.output_size());
  direct_conv2d(input, filter, output, s);
  // Interior pixel (2,2): full 3x3 support.
  EXPECT_FLOAT_EQ(output[2 * 5 + 2], 18.0f);
  // Corner pixel (0,0): only 2x2 of the kernel lands inside.
  EXPECT_FLOAT_EQ(output[0], 8.0f);
}

TEST(DirectConv, SizeValidation) {
  ConvShape s;
  s.in_height = s.in_width = 4;
  s.in_channels = s.out_channels = 1;
  s.kernel = 3;
  std::vector<float> input(s.input_size());
  std::vector<float> filter(s.filter_size());
  std::vector<float> bad(1);
  EXPECT_THROW(direct_conv2d(input, filter, bad, s), common::Error);
}

TEST(Im2col, ShapeMatchesDatasetLowering) {
  ConvShape s;
  s.batch = 4;
  s.in_height = s.in_width = 28;
  s.in_channels = 32;
  s.out_channels = 64;
  s.kernel = 3;
  s.padding = 1;

  data::ConvLayer layer;
  layer.in_channels = s.in_channels;
  layer.out_channels = s.out_channels;
  layer.kernel = s.kernel;
  layer.stride = s.stride;
  layer.padding = s.padding;
  layer.in_height = s.in_height;
  layer.in_width = s.in_width;
  const auto expected = data::im2col_shape(layer, s.batch);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(im2col_gemm_shape(s), *expected);
}

TEST(Im2col, PatchMatrixHasReceptiveFields) {
  // 3x3 input, 2x2 kernel, no padding: 4 patches of 4 values each.
  ConvShape s;
  s.in_height = s.in_width = 3;
  s.in_channels = 1;
  s.out_channels = 1;
  s.kernel = 2;
  std::vector<float> input = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto patches = im2col_transform(input, s);
  ASSERT_EQ(patches.size(), 16u);
  const float expected[4][4] = {
      {1, 2, 4, 5}, {2, 3, 5, 6}, {4, 5, 7, 8}, {5, 6, 8, 9}};
  for (int p = 0; p < 4; ++p)
    for (int v = 0; v < 4; ++v)
      EXPECT_FLOAT_EQ(patches[static_cast<std::size_t>(p) * 4 +
                              static_cast<std::size_t>(v)],
                      expected[p][v]);
}

/// im2col+GEMM must equal direct convolution for a spread of geometries and
/// kernel configurations.
struct Im2colCase {
  ConvShape shape;
  gemm::KernelConfig config;
};

class Im2colMatchesDirect : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(Im2colMatchesDirect, Equivalence) {
  const auto& [shape, config] = GetParam();
  const auto data = make_data(shape, 11);
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  im2col_conv2d(queue, config, data.input, data.filter, output, shape);
  expect_near(output, data.expected, 1e-3f);
}

ConvShape conv_case(int batch, int spatial, int in_c, int out_c, int kernel,
                    int stride, int padding) {
  ConvShape s;
  s.batch = batch;
  s.in_height = s.in_width = spatial;
  s.in_channels = in_c;
  s.out_channels = out_c;
  s.kernel = kernel;
  s.stride = stride;
  s.padding = padding;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colMatchesDirect,
    ::testing::Values(
        Im2colCase{conv_case(1, 8, 3, 8, 3, 1, 1), {2, 2, 2, 8, 8}},
        Im2colCase{conv_case(2, 7, 4, 6, 3, 2, 1), {1, 4, 8, 8, 16}},
        Im2colCase{conv_case(1, 12, 8, 16, 1, 1, 0), {4, 4, 4, 8, 8}},
        Im2colCase{conv_case(1, 9, 2, 5, 5, 1, 2), {8, 1, 2, 16, 8}},
        Im2colCase{conv_case(3, 6, 5, 7, 3, 1, 0), {2, 8, 4, 1, 64}}),
    [](const auto& param_info) {
      return "case" + std::to_string(param_info.index);
    });

TEST(ConvShapeContract, Im2colRejectsEmptyOutput) {
  // A 1x1 input under an unpadded 3x3 kernel has out_height() == -1; the
  // size_t wrap made output_size() look non-empty.
  const auto shape = conv_case(1, 1, 2, 2, 3, 1, 0);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  EXPECT_THROW(im2col_conv2d(queue, {2, 2, 2, 8, 8}, input, filter, output,
                             shape),
               common::Error);
}

TEST(Winograd, ApplicabilityRules) {
  EXPECT_TRUE(winograd_applicable(conv_case(1, 8, 4, 4, 3, 1, 1)));
  EXPECT_FALSE(winograd_applicable(conv_case(1, 8, 4, 4, 3, 2, 1)));
  EXPECT_FALSE(winograd_applicable(conv_case(1, 8, 4, 4, 1, 1, 0)));
  EXPECT_FALSE(winograd_applicable(conv_case(1, 8, 4, 4, 5, 1, 2)));
}

TEST(Winograd, ShapeMatchesDatasetLowering) {
  const auto s = conv_case(2, 14, 256, 512, 3, 1, 1);
  data::ConvLayer layer;
  layer.in_channels = s.in_channels;
  layer.out_channels = s.out_channels;
  layer.kernel = 3;
  layer.stride = 1;
  layer.padding = 1;
  layer.in_height = layer.in_width = s.in_height;
  const auto expected = data::winograd_shape(layer, s.batch);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(winograd_gemm_shape(s), *expected);
}

class WinogradMatchesDirect : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(WinogradMatchesDirect, Equivalence) {
  const auto& [shape, config] = GetParam();
  const auto data = make_data(shape, 13);
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  winograd_conv2d(queue, config, data.input, data.filter, output, shape);
  // Winograd accumulates more rounding; loosen slightly.
  expect_near(output, data.expected, 5e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WinogradMatchesDirect,
    ::testing::Values(
        Im2colCase{conv_case(1, 8, 3, 8, 3, 1, 1), {2, 2, 2, 8, 8}},
        Im2colCase{conv_case(1, 7, 4, 6, 3, 1, 1), {1, 4, 8, 8, 16}},  // odd
        Im2colCase{conv_case(2, 10, 6, 5, 3, 1, 0), {4, 4, 4, 8, 8}},  // no pad
        Im2colCase{conv_case(1, 13, 2, 9, 3, 1, 1), {8, 1, 2, 16, 8}},
        Im2colCase{conv_case(2, 6, 8, 8, 3, 1, 1), {2, 8, 4, 1, 64}},
        Im2colCase{conv_case(1, 3, 4, 6, 3, 1, 0), {2, 2, 2, 8, 8}},  // 1x1 out
        Im2colCase{conv_case(2, 5, 3, 7, 3, 1, 0), {1, 4, 8, 8, 16}}),  // 3x3
    [](const auto& param_info) {
      return "case" + std::to_string(param_info.index);
    });

TEST(Winograd, F2ExactOnIntegerData) {
  // Every F(2x2,3x3) transform coefficient is 0, +-1 or 1/2, so on small
  // integers every intermediate is exact and so must be the output.
  const auto shape = conv_case(2, 7, 3, 5, 3, 1, 1);
  common::Rng rng(19);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  const auto small_int = [&rng] {
    return static_cast<float>(rng.uniform_index(7)) - 3.0f;  // -3 .. 3
  };
  for (auto& v : input) v = small_int();
  for (auto& v : filter) v = small_int();
  std::vector<float> expected(shape.output_size());
  direct_conv2d(input, filter, expected, shape);
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  winograd_conv2d(queue, {2, 2, 2, 8, 8}, input, filter, output, shape);
  for (std::size_t i = 0; i < output.size(); ++i) {
    EXPECT_EQ(output[i], expected[i]) << "element " << i;
  }
}

TEST(Winograd, RejectsInapplicableShape) {
  const auto shape = conv_case(1, 8, 4, 4, 3, 2, 1);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  EXPECT_THROW(winograd_conv2d(queue, {2, 2, 2, 8, 8}, input, filter, output,
                               shape),
               common::Error);
}

class Winograd4MatchesDirect : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(Winograd4MatchesDirect, Equivalence) {
  const auto& [shape, config] = GetParam();
  const auto data = make_data(shape, 17);
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  winograd4_conv2d(queue, config, data.input, data.filter, output, shape);
  // F(4x4, 3x3) has larger transform constants; tolerance reflects that.
  expect_near(output, data.expected, 2e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Winograd4MatchesDirect,
    ::testing::Values(
        Im2colCase{conv_case(1, 12, 3, 8, 3, 1, 1), {2, 2, 2, 8, 8}},
        Im2colCase{conv_case(1, 9, 4, 6, 3, 1, 1), {1, 4, 8, 8, 16}},   // odd
        Im2colCase{conv_case(2, 14, 6, 5, 3, 1, 0), {4, 4, 4, 8, 8}},   // no pad
        Im2colCase{conv_case(1, 7, 2, 9, 3, 1, 1), {8, 1, 2, 16, 8}},   // tail
        Im2colCase{conv_case(2, 8, 8, 8, 3, 1, 1), {2, 8, 4, 1, 64}},
        Im2colCase{conv_case(1, 3, 4, 6, 3, 1, 0), {2, 2, 2, 8, 8}},  // 1x1 out
        Im2colCase{conv_case(2, 5, 3, 7, 3, 1, 0), {1, 4, 8, 8, 16}}),  // 3x3
    [](const auto& param_info) {
      return "case" + std::to_string(param_info.index);
    });

TEST(Winograd4, ShapeFormulaAndFlopReduction) {
  const auto s = conv_case(1, 56, 64, 64, 3, 1, 1);
  const auto shape = winograd4_gemm_shape(s);
  EXPECT_EQ(shape.m, 14u * 14u);  // 4x4 output tiles over 56x56
  EXPECT_EQ(shape.k, 64u);
  EXPECT_EQ(shape.n, 64u);
  // Multiply reduction vs im2col: 9 / (36/16) = 4x.
  const double direct_flops = im2col_gemm_shape(s).flops();
  const double wino4_flops = 36.0 * shape.flops();
  EXPECT_NEAR(direct_flops / wino4_flops, 4.0, 0.1);
}

TEST(Winograd4, RejectsInapplicableShape) {
  const auto shape = conv_case(1, 8, 4, 4, 3, 2, 1);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  EXPECT_THROW(winograd4_conv2d(queue, {2, 2, 2, 8, 8}, input, filter, output,
                                shape),
               common::Error);
}

TEST(Winograd, FlopReductionVsIm2col) {
  // The point of Winograd: the multiply count drops by up to 2.25x for
  // F(2x2, 3x3). Verify at the shape level.
  const auto shape = conv_case(1, 56, 64, 64, 3, 1, 1);
  const auto direct = im2col_gemm_shape(shape);
  const auto wino = winograd_gemm_shape(shape);
  const double direct_flops = direct.flops();
  const double wino_flops = 16.0 * wino.flops();
  EXPECT_LT(wino_flops, direct_flops);
  EXPECT_NEAR(direct_flops / wino_flops, 2.25, 0.05);
}

}  // namespace
}  // namespace aks::conv

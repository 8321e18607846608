// infer_host: every dense convolution of ResNet-50 at batch 1 through
// ConvEngine::run on the syclrt host runtime, checked against
// conv::direct_conv2d. The traced run replays the engine's own dispatch
// (plan, then the chosen lowering) with the GEMM launches injected through
// GemmLaunchFn/BatchedGemmLaunchFn, so each lowering's self time excludes
// its launches.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "conv/direct.hpp"
#include "conv/im2col.hpp"
#include "conv/winograd.hpp"
#include "core/conv_engine.hpp"
#include "core/network_estimator.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"
#include "dataset/networks.hpp"
#include "gemm/registry.hpp"
#include "syclrt/queue.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace conv = aks::conv;
namespace gemm = aks::gemm;
namespace syclrt = aks::syclrt;

namespace {

// An output element passes when |out - ref| <= kTolerance * (1 + |ref|).
// The Winograd lowerings reorder the float sums; inputs are in [-1, 1].
constexpr double kTolerance = 5e-3;

using Tensors = std::vector<std::vector<float>>;

struct InferStack {
  aks::data::PerfDataset dataset;
  std::shared_ptr<const aks::select::KernelSelector> selector;
  std::unique_ptr<aks::select::ConvEngine> engine;
  std::unique_ptr<syclrt::Queue> queue;
};

/// Launch accounting of the traced run, from shapes and launch events.
struct LaunchTotals {
  double flops = 0.0;
  double bytes = 0.0;
  double logical_items = 0.0;
  double padded_items = 0.0;

  void add(const gemm::KernelConfig& config, const gemm::GemmShape& shape,
           std::size_t batch, const syclrt::Event& event) {
    const auto b = static_cast<double>(batch);
    flops += b * shape.flops();
    bytes += b * shape.min_bytes();
    const auto tiles = [](std::size_t extent, int tile) {
      return static_cast<double>((extent + static_cast<std::size_t>(tile) - 1) /
                                 static_cast<std::size_t>(tile));
    };
    logical_items +=
        b * tiles(shape.m, config.row_tile) * tiles(shape.n, config.col_tile);
    padded_items += static_cast<double>(event.item_count);
  }
};

double direct_flops(const conv::ConvShape& s) {
  return 2.0 * static_cast<double>(s.output_size()) *
         static_cast<double>(s.kernel * s.kernel * s.in_channels);
}

void run_layer_traced(const aks::select::ConvEngine& engine,
                      syclrt::Queue& queue, std::span<const float> input,
                      std::span<const float> filter, std::span<float> output,
                      const conv::ConvShape& shape, LaunchTotals& totals) {
  const conv::GemmLaunchFn launch =
      [&](syclrt::Queue& q, const gemm::KernelConfig& config,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c, const gemm::GemmShape& gemm_shape) {
        Span span("gemm.launch");
        const auto event = gemm::launch_gemm(q, config, a, b, c, gemm_shape);
        totals.add(config, gemm_shape, 1, event);
        return event;
      };
  const conv::BatchedGemmLaunchFn batched_launch =
      [&](syclrt::Queue& q, const gemm::KernelConfig& config,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c, const gemm::GemmShape& gemm_shape,
          std::size_t batch) {
        Span span("gemm.launch");
        const auto event =
            gemm::launch_batched_gemm(q, config, a, b, c, gemm_shape, batch);
        totals.add(config, gemm_shape, batch, event);
        return event;
      };
  aks::select::ConvEngine::Plan plan;
  {
    Span span("engine.plan");
    plan = engine.plan(shape);
  }
  switch (plan.transform) {
    case aks::data::Transform::kWinograd: {
      Span span("conv.winograd");
      conv::winograd_conv2d(queue, plan.config, input, filter, output, shape,
                            batched_launch);
      break;
    }
    case aks::data::Transform::kWinograd4: {
      Span span("conv.winograd4");
      conv::winograd4_conv2d(queue, plan.config, input, filter, output, shape,
                             batched_launch);
      break;
    }
    default: {
      Span span("conv.im2col");
      conv::im2col_conv2d(queue, plan.config, input, filter, output, shape,
                          launch);
      break;
    }
  }
}

}  // namespace

void run_infer_host(const Options& options, Report& report) {
  std::vector<conv::ConvShape> layers;
  for (const auto& c : aks::data::resnet50().convs) {
    if (c.is_depthwise()) continue;
    layers.push_back({1, c.in_height, c.in_width, c.in_channels,
                      c.out_channels, c.kernel, c.stride, c.padding});
  }
  Tensors inputs;
  Tensors filters;
  aks::common::Rng rng(derive_seed(options.seed, 4));
  for (const auto& shape : layers) {
    inputs.emplace_back(shape.input_size());
    filters.emplace_back(shape.filter_size());
    for (float& x : inputs.back()) x = static_cast<float>(rng.uniform(-1, 1));
    for (float& x : filters.back()) x = static_cast<float>(rng.uniform(-1, 1));
  }
  // The correctness oracle, computed once, one layer per thread at a time.
  Tensors references(layers.size());
  {
    std::vector<std::thread> threads;
    const std::size_t workers = client_count();
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (std::size_t i = w; i < layers.size(); i += workers) {
          references[i].resize(layers[i].output_size());
          conv::direct_conv2d(inputs[i], filters[i], references[i], layers[i]);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  Tensors outputs;
  for (const auto& shape : layers) outputs.emplace_back(shape.output_size());
  std::size_t own_bytes = 0;
  for (const Tensors* tensors : {&inputs, &filters, &references, &outputs}) {
    for (const auto& t : *tensors) own_bytes += t.capacity() * sizeof(float);
  }

  const aks::perf::CostModel model(aks::perf::DeviceSpec::amd_r9_nano());
  auto stack = report.timed_setup([&] {
    auto s = std::make_unique<InferStack>();
    s->dataset = aks::data::build_paper_dataset();
    aks::select::PipelineOptions pipeline_options;
    pipeline_options.num_configs = kBudget;
    s->selector = aks::select::run_pipeline(s->dataset, pipeline_options)
                      .selector;
    s->engine = std::make_unique<aks::select::ConvEngine>(s->selector, model);
    s->queue = std::make_unique<syclrt::Queue>();
    return s;
  });
  const aks::select::ConvEngine& engine = *stack->engine;
  syclrt::Queue& queue = *stack->queue;

  double flops_per_pass = 0.0;
  for (const auto& shape : layers) flops_per_pass += direct_flops(shape);

  if (options.trace) enable_tracing(1);
  LaunchTotals totals;
  std::vector<double> pass_ms;
  std::uint64_t executed = 0;
  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t end = start;
  while (end < deadline) {
    for (auto& out : outputs) std::fill(out.begin(), out.end(),
                                        std::numeric_limits<float>::quiet_NaN());
    begin_request(pass_ms.size());
    const std::int64_t t0 = now_ns();
    {
      Span span("infer.pass");
      for (std::size_t i = 0; i < layers.size(); ++i) {
        if (tracing()) {
          run_layer_traced(engine, queue, inputs[i], filters[i], outputs[i],
                           layers[i], totals);
        } else {
          engine.run(queue, inputs[i], filters[i], outputs[i], layers[i]);
        }
      }
    }
    end = now_ns();
    pass_ms.push_back(seconds_between(t0, end) * 1e3);
    executed += layers.size();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      for (std::size_t j = 0; j < outputs[i].size(); ++j) {
        const double ref = references[i][j];
        // Written so that a NaN output (an element never written) fails.
        if (!(std::abs(outputs[i][j] - ref) <= kTolerance * (1.0 + std::abs(ref)))) {
          report.fail("infer_host layer " + std::to_string(i) +
                      " differs from direct_conv2d");
          break;
        }
      }
    }
  }
  report.mark_peak_rss(own_bytes);
  report.attempted(executed);
  report.samples("pass_ms", pass_ms);
  double pass_seconds = 0.0;
  for (const double ms : pass_ms) pass_seconds += ms * 1e-3;
  report.value("passes", static_cast<double>(pass_ms.size()));
  report.value("infer_gflops", flops_per_pass *
                                   static_cast<double>(pass_ms.size()) /
                                   pass_seconds * 1e-9);
  if (tracing()) {
    report.value("gemm.flops", totals.flops);
    report.value("gemm.bytes_computed", totals.bytes);
    report.value("syclrt.item_utilization",
                 totals.logical_items / totals.padded_items);
  }

  // Quality: the engine's modelled time against the brute-force optimum.
  const auto means = stack->dataset.mean_scores();
  const auto fixed = gemm::enumerate_configs()[aks::common::argmax(means)];
  const auto estimate = aks::select::estimate_network(
      engine, model, aks::data::resnet50(), 1, fixed);
  report.value("pct_of_optimal", 100.0 * estimate.engine_efficiency());
}

}  // namespace perfbench

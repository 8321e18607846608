// tune_offline: the paper's offline pipeline, one full iteration after
// another on the seed's dataset — model-mode benchmark sweep, PCA, the five
// pruners at budget 8, DecisionTree selector fit and evaluation on the test
// split, and the symbolic certificates of the whole configuration space.
#include <array>
#include <string>

#include "check/symbolic/certificate.hpp"
#include "common/stats.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "core/pruning.hpp"
#include "core/selector.hpp"
#include "dataset/benchmark_runner.hpp"
#include "dataset/extract.hpp"
#include "ml/pca.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace symbolic = aks::check::symbolic;

namespace {

// Span names of select::all_pruners(), in its order.
constexpr std::array<const char*, 5> kPrunerSpans = {
    "prune.topn", "prune.kmeans", "prune.hdbscan", "prune.pca_kmeans",
    "prune.tree"};
constexpr double kTrainFraction = 0.8;
// Table I is scored on the test rows of several seeded splits; split 1 is
// the paper's. One 34-row test split alone moves the geomean by a few
// percent from one dataset seed to the next.
constexpr std::uint64_t kSplits = 5;

struct Inputs {
  std::vector<aks::data::LoweredGemm> shapes;
  aks::perf::DeviceSpec device = aks::perf::DeviceSpec::amd_r9_nano();
  std::vector<aks::perf::DeviceSpec> devices;
  aks::data::RunnerOptions runner;
};

/// What the pipeline ships and scores, per split.
struct Outcome {
  std::vector<std::vector<std::size_t>> shipped;
  std::vector<double> achieved;
  std::size_t safe_certificates = 0;
  bool shipped_certified = false;
};

Outcome tuning_iteration(const Inputs& in) {
  Span iteration_span("tune.iteration");
  aks::data::PerfDataset dataset;
  {
    Span span("dataset.build");
    dataset = aks::data::run_model_benchmarks(in.shapes, in.device, in.runner);
  }
  {
    Span span("ml.pca");
    aks::ml::Pca pca;
    pca.fit(dataset.scores());
  }
  Outcome out;
  const auto pruners = aks::select::all_pruners();
  for (std::uint64_t split_seed = 1; split_seed <= kSplits; ++split_seed) {
    const auto split = dataset.split(kTrainFraction, split_seed);
    // The deployed library ships the DecisionTree pruner's set (the last
    // one); the other four run once, on the paper's split.
    const std::size_t first = split_seed == 1 ? 0 : pruners.size() - 1;
    std::vector<std::size_t> configs;
    for (std::size_t p = first; p < pruners.size(); ++p) {
      Span span(kPrunerSpans.at(p));
      configs = pruners[p]->prune(split.train, kBudget);
    }
    aks::select::DecisionTreeSelector selector;
    {
      Span span("selector.fit");
      selector.fit(split.train, configs);
    }
    {
      Span span("selector.eval");
      out.achieved.push_back(aks::select::selector_score(selector, split.test));
    }
    out.shipped.push_back(std::move(configs));
  }
  symbolic::CertifyReport certificates;
  {
    Span span("check.certify");
    certificates = symbolic::certify_space(aks::gemm::enumerate_configs(),
                                           in.devices);
  }
  out.safe_certificates = certificates.count(symbolic::Verdict::safe);
  const auto safe =
      certificates.safe_mask(aks::gemm::enumerate_configs().size());
  out.shipped_certified = true;
  for (const auto& configs : out.shipped) {
    for (const std::size_t index : configs) {
      out.shipped_certified = out.shipped_certified && safe.at(index);
    }
  }
  return out;
}

}  // namespace

void run_tune_offline(const Options& options, Report& report) {
  // Set-up trains the deployed selector of every split through
  // select::run_pipeline; every iteration must reproduce these exactly.
  Outcome expected;
  const Inputs in = *report.timed_setup([&] {
    auto s = std::make_unique<Inputs>();
    s->shapes = aks::data::extract_all_shapes();
    s->devices = aks::perf::DeviceSpec::shipped();
    s->runner.seed = derive_seed(options.seed, 1);
    const auto dataset =
        aks::data::run_model_benchmarks(s->shapes, s->device, s->runner);
    expected = {};
    for (std::uint64_t split_seed = 1; split_seed <= kSplits; ++split_seed) {
      aks::select::PipelineOptions pipeline_options;
      pipeline_options.num_configs = kBudget;
      pipeline_options.train_fraction = kTrainFraction;
      pipeline_options.split_seed = split_seed;
      const auto pipeline =
          aks::select::run_pipeline(dataset, pipeline_options);
      expected.shipped.push_back(pipeline.configs);
      expected.achieved.push_back(pipeline.achieved);
    }
    return s;
  });

  if (options.trace) enable_tracing(1);
  std::vector<double> iteration_s;
  std::size_t safe_certificates = 0;
  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t end = start;
  while (end < deadline) {
    begin_request(iteration_s.size());
    const std::int64_t t0 = now_ns();
    const Outcome out = tuning_iteration(in);
    end = now_ns();
    iteration_s.push_back(seconds_between(t0, end));
    safe_certificates = out.safe_certificates;
    if (!out.shipped_certified) {
      report.fail("tune_offline shipped a configuration not certified SAFE");
    }
    if (out.achieved != expected.achieved || out.shipped != expected.shipped) {
      report.fail("tune_offline result differs from select::run_pipeline");
    }
  }
  // The benchmark's own buffers here are a few kilobytes of results.
  report.mark_peak_rss(0);
  report.attempted(iteration_s.size());
  report.samples("iteration_s", iteration_s);
  report.value("dataset.cells",
               static_cast<double>(in.shapes.size() *
                                   aks::gemm::enumerate_configs().size()));
  report.value("check.safe_certificates",
               static_cast<double>(safe_certificates));
  report.value("pct_of_optimal",
               100.0 * aks::common::geometric_mean(expected.achieved));
}

}  // namespace perfbench

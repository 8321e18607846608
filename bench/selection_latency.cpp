// Section IV's deployment argument: "There is little to be gained by
// choosing a complex process to achieve slightly better performance if this
// leads to significantly more time being spent in that selection process."
//
// Measures the per-query latency of every trained selector, plus the
// nested-if logic emitted by the code generator — demonstrating why the
// decision tree is the deployment candidate.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/codegen.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"

namespace aks {
namespace {

struct Context {
  data::PerfDataset dataset;
  data::DatasetSplit split;
  std::vector<std::size_t> allowed;

  Context()
      : dataset(data::build_paper_dataset()),
        split(dataset.split(0.8, 1)),
        allowed(select::DecisionTreePruner().prune(split.train, 8)) {}
};

const Context& context() {
  static const Context ctx;
  return ctx;
}

void bench_selector(benchmark::State& state,
                    select::SelectorMethod method) {
  auto selector = select::make_selector(method);
  selector->fit(context().split.train, context().allowed);
  // Rotate over the test shapes so caches do not pin one path.
  const auto& features = context().split.test.features();
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector->select(features.row(row)));
    row = (row + 1) % features.rows();
  }
}

void bench_generated_tree(benchmark::State& state) {
  select::DecisionTreeSelector selector;
  selector.fit(context().split.train, context().allowed);
  const auto& features = context().split.test.features();
  std::size_t row = 0;
  for (auto _ : state) {
    const auto r = features.row(row);
    benchmark::DoNotOptimize(
        select::evaluate_generated_logic(selector, r[0], r[1], r[2]));
    row = (row + 1) % features.rows();
  }
}

}  // namespace
}  // namespace aks

int main(int argc, char** argv) {
  for (const auto method : aks::select::kTableOneSelectors) {
    benchmark::RegisterBenchmark(
        ("select/" + aks::select::to_string(method)).c_str(),
        [method](benchmark::State& state) {
          aks::bench_selector(state, method);
        });
  }
  benchmark::RegisterBenchmark("select/GeneratedNestedIfs",
                               aks::bench_generated_tree);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

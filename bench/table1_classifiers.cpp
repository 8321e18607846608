// Table I: performance of the runtime-selection classifiers as a percentage
// of the absolute optimal performance, for the kernel sets chosen by the
// decision-tree pruner at budgets 5, 6, 8 and 15.
//
// Paper observations: the achievable ceiling ranges 93-96.6%, but no
// classifier exceeds 89%; the decision tree matches or beats everything
// except at 15 configurations; the radial SVM collapses to ~55% (the
// majority class); classifiers get relatively worse as the number of
// classes grows.
#include "bench_common.hpp"

#include "common/csv.hpp"
#include "core/pipeline.hpp"

namespace aks {
namespace {

int run() {
  bench::print_banner("Table I: runtime selection classifiers", "Table I");
  const auto dataset = bench::paper_dataset();
  const std::size_t budgets[] = {5, 6, 8, 15};

  // Ceilings row: the best any selector could do with the pruned sets.
  const auto split = dataset.split(bench::kTrainFraction, bench::kSplitSeed);
  select::DecisionTreePruner pruner;
  std::vector<std::string> ceiling_row = {"(ceiling)"};
  for (const std::size_t n : budgets) {
    ceiling_row.push_back(
        bench::pct(select::pruning_ceiling(split.test, pruner.prune(split.train, n))));
  }

  const auto& methods = select::kTableOneSelectors;

  bench::print_row({"classifier", "5", "6", "8", "15"}, 18);
  bench::print_row(ceiling_row, 18);

  common::Matrix csv(std::size(methods), std::size(budgets));
  for (std::size_t mi = 0; mi < std::size(methods); ++mi) {
    std::vector<std::string> row = {select::to_string(methods[mi])};
    for (std::size_t bi = 0; bi < std::size(budgets); ++bi) {
      select::PipelineOptions options;
      options.num_configs = budgets[bi];
      options.prune_method = select::PruneMethod::kDecisionTree;
      options.selector_method = methods[mi];
      options.split_seed = bench::kSplitSeed;
      options.model_seed = bench::kModelSeed;
      const auto result = select::run_pipeline(dataset, options);
      row.push_back(bench::pct(result.achieved));
      csv(mi, bi) = result.achieved;
    }
    bench::print_row(row, 18);
  }
  common::write_matrix_csv("bench_out/table1_classifiers.csv",
                           {"n5", "n6", "n8", "n15"}, csv, 6);

  std::cout << "\nPaper reference rows (for comparison):\n"
            << "  ceiling           92.99  94.98  95.37  96.61\n"
            << "  DecisionTree      86.43  84.29  86.82  83.54\n"
            << "  RandomForest      82.99  83.70  87.99  88.13\n"
            << "  1NearestNeighbor  80.45  78.44  78.30  78.21\n"
            << "  3NearestNeighbors 76.41  77.95  76.34  75.45\n"
            << "  LinearSVM         85.88  84.17  87.96  82.50\n"
            << "  RadialSVM         54.95  55.01  55.01  55.01\n"
            << "\nValues written to bench_out/table1_classifiers.csv\n";
  return 0;
}

}  // namespace
}  // namespace aks

int main() { return aks::run(); }

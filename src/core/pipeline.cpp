#include "core/pipeline.hpp"

#include "common/error.hpp"

namespace aks::select {

PipelineResult run_pipeline(const data::PerfDataset& dataset,
                            const PipelineOptions& options) {
  AKS_CHECK(options.num_configs >= 2,
            "pipeline needs a budget of at least 2 configs");
  const auto split = dataset.split(options.train_fraction, options.split_seed);

  PipelineResult result;
  auto pruner = make_pruner(options.prune_method, options.model_seed);
  if (!options.certified_mask.empty()) {
    pruner = std::make_unique<MaskedPruner>(std::move(pruner),
                                            options.certified_mask);
  }
  result.configs = pruner->prune(split.train, options.num_configs);
  result.ceiling = pruning_ceiling(split.test, result.configs);
  result.compiled_kernels =
      gemm::count_compiled_kernels(configs_of(result.configs));

  result.selector = make_selector(options.selector_method, options.model_seed,
                                  options.scale_features);
  result.selector->set_feature_map(options.feature_map);
  result.selector->fit(split.train, result.configs);
  result.achieved = selector_score(*result.selector, split.test);
  result.accuracy = selector_accuracy(*result.selector, split.test);
  return result;
}

std::vector<gemm::KernelConfig> configs_of(
    const std::vector<std::size_t>& indices) {
  const auto& all = gemm::enumerate_configs();
  std::vector<gemm::KernelConfig> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) {
    AKS_CHECK(i < all.size(), "config index out of range");
    out.push_back(all[i]);
  }
  return out;
}

}  // namespace aks::select

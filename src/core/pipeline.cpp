#include "core/pipeline.hpp"

#include "common/error.hpp"

namespace aks::select {

std::string to_string(PruneMethod method) {
  switch (method) {
    case PruneMethod::kTopN: return "TopN";
    case PruneMethod::kKMeans: return "KMeans";
    case PruneMethod::kHdbscan: return "HDBScan";
    case PruneMethod::kPcaKMeans: return "PCA+KMeans";
    case PruneMethod::kDecisionTree: return "DecisionTree";
    case PruneMethod::kAgglomerative: return "Agglomerative";
  }
  return "?";
}

std::string to_string(SelectorMethod method) {
  switch (method) {
    case SelectorMethod::kDecisionTree: return "DecisionTree";
    case SelectorMethod::kRandomForest: return "RandomForest";
    case SelectorMethod::k1Nn: return "1NearestNeighbor";
    case SelectorMethod::k3Nn: return "3NearestNeighbors";
    case SelectorMethod::kLinearSvm: return "LinearSVM";
    case SelectorMethod::kRadialSvm: return "RadialSVM";
    case SelectorMethod::kGradientBoosting: return "GradientBoosting";
  }
  return "?";
}

std::unique_ptr<ConfigPruner> make_pruner(PruneMethod method,
                                          std::uint64_t seed) {
  switch (method) {
    case PruneMethod::kTopN:
      return std::make_unique<TopNPruner>();
    case PruneMethod::kKMeans:
      return std::make_unique<KMeansPruner>(seed);
    case PruneMethod::kHdbscan:
      return std::make_unique<HdbscanPruner>();
    case PruneMethod::kPcaKMeans:
      return std::make_unique<PcaKMeansPruner>(0, seed);
    case PruneMethod::kDecisionTree:
      return std::make_unique<DecisionTreePruner>();
    case PruneMethod::kAgglomerative:
      return std::make_unique<AgglomerativePruner>();
  }
  AKS_FAIL("unknown prune method");
}

std::unique_ptr<KernelSelector> make_selector(SelectorMethod method,
                                              std::uint64_t seed,
                                              bool scale_features) {
  switch (method) {
    case SelectorMethod::kDecisionTree:
      return std::make_unique<DecisionTreeSelector>(ml::TreeOptions{},
                                                    scale_features);
    case SelectorMethod::kRandomForest: {
      ml::ForestOptions options;
      options.seed = seed;
      return std::make_unique<RandomForestSelector>(options, scale_features);
    }
    case SelectorMethod::k1Nn:
      return std::make_unique<KnnSelector>(1, scale_features);
    case SelectorMethod::k3Nn:
      return std::make_unique<KnnSelector>(3, scale_features);
    case SelectorMethod::kLinearSvm: {
      ml::SvmOptions options;
      options.kernel = ml::SvmKernel::kLinear;
      options.seed = seed;
      return std::make_unique<SvmSelector>(options, scale_features);
    }
    case SelectorMethod::kRadialSvm: {
      ml::SvmOptions options;
      options.kernel = ml::SvmKernel::kRbf;
      options.seed = seed;
      return std::make_unique<SvmSelector>(options, scale_features);
    }
    case SelectorMethod::kGradientBoosting: {
      ml::GbmOptions options;
      options.seed = seed;
      return std::make_unique<GbmSelector>(options, scale_features);
    }
  }
  AKS_FAIL("unknown selector method");
}

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

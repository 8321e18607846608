// End-to-end tuning pipeline: dataset -> prune -> train selector -> report.
//
// This is the workflow the paper proposes for shipping a SYCL library:
// benchmark offline, cluster to a kernel budget, train a cheap runtime
// selector, and deploy kernels + selector together. The pipeline wraps the
// pieces with a single options struct so examples, benches and downstream
// users drive one entry point.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/evaluation.hpp"
#include "core/pruning.hpp"
#include "core/selector.hpp"
#include "dataset/perf_dataset.hpp"

namespace aks::select {

struct PipelineOptions {
  /// Kernel budget (the paper examines 4..15).
  std::size_t num_configs = 8;
  PruneMethod prune_method = PruneMethod::kDecisionTree;
  SelectorMethod selector_method = SelectorMethod::kDecisionTree;
  /// Train fraction of the dataset (the paper: 136/170 = 0.8).
  double train_fraction = 0.8;
  std::uint64_t split_seed = 1;
  std::uint64_t model_seed = 0;
  bool scale_features = false;
  FeatureMap feature_map = FeatureMap::kRaw;
  /// Per-config safety certificates (index = canonical config index, true =
  /// statically certified SAFE; typically
  /// `check::symbolic::CertifyReport::safe_mask()`). When non-empty the
  /// pruner is wrapped in a "+Certified" MaskedPruner so uncertified
  /// configurations never enter the shipped set.
  std::vector<bool> certified_mask;
};

struct PipelineResult {
  /// Canonical indices of the shipped configurations.
  std::vector<std::size_t> configs;
  /// Geomean % of optimal achievable with those configs on the test set.
  double ceiling = 0.0;
  /// Geomean % of optimal the trained selector achieves on the test set.
  double achieved = 0.0;
  /// Selection accuracy (picked the best allowed config) on the test set.
  double accuracy = 0.0;
  /// Compiled kernels the shipped set needs (library-size metric).
  std::size_t compiled_kernels = 0;
  /// The trained selector, ready for deployment.
  std::unique_ptr<KernelSelector> selector;
};

/// Runs split -> prune -> fit -> evaluate on `dataset`.
[[nodiscard]] PipelineResult run_pipeline(const data::PerfDataset& dataset,
                                          const PipelineOptions& options = {});

/// The shipped configurations as full KernelConfig values.
[[nodiscard]] std::vector<gemm::KernelConfig> configs_of(
    const std::vector<std::size_t>& indices);

}  // namespace aks::select

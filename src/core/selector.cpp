#include "core/selector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aks::select {

std::string to_string(FeatureMap map) {
  switch (map) {
    case FeatureMap::kRaw: return "raw";
    case FeatureMap::kLog2: return "log2";
  }
  return "?";
}

namespace {

double map_value(FeatureMap map, double v) {
  switch (map) {
    case FeatureMap::kRaw:
      return v;
    case FeatureMap::kLog2:
      return std::log2(std::max(v, 1.0));
  }
  return v;
}

template <class Options>
Options seeded(std::uint64_t seed) {
  Options options;
  options.seed = seed;
  return options;
}

ml::SvmOptions svm_options(ml::SvmKernel kernel, std::uint64_t seed) {
  auto options = seeded<ml::SvmOptions>(seed);
  options.kernel = kernel;
  return options;
}

}  // namespace

gemm::KernelConfig KernelSelector::select_config(
    const gemm::GemmShape& shape) const {
  const double features[3] = {static_cast<double>(shape.m),
                              static_cast<double>(shape.k),
                              static_cast<double>(shape.n)};
  return gemm::enumerate_configs()[select(features)];
}

std::vector<int> KernelSelector::make_labels(
    const data::PerfDataset& train) const {
  AKS_CHECK(!allowed_.empty(), "selector fitted with empty config set");
  std::vector<int> labels(train.num_shapes());
  for (std::size_t r = 0; r < train.num_shapes(); ++r) {
    double best = -1.0;
    int best_idx = 0;
    for (std::size_t i = 0; i < allowed_.size(); ++i) {
      const double score = train.scores()(r, allowed_[i]);
      if (score > best) {
        best = score;
        best_idx = static_cast<int>(i);
      }
    }
    labels[r] = best_idx;
  }
  return labels;
}

common::Matrix KernelSelector::prepare_fit(const common::Matrix& x) {
  common::Matrix mapped(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      mapped(r, c) = map_value(feature_map_, x(r, c));
    }
  }
  if (!scale_features_) return mapped;
  scaler_.fit(mapped);
  return scaler_.transform(mapped);
}

std::vector<double> KernelSelector::prepare_row(
    std::span<const double> row) const {
  std::vector<double> mapped(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    mapped[c] = map_value(feature_map_, row[c]);
  }
  if (!scale_features_) return mapped;
  return scaler_.transform_row(mapped);
}

void KernelSelector::adopt_fitted(bool fitted, int num_classes,
                                  std::vector<std::size_t> allowed) {
  AKS_CHECK(fitted, "model must be fitted");
  AKS_CHECK(!allowed.empty(), "allowed set must be non-empty");
  AKS_CHECK(num_classes == static_cast<int>(allowed.size()),
            "model has " << num_classes << " classes for " << allowed.size()
                         << " allowed configs");
  const auto num_configs = gemm::enumerate_configs().size();
  for (const std::size_t c : allowed) {
    AKS_CHECK(c < num_configs, "allowed config index out of range");
  }
  allowed_ = std::move(allowed);
}

std::string model_name(const ml::DecisionTreeClassifier&) {
  return "DecisionTree";
}
std::string model_name(const ml::RandomForestClassifier&) {
  return "RandomForest";
}
std::string model_name(const ml::KnnClassifier& model) {
  return std::to_string(model.k()) + "NearestNeighbor" +
         (model.k() > 1 ? "s" : "");
}
std::string model_name(const ml::SvmClassifier& model) {
  return model.kernel() == ml::SvmKernel::kLinear ? "LinearSVM" : "RadialSVM";
}
std::string model_name(const ml::GradientBoostedClassifier&) {
  return "GradientBoosting";
}

std::unique_ptr<KernelSelector> make_selector(SelectorMethod method,
                                              std::uint64_t seed,
                                              bool scale_features) {
  switch (method) {
    case SelectorMethod::kDecisionTree:
      return std::make_unique<DecisionTreeSelector>(ml::TreeOptions{},
                                                    scale_features);
    case SelectorMethod::kRandomForest:
      return std::make_unique<RandomForestSelector>(
          seeded<ml::ForestOptions>(seed), scale_features);
    case SelectorMethod::k1Nn:
      return std::make_unique<KnnSelector>(1, scale_features);
    case SelectorMethod::k3Nn:
      return std::make_unique<KnnSelector>(3, scale_features);
    case SelectorMethod::kLinearSvm:
      return std::make_unique<SvmSelector>(
          svm_options(ml::SvmKernel::kLinear, seed), scale_features);
    case SelectorMethod::kRadialSvm:
      return std::make_unique<SvmSelector>(
          svm_options(ml::SvmKernel::kRbf, seed), scale_features);
    case SelectorMethod::kGradientBoosting:
      return std::make_unique<GbmSelector>(seeded<ml::GbmOptions>(seed),
                                           scale_features);
  }
  AKS_FAIL("unknown selector method");
}

std::string to_string(SelectorMethod method) {
  return make_selector(method)->name();
}

std::vector<std::unique_ptr<KernelSelector>> all_selectors(
    std::uint64_t seed, bool scale_features) {
  std::vector<std::unique_ptr<KernelSelector>> out;
  for (const SelectorMethod method : kTableOneSelectors) {
    out.push_back(make_selector(method, seed, scale_features));
  }
  return out;
}

}  // namespace aks::select

// Runtime kernel selection — Section IV of the paper.
//
// Once a library ships N kernels, something must choose among them for each
// incoming (M, K, N) workload. A KernelSelector is trained on the tuning
// dataset restricted to the pruned configuration set: the training label of
// a shape is the best *allowed* configuration for it, and the selector
// learns sizes -> label. One ClassifierSelector template wraps every
// classifier; the six of Table I are decision tree, random forest, 1-NN,
// 3-NN, linear SVM and radial (RBF) SVM, and make_selector() is the one
// place a SelectorMethod becomes an object.
//
// Feature scaling is optional and off by default, matching the paper's
// setup (see svm.hpp for why that matters).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataset/perf_dataset.hpp"
#include "gemm/config.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/knn.hpp"
#include "ml/random_forest.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"

namespace aks::select {

/// Optional feature engineering applied before any scaling/model. Matrix
/// sizes span five orders of magnitude, so a log transform often helps the
/// distance- and margin-based selectors (bench/ablation_feature_maps).
enum class FeatureMap { kRaw, kLog2 };

[[nodiscard]] std::string to_string(FeatureMap map);

class KernelSelector {
 public:
  virtual ~KernelSelector() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Trains on `train` restricted to the `allowed` configuration indices.
  virtual void fit(const data::PerfDataset& train,
                   std::vector<std::size_t> allowed) = 0;

  /// Canonical configuration index chosen for a feature row (M, K, N).
  [[nodiscard]] virtual std::size_t select(
      std::span<const double> features) const = 0;

  /// Convenience: the full KernelConfig for a GEMM shape.
  [[nodiscard]] gemm::KernelConfig select_config(
      const gemm::GemmShape& shape) const;

  /// The configurations this selector can return (set by fit()).
  [[nodiscard]] const std::vector<std::size_t>& allowed() const {
    return allowed_;
  }

  /// Whether fit()/select() standardise features internally.
  [[nodiscard]] bool scales_features() const { return scale_features_; }

  /// Sets the feature map; must be called before fit().
  void set_feature_map(FeatureMap map) { feature_map_ = map; }
  [[nodiscard]] FeatureMap feature_map() const { return feature_map_; }

 protected:
  /// Builds classification labels: for each training row, the index *into
  /// `allowed_`* of the best allowed configuration.
  [[nodiscard]] std::vector<int> make_labels(
      const data::PerfDataset& train) const;

  /// Applies the feature map, fits the scaler when enabled, and returns the
  /// matrix the model trains on. Call exactly once per fit().
  [[nodiscard]] common::Matrix prepare_fit(const common::Matrix& x);

  /// Applies the feature map and scaler to one query row.
  [[nodiscard]] std::vector<double> prepare_row(
      std::span<const double> row) const;

  /// Adopts an already fitted model's `allowed` set after checking that the
  /// model is fitted with one class per allowed configuration.
  void adopt_fitted(bool fitted, int num_classes,
                    std::vector<std::size_t> allowed);

  std::vector<std::size_t> allowed_;
  ml::StandardScaler scaler_;
  bool scale_features_ = false;
  FeatureMap feature_map_ = FeatureMap::kRaw;
};

/// Report names of the classifiers, as Table I prints them.
[[nodiscard]] std::string model_name(const ml::DecisionTreeClassifier& model);
[[nodiscard]] std::string model_name(const ml::RandomForestClassifier& model);
[[nodiscard]] std::string model_name(const ml::KnnClassifier& model);
[[nodiscard]] std::string model_name(const ml::SvmClassifier& model);
[[nodiscard]] std::string model_name(
    const ml::GradientBoostedClassifier& model);

/// A KernelSelector over any classifier with the fit(x, labels,
/// num_classes) / predict_row(row) interface: the one fit/predict surface
/// through which the paper trains and compares its Table I classifiers.
template <class Model>
class ClassifierSelector final : public KernelSelector {
 public:
  ClassifierSelector() = default;

  /// `options` is what the model's constructor takes (TreeOptions, the k
  /// of k-NN, ...); every fit() starts from a fresh model built from it.
  template <class Options>
    requires std::constructible_from<Model, Options>
  explicit ClassifierSelector(Options options, bool scale_features = false)
      : prototype_(std::move(options)), model_(prototype_) {
    scale_features_ = scale_features;
  }

  /// Reconstructs a fitted selector from a deserialised model (see
  /// core/serialize.hpp). The model's class count must match `allowed`.
  ClassifierSelector(Model fitted, std::vector<std::size_t> allowed)
      : model_(std::move(fitted)) {
    adopt_fitted(model_.fitted(), model_.num_classes(), std::move(allowed));
  }

  [[nodiscard]] std::string name() const override {
    return model_name(model_);
  }

  void fit(const data::PerfDataset& train,
           std::vector<std::size_t> allowed) override {
    allowed_ = std::move(allowed);
    const auto x = prepare_fit(train.features());
    model_ = prototype_;
    model_.fit(x, make_labels(train), static_cast<int>(allowed_.size()));
  }

  [[nodiscard]] std::size_t select(
      std::span<const double> features) const override {
    return allowed_[static_cast<std::size_t>(
        model_.predict_row(prepare_row(features)))];
  }

  [[nodiscard]] const Model& model() const { return model_; }

 private:
  Model prototype_;  // never fitted
  Model model_;
};

using DecisionTreeSelector = ClassifierSelector<ml::DecisionTreeClassifier>;
using RandomForestSelector = ClassifierSelector<ml::RandomForestClassifier>;
using KnnSelector = ClassifierSelector<ml::KnnClassifier>;
using SvmSelector = ClassifierSelector<ml::SvmClassifier>;
/// Gradient-boosted trees (Bergstra et al.'s model family from the paper's
/// related work): an extension selector beyond Table I.
using GbmSelector = ClassifierSelector<ml::GradientBoostedClassifier>;

enum class SelectorMethod {
  kDecisionTree,
  kRandomForest,
  k1Nn,
  k3Nn,
  kLinearSvm,
  kRadialSvm,
  // Extension beyond Table I (the related work's boosted regression trees):
  kGradientBoosting,
};

/// Table I's six classifiers, in row order.
inline constexpr std::array kTableOneSelectors = {
    SelectorMethod::kDecisionTree, SelectorMethod::kRandomForest,
    SelectorMethod::k1Nn,          SelectorMethod::k3Nn,
    SelectorMethod::kLinearSvm,    SelectorMethod::kRadialSvm,
};

/// The one place a selector method becomes an object. `scale_features`
/// applies a StandardScaler inside the selector (the ablation variant).
[[nodiscard]] std::unique_ptr<KernelSelector> make_selector(
    SelectorMethod method, std::uint64_t seed = 0,
    bool scale_features = false);

/// The name() of the selector `method` builds.
[[nodiscard]] std::string to_string(SelectorMethod method);

/// make_selector over kTableOneSelectors.
[[nodiscard]] std::vector<std::unique_ptr<KernelSelector>> all_selectors(
    std::uint64_t seed = 0, bool scale_features = false);

}  // namespace aks::select

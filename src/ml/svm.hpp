// Support vector machine classifier (C-SVC) trained with SMO.
//
// Linear and RBF kernels, one-vs-rest multi-class — the paper's LinearSVM
// and RadialSVM selector baselines. Training uses Platt's sequential
// minimal optimisation with the full kernel matrix cached (training sets
// here are tiny).
//
// Note: like scikit-learn circa the paper, no internal feature scaling is
// performed. Feeding raw matrix dimensions to the RBF kernel makes gamma
// degenerate and collapses predictions to the majority class — exactly the
// ~55% RadialSVM rows of Table I. bench/ablation_feature_scaling shows the
// standardised alternative.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"

namespace aks::ml {

enum class SvmKernel { kLinear, kRbf };

struct SvmOptions {
  SvmKernel kernel = SvmKernel::kLinear;
  /// Soft-margin penalty.
  double c = 1.0;
  /// RBF width; 0 selects scikit-learn's "scale": 1 / (d * Var(X)).
  double gamma = 0.0;
  /// KKT violation tolerance.
  double tolerance = 1e-3;
  /// Passes over the data without any update before declaring convergence.
  int max_stale_passes = 5;
  /// Hard cap on optimisation sweeps.
  int max_iterations = 2000;
  std::uint64_t seed = 0;
};

/// Binary C-SVC; labels are -1 / +1.
class BinarySvm {
 public:
  explicit BinarySvm(SvmOptions options = {});

  void fit(const common::Matrix& x, const std::vector<int>& y);

  [[nodiscard]] bool fitted() const { return !alpha_.empty(); }
  /// Signed decision value; positive means class +1.
  [[nodiscard]] double decision(std::span<const double> row) const;
  [[nodiscard]] int predict_row(std::span<const double> row) const;
  [[nodiscard]] std::size_t num_support_vectors() const;
  [[nodiscard]] double effective_gamma() const { return gamma_; }

  /// Explicit primal weights (populated for the linear kernel).
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

 private:
  [[nodiscard]] double kernel(std::span<const double> a,
                              std::span<const double> b) const;
  /// Dual coordinate descent (liblinear algorithm 3) for the linear kernel;
  /// trains the explicit primal weight vector.
  void fit_linear(const common::Matrix& x, const std::vector<int>& y);
  /// SMO for kernelised (RBF) training.
  void fit_smo(const common::Matrix& x, const std::vector<int>& y);

  SvmOptions options_;
  common::Matrix support_;        // training rows (all rows kept; alpha==0 skipped)
  std::vector<double> alpha_;
  std::vector<int> labels_;
  std::vector<double> weights_;   // linear kernel only
  double bias_ = 0.0;
  double gamma_ = 0.0;
};

/// One-vs-rest multi-class wrapper.
class SvmClassifier {
 public:
  explicit SvmClassifier(SvmOptions options = {});

  void fit(const common::Matrix& x, const std::vector<int>& y,
           int num_classes = 0);

  [[nodiscard]] bool fitted() const { return !machines_.empty(); }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  [[nodiscard]] SvmKernel kernel() const { return options_.kernel; }

  [[nodiscard]] int predict_row(std::span<const double> row) const;
  [[nodiscard]] std::vector<int> predict(const common::Matrix& x) const;
  /// Per-class decision values.
  [[nodiscard]] std::vector<double> decision_row(
      std::span<const double> row) const;

 private:
  SvmOptions options_;
  std::vector<BinarySvm> machines_;
  int num_classes_ = 0;
  /// Classes absent from training data keep a -inf decision.
  std::vector<bool> class_present_;
};

}  // namespace aks::ml

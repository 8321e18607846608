#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/knn.hpp"
#include "ml/linalg.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"

namespace aks::ml {
namespace {

/// Linearly separable binary problem: sign of x0 + x1 - 10.
void separable_problem(std::size_t n, std::uint64_t seed, double margin,
                       Matrix& x, std::vector<int>& y) {
  common::Rng rng(seed);
  x.resize(n, 2);
  y.resize(n);
  std::size_t i = 0;
  while (i < n) {
    const double a = rng.uniform(0, 10);
    const double b = rng.uniform(0, 10);
    const double score = a + b - 10.0;
    if (std::abs(score) < margin) continue;  // enforce a margin
    x(i, 0) = a;
    x(i, 1) = b;
    y[i] = score > 0 ? 1 : -1;
    ++i;
  }
}

/// Concentric rings: not linearly separable, easy for RBF.
void rings_problem(std::size_t n, std::uint64_t seed, Matrix& x,
                   std::vector<int>& y) {
  common::Rng rng(seed);
  x.resize(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double radius = (i % 2 == 0) ? 1.0 : 4.0;
    const double angle = rng.uniform(0, 2 * M_PI);
    x(i, 0) = radius * std::cos(angle) + rng.normal(0, 0.1);
    x(i, 1) = radius * std::sin(angle) + rng.normal(0, 0.1);
    y[i] = (i % 2 == 0) ? 1 : -1;
  }
}

TEST(BinarySvm, LinearSeparatesWithMargin) {
  Matrix x;
  std::vector<int> y;
  separable_problem(120, 1, 1.0, x, y);
  SvmOptions options;
  options.kernel = SvmKernel::kLinear;
  BinarySvm svm(options);
  svm.fit(x, y);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(svm.predict_row(x.row(i)), y[i]) << "row " << i;
  }
}

TEST(BinarySvm, LinearExposesWeights) {
  Matrix x;
  std::vector<int> y;
  separable_problem(100, 2, 1.0, x, y);
  SvmOptions options;
  options.kernel = SvmKernel::kLinear;
  BinarySvm svm(options);
  svm.fit(x, y);
  // Separator is x0 + x1 = 10: weights roughly equal and positive.
  const auto& w = svm.weights();
  ASSERT_EQ(w.size(), 3u);  // two features + bias
  EXPECT_GT(w[0], 0.0);
  EXPECT_GT(w[1], 0.0);
  EXPECT_NEAR(w[0] / w[1], 1.0, 0.5);
  EXPECT_LT(w[2], 0.0);  // bias pushes the boundary away from the origin
}

TEST(BinarySvm, RbfSolvesRings) {
  Matrix x;
  std::vector<int> y;
  rings_problem(120, 3, x, y);
  SvmOptions options;
  options.kernel = SvmKernel::kRbf;
  options.gamma = 0.5;
  BinarySvm svm(options);
  svm.fit(x, y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    correct += svm.predict_row(x.row(i)) == y[i] ? 1u : 0u;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.95);
  EXPECT_GT(svm.num_support_vectors(), 0u);
}

TEST(BinarySvm, LinearCannotSolveRings) {
  Matrix x;
  std::vector<int> y;
  rings_problem(120, 4, x, y);
  SvmOptions options;
  options.kernel = SvmKernel::kLinear;
  BinarySvm svm(options);
  svm.fit(x, y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    correct += svm.predict_row(x.row(i)) == y[i] ? 1u : 0u;
  }
  // Rings are not linearly separable: a linear cut must stay far from the
  // near-perfect accuracy the RBF kernel reaches on the same data.
  EXPECT_LT(static_cast<double>(correct) / static_cast<double>(x.rows()), 0.85);
}

TEST(BinarySvm, ScaleGammaDegeneratesOnRawMagnitudes) {
  // The paper's RadialSVM pathology in miniature: features in the
  // thousands make the scale gamma so small that all kernel values are
  // ~1 and the decision collapses towards a constant.
  common::Rng rng(5);
  Matrix x(60, 3);
  std::vector<int> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.uniform(1, 200000);
    x(i, 1) = rng.uniform(1, 25000);
    x(i, 2) = rng.uniform(1, 4096);
    y[i] = i % 3 == 0 ? 1 : -1;  // imbalanced 1:2
  }
  SvmOptions options;
  options.kernel = SvmKernel::kRbf;
  BinarySvm svm(options);
  svm.fit(x, y);
  EXPECT_LT(svm.effective_gamma(), 1e-6);
  // Majority class dominates predictions.
  std::size_t majority = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    majority += svm.predict_row(x.row(i)) == -1 ? 1u : 0u;
  }
  EXPECT_GE(majority, 45u);  // well above the true 40/60 class share
}

TEST(BinarySvm, RejectsBadInput) {
  BinarySvm svm;
  EXPECT_THROW(svm.fit(Matrix(2, 2), {0, 1}), common::Error);  // labels not +-1
  EXPECT_THROW(svm.fit(Matrix(1, 2), {1}), common::Error);
  SvmOptions bad;
  bad.c = 0.0;
  EXPECT_THROW(BinarySvm{bad}, common::Error);
  EXPECT_THROW((void)svm.decision(std::vector<double>{1.0, 2.0}),
               common::Error);  // not fitted
}

TEST(SvmClassifier, OneVsRestMulticlass) {
  // Three clusters, one per class.
  common::Rng rng(6);
  Matrix x(90, 2);
  std::vector<int> y(90);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (std::size_t i = 0; i < 90; ++i) {
    const std::size_t cls = i % 3;
    x(i, 0) = centers[cls][0] + rng.normal(0, 0.5);
    x(i, 1) = centers[cls][1] + rng.normal(0, 0.5);
    y[i] = static_cast<int>(cls);
  }
  SvmOptions options;
  options.kernel = SvmKernel::kLinear;
  SvmClassifier svm(options);
  svm.fit(x, y);
  EXPECT_EQ(svm.num_classes(), 3);
  EXPECT_GT(accuracy(y, svm.predict(x)), 0.95);
  const auto decisions = svm.decision_row(x.row(0));
  EXPECT_EQ(decisions.size(), 3u);
}

TEST(SvmClassifier, HandlesAbsentClasses) {
  // num_classes = 4 but only classes 0 and 2 appear.
  Matrix x{{0, 0}, {0, 1}, {10, 10}, {10, 11}};
  std::vector<int> y{0, 0, 2, 2};
  SvmClassifier svm;
  svm.fit(x, y, 4);
  const int predicted = svm.predict_row(x.row(0));
  EXPECT_TRUE(predicted == 0 || predicted == 2);
}

TEST(Knn, OneNeighborMemorisesTrainingSet) {
  common::Rng rng(7);
  Matrix x(50, 2);
  std::vector<int> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.uniform(0, 1);
    x(i, 1) = rng.uniform(0, 1);
    y[i] = static_cast<int>(rng.uniform_index(4));
  }
  KnnClassifier knn(1);
  knn.fit(x, y);
  EXPECT_DOUBLE_EQ(accuracy(y, knn.predict(x)), 1.0);
}

TEST(Knn, ThreeNeighborsSmoothsNoise) {
  // Two clusters with one mislabelled point inside each; 3-NN fixes the
  // mislabelled point's neighbourhood prediction.
  Matrix x{{0, 0}, {0.1, 0}, {0, 0.1}, {5, 5}, {5.1, 5}, {5, 5.1}};
  std::vector<int> y{0, 0, 1, 1, 1, 0};  // one bad label per cluster
  KnnClassifier knn(3);
  knn.fit(x, y);
  const double probe_a[] = {0.05, 0.05};
  const double probe_b[] = {5.05, 5.05};
  EXPECT_EQ(knn.predict_row(probe_a), 0);
  EXPECT_EQ(knn.predict_row(probe_b), 1);
}

TEST(Knn, DeterministicTieBreakByIndex) {
  Matrix x{{0, 0}, {2, 0}};
  std::vector<int> y{0, 1};
  KnnClassifier knn(1);
  knn.fit(x, y);
  // Probe equidistant from both points: the lower index wins.
  const double probe[] = {1.0, 0.0};
  EXPECT_EQ(knn.predict_row(probe), 0);
}

TEST(Knn, RejectsBadInput) {
  EXPECT_THROW(KnnClassifier{0}, common::Error);
  KnnClassifier knn(5);
  EXPECT_THROW(knn.fit(Matrix(3, 2), {0, 1, 0}), common::Error);  // n < k
  KnnClassifier ok(1);
  ok.fit(Matrix(2, 2), {0, 1});
  EXPECT_THROW((void)ok.predict_row(std::vector<double>{1.0}), common::Error);
}

TEST(Metrics, Accuracy) {
  const std::vector<int> truth{0, 1, 2, 1};
  const std::vector<int> pred{0, 2, 2, 1};
  EXPECT_DOUBLE_EQ(accuracy(truth, pred), 0.75);
  EXPECT_THROW((void)accuracy({0}, {0, 1}), common::Error);
  EXPECT_THROW((void)accuracy({}, {}), common::Error);
}

}  // namespace
}  // namespace aks::ml

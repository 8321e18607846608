#include "ml/metrics.hpp"

#include "common/error.hpp"

namespace aks::ml {

double accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted) {
  AKS_CHECK(truth.size() == predicted.size(), "accuracy: size mismatch");
  AKS_CHECK(!truth.empty(), "accuracy of empty labels");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    hits += truth[i] == predicted[i] ? 1u : 0u;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace aks::ml

// Classification metrics.
#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace aks::ml {

/// Fraction of matching labels; requires equal, non-zero lengths.
[[nodiscard]] double accuracy(const std::vector<int>& truth,
                              const std::vector<int>& predicted);

}  // namespace aks::ml

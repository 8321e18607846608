#include "gemm/shape.hpp"

#include "common/error.hpp"

namespace aks::gemm {

void reject_shape(const GemmShape& shape) {
  AKS_FAIL("invalid GEMM shape " << shape.to_string()
                                 << ": a dimension is zero or an operand's "
                                    "element count overflows size_t");
}

}  // namespace aks::gemm

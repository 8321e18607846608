#include "gemm/registry.hpp"

#include <optional>

#include "common/error.hpp"
#include "gemm/tiled_kernel.hpp"
#include "trace/trace.hpp"

namespace aks::gemm {

namespace {

trace::LaunchAnnotation::Info launch_info(const KernelConfig& config,
                                          const GemmShape& shape,
                                          std::size_t batch) {
  trace::LaunchAnnotation::Info info;
  try {
    info.config_index = config_index(config);
  } catch (const common::Error&) {
    // Non-canonical (hand-built) config: no stable index to attach.
    info.config_index = ~std::uint64_t{0};
  }
  info.m = shape.m;
  info.k = shape.k;
  info.n = shape.n;
  info.batch = batch;
  return info;
}

/// `batch` packed operands of `per_entry` elements; throws when the total
/// overflows size_t.
std::size_t packed_size(std::size_t batch, std::size_t per_entry,
                        const GemmShape& shape) {
  std::size_t total = 0;
  AKS_CHECK(!__builtin_mul_overflow(batch, per_entry, &total),
            "batched GEMM " << shape.to_string() << " x " << batch
                            << " overflows size_t");
  return total;
}

}  // namespace

std::size_t registry_size() {
  const std::size_t sizes = tile_sizes().size();
  return sizes * sizes * sizes;
}

syclrt::Event launch_gemm(syclrt::Queue& queue, const KernelConfig& config,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c, const GemmShape& shape) {
  check_shape(shape);
  AKS_CHECK(a.size() == shape.m * shape.k,
            "A has " << a.size() << " elements, shape needs " << shape.m * shape.k);
  AKS_CHECK(b.size() == shape.k * shape.n,
            "B has " << b.size() << " elements, shape needs " << shape.k * shape.n);
  AKS_CHECK(c.size() == shape.m * shape.n,
            "C has " << c.size() << " elements, shape needs " << shape.m * shape.n);
  // The queue's launch span picks the annotation up from thread-local state
  // — this is the layer that knows which selection decision is being run.
  std::optional<trace::LaunchAnnotation> annotation;
  if (trace::enabled()) {
    annotation.emplace(launch_info(config, shape, /*batch=*/1));
  }
  return launch_tiled(queue, config, a, b, c, shape);
}

syclrt::Event launch_batched_gemm(syclrt::Queue& queue,
                                  const KernelConfig& config,
                                  std::span<const float> a,
                                  std::span<const float> b,
                                  std::span<float> c, const GemmShape& shape,
                                  std::size_t batch) {
  AKS_CHECK(batch > 0, "batched GEMM needs at least one batch entry");
  check_shape(shape);
  AKS_CHECK(a.size() == packed_size(batch, shape.m * shape.k, shape),
            "batched A size mismatch");
  AKS_CHECK(b.size() == packed_size(batch, shape.k * shape.n, shape),
            "batched B size mismatch");
  AKS_CHECK(c.size() == packed_size(batch, shape.m * shape.n, shape),
            "batched C size mismatch");
  std::optional<trace::LaunchAnnotation> annotation;
  if (trace::enabled()) {
    annotation.emplace(launch_info(config, shape, batch));
  }
  return launch_tiled_batched(queue, config, a, b, c, shape, batch);
}

}  // namespace aks::gemm

// The register-tiled GEMM kernel family, modelled on SYCL-DNN's matmul.
//
// Each work-item computes a RowTile x ColTile tile of C, stepping AccSize
// values along K per iteration. RowTile, ColTile and AccSize are template
// parameters — exactly the compile-time specialisation scheme the paper
// describes ("C++ templates are used throughout SYCL-DNN to provide
// specializations for ... tile sizes and other constants") — so each of the
// 64 combinations is a separately compiled kernel. The work-group shape is
// a runtime launch parameter and needs no extra instantiations.
//
// Interior work-items (whole tiles, whole accumulator steps) run a fully
// unrolled fast path over fixed-size register arrays; edge items fall back
// to a guarded path. This mirrors how the real kernels trade register
// pressure against unrolling, which is what gives each instantiation its
// distinct performance character on a GPU.
//
// The accessor types are template parameters defaulting to spans so the
// checked execution mode (src/check) can instantiate the very same kernel
// over recording accessors — the analysed code path is the shipped one, not
// a checked re-implementation.
//
// The {1,2,4,8}^3 instantiation set (`with_tiled_kernel`) and the launch
// geometry (`launch_tiled`, `launch_tiled_batched`) live here once; the
// shipping launches (registry.cpp) and the checked replay (src/check) both
// go through them.
#pragma once

#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::gemm {

template <int RowTile, int ColTile, int AccSize,
          typename ConstAcc = std::span<const float>,
          typename MutAcc = std::span<float>>
class TiledGemmKernel {
  static_assert(RowTile >= 1 && ColTile >= 1 && AccSize >= 1);

 public:
  static constexpr std::size_t kRowTile = RowTile;
  static constexpr std::size_t kColTile = ColTile;
  static constexpr std::size_t kAccSize = AccSize;

  TiledGemmKernel(ConstAcc a, ConstAcc b, MutAcc c, GemmShape shape)
      : a_(a), b_(b), c_(c), shape_(shape) {}

  void operator()(const syclrt::NdItem<2>& item) const {
    // Global id (r, c) addresses one output tile; the launch is padded to
    // whole work-groups so out-of-range items simply return.
    compute_tile(item.get_global_id(0), item.get_global_id(1));
  }

  /// Computes the output tile at tile coordinates (tile_row, tile_col);
  /// silently returns for out-of-range tiles (padded launches). Exposed so
  /// the batched kernel can reuse the exact same compute paths.
  void compute_tile(std::size_t tile_row, std::size_t tile_col) const {
    const std::size_t row0 = tile_row * kRowTile;
    const std::size_t col0 = tile_col * kColTile;
    if (row0 >= shape_.m || col0 >= shape_.n) return;

    const bool interior = row0 + kRowTile <= shape_.m &&
                          col0 + kColTile <= shape_.n &&
                          shape_.k % kAccSize == 0;
    if (interior) {
      compute_interior(row0, col0);
    } else {
      compute_edge(row0, col0);
    }
  }

 private:
  void compute_interior(std::size_t row0, std::size_t col0) const {
    float acc[kRowTile][kColTile] = {};
    for (std::size_t k0 = 0; k0 < shape_.k; k0 += kAccSize) {
      // Stage operands in registers, as the GPU kernel does.
      float a_block[kRowTile][kAccSize];
      for (int r = 0; r < RowTile; ++r)
        for (int s = 0; s < AccSize; ++s)
          a_block[r][s] = a_[(row0 + static_cast<std::size_t>(r)) * shape_.k +
                             k0 + static_cast<std::size_t>(s)];
      float b_block[kAccSize][kColTile];
      for (int s = 0; s < AccSize; ++s)
        for (int c = 0; c < ColTile; ++c)
          b_block[s][c] = b_[(k0 + static_cast<std::size_t>(s)) * shape_.n +
                             col0 + static_cast<std::size_t>(c)];
      for (int s = 0; s < AccSize; ++s)
        for (int r = 0; r < RowTile; ++r)
          for (int c = 0; c < ColTile; ++c)
            acc[r][c] += a_block[r][s] * b_block[s][c];
    }
    for (int r = 0; r < RowTile; ++r)
      for (int c = 0; c < ColTile; ++c)
        c_[(row0 + static_cast<std::size_t>(r)) * shape_.n + col0 +
           static_cast<std::size_t>(c)] = acc[r][c];
  }

  void compute_edge(std::size_t row0, std::size_t col0) const {
    const std::size_t row_end = std::min(row0 + kRowTile, shape_.m);
    const std::size_t col_end = std::min(col0 + kColTile, shape_.n);
    float acc[kRowTile][kColTile] = {};
    for (std::size_t k0 = 0; k0 < shape_.k; k0 += kAccSize) {
      const std::size_t k_end = std::min(k0 + kAccSize, shape_.k);
      for (std::size_t kk = k0; kk < k_end; ++kk) {
        for (std::size_t r = row0; r < row_end; ++r) {
          const float av = a_[r * shape_.k + kk];
          for (std::size_t c = col0; c < col_end; ++c) {
            acc[r - row0][c - col0] += av * b_[kk * shape_.n + c];
          }
        }
      }
    }
    for (std::size_t r = row0; r < row_end; ++r)
      for (std::size_t c = col0; c < col_end; ++c)
        c_[r * shape_.n + c] = acc[r - row0][c - col0];
  }

  ConstAcc a_;
  ConstAcc b_;
  MutAcc c_;
  GemmShape shape_;
};

/// Batched variant: `batch` independent multiplies of identical shape, with
/// A/B/C packed contiguously per batch entry, executed as one 3-D launch
/// (batch x tile rows x tile cols). This is how the sixteen Winograd
/// multiplies ship as a single kernel instead of sixteen launches.
template <int RowTile, int ColTile, int AccSize,
          typename ConstAcc = std::span<const float>,
          typename MutAcc = std::span<float>>
class BatchedTiledGemmKernel {
 public:
  BatchedTiledGemmKernel(ConstAcc a, ConstAcc b, MutAcc c, GemmShape shape,
                         std::size_t batch)
      : a_(a), b_(b), c_(c), shape_(shape), batch_(batch) {}

  void operator()(const syclrt::NdItem<3>& item) const {
    const std::size_t bi = item.get_global_id(0);
    if (bi >= batch_) return;
    const std::size_t a_stride = shape_.m * shape_.k;
    const std::size_t b_stride = shape_.k * shape_.n;
    const std::size_t c_stride = shape_.m * shape_.n;
    const TiledGemmKernel<RowTile, ColTile, AccSize, ConstAcc, MutAcc> kernel(
        a_.subspan(bi * a_stride, a_stride),
        b_.subspan(bi * b_stride, b_stride),
        c_.subspan(bi * c_stride, c_stride), shape_);
    kernel.compute_tile(item.get_global_id(1), item.get_global_id(2));
  }

 private:
  ConstAcc a_;
  ConstAcc b_;
  MutAcc c_;
  GemmShape shape_;
  std::size_t batch_;
};

namespace detail {

/// Calls fn(std::integral_constant<int, V>{}) for the compiled size V equal
/// to `value`; throws naming `config` when `value` is not in {1,2,4,8}.
template <typename Fn>
decltype(auto) with_tile_size(int value, const KernelConfig& config, Fn&& fn) {
  switch (value) {
    case 1: return fn(std::integral_constant<int, 1>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 8: return fn(std::integral_constant<int, 8>{});
    default:
      AKS_FAIL("no compiled kernel for tile " << config.row_tile << "x"
               << config.col_tile << " acc " << config.acc_size);
  }
}

/// Work-items along one output dimension: one per (possibly partial) tile.
inline std::size_t tile_count(std::size_t extent, int tile) {
  return (extent + static_cast<std::size_t>(tile) - 1) /
         static_cast<std::size_t>(tile);
}

}  // namespace detail

/// The 64 compiled kernels: calls fn(row_tile, col_tile, acc_size) with each
/// argument a std::integral_constant<int, V> matching the config's
/// compile-time triple, so `fn` can name TiledGemmKernel<...> directly.
/// Throws common::Error for a triple outside {1,2,4,8}^3.
template <typename Fn>
decltype(auto) with_tiled_kernel(const KernelConfig& config, Fn&& fn) {
  return detail::with_tile_size(config.row_tile, config, [&](auto rt) {
    return detail::with_tile_size(config.col_tile, config, [&](auto ct) {
      return detail::with_tile_size(config.acc_size, config, [&](auto acc) {
        return fn(rt, ct, acc);
      });
    });
  });
}

/// Launches C = A * B with `config`: one work-item per output tile, padded
/// to whole work-groups of the config's runtime shape; the kernel guards the
/// padding (SYCL-DNN launch convention). Operand sizes are the caller's
/// contract.
template <typename ConstAcc, typename MutAcc>
syclrt::Event launch_tiled(syclrt::Queue& queue, const KernelConfig& config,
                           ConstAcc a, ConstAcc b, MutAcc c,
                           const GemmShape& shape) {
  return with_tiled_kernel(config, [&](auto rt, auto ct, auto acc) {
    const syclrt::NdRange<2> range(
        syclrt::Range<2>(detail::tile_count(shape.m, rt),
                         detail::tile_count(shape.n, ct)),
        syclrt::Range<2>(static_cast<std::size_t>(config.wg_rows),
                         static_cast<std::size_t>(config.wg_cols)));
    return queue.parallel_for(
        range, TiledGemmKernel<rt, ct, acc, ConstAcc, MutAcc>(a, b, c, shape));
  });
}

/// Batched counterpart: the same tile grid per batch entry behind a leading
/// batch dimension of local size 1, so one work-group handles one entry's
/// tile block.
template <typename ConstAcc, typename MutAcc>
syclrt::Event launch_tiled_batched(syclrt::Queue& queue,
                                   const KernelConfig& config, ConstAcc a,
                                   ConstAcc b, MutAcc c,
                                   const GemmShape& shape, std::size_t batch) {
  return with_tiled_kernel(config, [&](auto rt, auto ct, auto acc) {
    const syclrt::NdRange<3> range(
        syclrt::Range<3>(batch, detail::tile_count(shape.m, rt),
                         detail::tile_count(shape.n, ct)),
        syclrt::Range<3>(std::size_t{1},
                         static_cast<std::size_t>(config.wg_rows),
                         static_cast<std::size_t>(config.wg_cols)));
    return queue.parallel_for(
        range, BatchedTiledGemmKernel<rt, ct, acc, ConstAcc, MutAcc>(
                   a, b, c, shape, batch));
  });
}

}  // namespace aks::gemm

#include "gemm/access_metadata.hpp"

namespace aks::gemm {

KernelAccessPattern tiled_access_pattern(const KernelConfig& config) {
  KernelAccessPattern pattern;
  pattern.row_tile = config.row_tile;
  pattern.col_tile = config.col_tile;
  pattern.acc_size = config.acc_size;
  pattern.wg_rows = config.wg_rows;
  pattern.wg_cols = config.wg_cols;
  pattern.shape_guarded = true;   // compute_tile: row0 >= M || col0 >= N
  pattern.edge_clamped = true;    // compute_edge: min(row0+RT, M) etc.
  pattern.k_tail_clamped = true;  // compute_edge: k_end = min(k0+AS, K)
  pattern.reads_output = false;   // C is write-only in both paths
  // Staged operand panels: an (wg_rows*row_tile) x acc_size A panel and an
  // acc_size x (wg_cols*col_tile) B panel of floats.
  const auto rows = static_cast<std::size_t>(config.wg_rows) *
                    static_cast<std::size_t>(config.row_tile);
  const auto cols = static_cast<std::size_t>(config.wg_cols) *
                    static_cast<std::size_t>(config.col_tile);
  const auto acc = static_cast<std::size_t>(config.acc_size);
  pattern.local_memory_bytes = sizeof(float) * (rows * acc + acc * cols);
  return pattern;
}

KernelAccessPattern hierarchical_access_pattern(int tile) {
  KernelAccessPattern pattern;
  pattern.row_tile = 1;  // each item owns one output element
  pattern.col_tile = 1;
  pattern.acc_size = tile;  // K advances one staged panel at a time
  pattern.wg_rows = tile;
  pattern.wg_cols = tile;
  pattern.shape_guarded = true;   // loads zero-fill, write-back is guarded
  pattern.edge_clamped = true;
  pattern.k_tail_clamped = true;  // k_len = min(Tile, K - k0)
  pattern.reads_output = false;
  // a_panel + b_panel + acc, each Tile^2 floats of body-scope storage.
  const auto t = static_cast<std::size_t>(tile);
  pattern.local_memory_bytes = 3 * t * t * sizeof(float);
  return pattern;
}

}  // namespace aks::gemm

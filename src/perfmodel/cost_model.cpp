#include "perfmodel/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace aks::perf {

namespace {

double ceil_div(double a, double b) { return std::ceil(a / b); }

/// Stable 64-bit mix of several values; used to seed per-run noise.
std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

CostModel::CostModel(DeviceSpec spec) : spec_(std::move(spec)) {
  AKS_CHECK(spec_.num_cus > 0 && spec_.simd_width > 0 && spec_.clock_ghz > 0,
            "malformed device spec " << spec_.name);
}

CostBreakdown CostModel::evaluate(const gemm::KernelConfig& config,
                                  const gemm::GemmShape& shape) const {
  gemm::check_shape(shape);

  const double m = static_cast<double>(shape.m);
  const double k = static_cast<double>(shape.k);
  const double n = static_cast<double>(shape.n);
  const double rt = config.row_tile;
  const double ct = config.col_tile;
  const double acc = config.acc_size;
  const double wg_r = config.wg_rows;
  const double wg_c = config.wg_cols;
  const double simd = spec_.simd_width;
  const double clock_hz = spec_.clock_ghz * 1e9;

  // ---- Launch geometry -----------------------------------------------
  // One work-item per output tile; tiles padded to whole work-groups.
  const double tiles_r = ceil_div(m, rt);
  const double tiles_c = ceil_div(n, ct);
  const double groups_r = ceil_div(tiles_r, wg_r);
  const double groups_c = ceil_div(tiles_c, wg_c);
  const double num_groups = groups_r * groups_c;
  const double wg_size = wg_r * wg_c;
  const double waves_per_group = ceil_div(wg_size, simd);
  const double total_waves = num_groups * waves_per_group;

  // Lane utilisation: useful outputs over launched lane-slots (tile and
  // work-group padding, plus partially filled waves).
  const double launched_lanes = total_waves * simd;
  const double launched_outputs = launched_lanes * rt * ct;
  const double lane_utilization = std::min(1.0, (m * n) / launched_outputs);

  // ---- Occupancy -------------------------------------------------------
  // Register pressure limits resident waves; whole work-groups are resident
  // or not, and a per-CU group count cap applies.
  const double regs = config.registers_per_item();
  const double waves_by_regs =
      std::floor(static_cast<double>(spec_.registers_per_lane) / regs);
  double groups_per_cu =
      std::floor(std::max(1.0, waves_by_regs * 4.0) / waves_per_group);
  groups_per_cu = std::clamp(groups_per_cu, 1.0,
                             static_cast<double>(spec_.max_groups_per_cu));
  double resident_waves = groups_per_cu * waves_per_group;
  resident_waves =
      std::min(resident_waves, static_cast<double>(spec_.max_waves_per_cu));
  // Small launches cannot fill the device.
  resident_waves =
      std::min(resident_waves,
               std::max(1.0, total_waves / static_cast<double>(spec_.num_cus)));
  // Per-SIMD-scheduler depth, assuming 4 schedulers per CU (GCN-like).
  const double waves_per_scheduler = resident_waves / 4.0;

  // Latency hiding draws on two sources: thread-level parallelism
  // (resident waves) and instruction-level parallelism within a work-item
  // (the rt x ct accumulator tile is rt*ct independent FMA chains). This is
  // why register-tiled GEMMs tolerate the low occupancy their register
  // usage causes — and why one large-tile kernel tends to dominate the
  // compute-bound shapes.
  const double ilp = std::sqrt(rt * ct);
  const double alu_eff = std::min(
      1.0, std::max(waves_per_scheduler, 0.25) * ilp / spec_.alu_hiding_waves);
  const double mem_eff =
      std::sqrt(std::min(1.0, std::max(waves_per_scheduler, 0.25) /
                                  spec_.mem_hiding_waves));

  // ---- Instruction stream ---------------------------------------------
  // Per item and per K-step: rt*acc A loads and acc*ct B loads (vectorised
  // up to width 4), rt*ct*acc FMAs, plus fixed loop overhead.
  const double k_steps = ceil_div(k, acc);
  const double vec_a = std::min(acc, 4.0);
  const double vec_b = std::min(ct, 4.0);
  const double load_instrs_per_step =
      ceil_div(rt * acc, vec_a) + ceil_div(acc * ct, vec_b);
  const double fma_instrs = k * rt * ct;
  const double instrs_per_item =
      fma_instrs +
      k_steps * (spec_.loop_overhead_cycles + load_instrs_per_step) +
      rt * ct;  // final stores
  // One wave-instruction per CU per cycle; waves execute in lock-step so a
  // wave costs its per-item instruction count.
  const double total_wave_instrs = total_waves * instrs_per_item;
  // CU-count quantisation: the tail of the launch leaves CUs idle.
  const double cu_batches =
      ceil_div(total_waves, resident_waves * spec_.num_cus);
  const double cu_util = std::min(
      1.0, total_waves / (cu_batches * resident_waves * spec_.num_cus));
  const double compute_s = total_wave_instrs /
                           (static_cast<double>(spec_.num_cus) * clock_hz *
                            alu_eff * std::max(cu_util, 0.05));

  // ---- Memory traffic ---------------------------------------------------
  // Within a work-group, A rows are shared along columns and B columns
  // along rows, so per-group traffic is the group perimeter footprint.
  // Across groups, a whole column-band of groups re-reads A (and a row-band
  // re-reads B) unless the operand fits in the LLC.
  const double a_bytes = m * k * 4.0;
  const double b_bytes = k * n * 4.0;
  const double c_bytes = m * n * 4.0;
  double a_traffic = groups_c * (groups_r * wg_r * rt * k * 4.0);
  if (a_bytes <= static_cast<double>(spec_.llc_bytes)) {
    a_traffic = a_bytes;
  }
  double b_traffic = groups_r * (groups_c * wg_c * ct * k * 4.0);
  if (b_bytes <= static_cast<double>(spec_.llc_bytes)) {
    b_traffic = b_bytes;
  }

  // Coalescing: lanes are laid out row-major over the work-group with the
  // column dimension fastest. When wg_cols < simd, consecutive lanes span
  // multiple tile rows, so A accesses become strided; each lane reads `acc`
  // consecutive floats from rows rt*K apart. Efficiency is the contiguous
  // bytes per lane over one transaction.
  const double lanes_per_row = std::min(wg_c, simd);
  const double row_major_fraction = lanes_per_row / simd;
  const double strided_eff =
      std::min(1.0, (acc * 4.0) / static_cast<double>(spec_.cacheline_bytes));
  const double a_coalesce =
      row_major_fraction + (1.0 - row_major_fraction) * strided_eff;
  // B accesses are contiguous along columns: efficient when lanes advance
  // along the column dimension, strided (by ct) only in degenerate cases.
  const double b_coalesce =
      row_major_fraction +
      (1.0 - row_major_fraction) *
          std::min(1.0,
                   (ct * 4.0) / static_cast<double>(spec_.cacheline_bytes));
  const double effective_traffic =
      a_traffic / a_coalesce + b_traffic / b_coalesce + c_bytes;
  const double memory_s =
      effective_traffic / (spec_.dram_bw_gbps * 1e9 * mem_eff);

  CostBreakdown out;
  out.compute_s = compute_s;
  out.memory_s = memory_s;
  out.launch_s = spec_.launch_overhead_s;
  // Compute and memory overlap; the slower one dominates, with a mild
  // serialisation term for the other.
  out.total_s = std::max(compute_s, memory_s) +
                0.15 * std::min(compute_s, memory_s) + out.launch_s;
  out.occupancy_waves = resident_waves;
  out.lane_utilization = lane_utilization;
  out.dram_bytes = a_traffic + b_traffic + c_bytes;
  out.flops_fraction = shape.flops() / (out.total_s * spec_.peak_flops());
  return out;
}

double CostModel::predict_seconds(const gemm::KernelConfig& config,
                                  const gemm::GemmShape& shape) const {
  return evaluate(config, shape).total_s;
}

double CostModel::predict_batched_seconds(const gemm::KernelConfig& config,
                                          const gemm::GemmShape& shape,
                                          std::size_t batch) const {
  AKS_CHECK(batch > 0, "batch must be positive");
  // Model the batched launch as a single multiply with M scaled by the
  // batch count: the grid is `batch` independent copies of the tile grid,
  // which fills the device the same way a taller matrix would, and the
  // launch overhead is paid once. (Per-entry operand reuse is unchanged
  // because the batch entries touch disjoint data.)
  gemm::GemmShape stacked = shape;
  AKS_CHECK(!__builtin_mul_overflow(shape.m, batch, &stacked.m),
            "batched shape " << shape.to_string() << " x " << batch
                             << " overflows size_t");
  return evaluate(config, stacked).total_s;
}

TimingModel::TimingModel(DeviceSpec spec, double noise_sigma,
                         std::uint64_t seed)
    : model_(std::move(spec)), noise_sigma_(noise_sigma), seed_(seed) {
  AKS_CHECK(noise_sigma >= 0.0, "noise sigma must be non-negative");
}

double TimingModel::time_run(const gemm::KernelConfig& config,
                             const gemm::GemmShape& shape,
                             std::uint64_t iteration) const {
  double seconds = 0.0;
  time_runs(config, shape, iteration, {&seconds, 1});
  return seconds;
}

void TimingModel::time_runs(const gemm::KernelConfig& config,
                            const gemm::GemmShape& shape,
                            std::uint64_t first_iteration,
                            std::span<double> out) const {
  const double base = model_.predict_seconds(config, shape);
  if (noise_sigma_ == 0.0) {
    std::fill(out.begin(), out.end(), base);
    return;
  }
  std::uint64_t h = seed_;
  h = hash_combine(h, gemm::config_index(config));
  h = hash_combine(h, shape.m);
  h = hash_combine(h, shape.k);
  h = hash_combine(h, shape.n);
  for (std::size_t i = 0; i < out.size(); ++i) {
    common::Rng rng(hash_combine(h, first_iteration + i));
    out[i] = rng.lognormal_median(base, noise_sigma_);
  }
}

double TimingModel::best_of(const gemm::KernelConfig& config,
                            const gemm::GemmShape& shape,
                            int iterations) const {
  AKS_CHECK(iterations > 0, "best_of needs at least one iteration");
  double best = time_run(config, shape, 0);
  for (int i = 1; i < iterations; ++i) {
    best = std::min(best,
                    time_run(config, shape, static_cast<std::uint64_t>(i)));
  }
  return best;
}

}  // namespace aks::perf

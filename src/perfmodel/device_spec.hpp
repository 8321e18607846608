// Performance-model device descriptors.
//
// The paper measured on an AMD R9 Nano; this repo has no GPU, so the device
// is described by the architectural parameters that drive GEMM kernel
// performance and the cost model in cost_model.hpp evaluates kernels against
// them. Three devices are provided, matching the paper's motivation of
// targeting "a range of heterogeneous devices from desktop GPUs to embedded
// accelerators".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace aks::perf {

struct DeviceSpec {
  std::string name;

  /// Number of compute units (CUs / shader cores / subslices).
  int num_cus = 1;
  /// Lanes per hardware wave (wavefront/warp/subgroup width).
  int simd_width = 1;
  /// Core clock in GHz.
  double clock_ghz = 1.0;
  /// Sustainable DRAM bandwidth in GB/s.
  double dram_bw_gbps = 10.0;
  /// Registers available per lane before occupancy starts dropping.
  int registers_per_lane = 256;
  /// Maximum resident waves per CU (occupancy ceiling).
  int max_waves_per_cu = 40;
  /// Maximum resident work-groups per CU (scheduling limit).
  int max_groups_per_cu = 16;
  /// Last-level cache size in bytes (operand re-read filtering).
  std::size_t llc_bytes = 1 << 20;
  /// Cache line / memory transaction size in bytes.
  int cacheline_bytes = 64;
  /// Fixed kernel launch overhead in seconds.
  double launch_overhead_s = 8e-6;
  /// Waves per SIMD scheduler needed to fully hide ALU latency.
  double alu_hiding_waves = 4.0;
  /// Waves per SIMD scheduler needed to fully saturate the memory system.
  double mem_hiding_waves = 8.0;
  /// Extra ALU cycles charged per accumulator-loop iteration (branch,
  /// index arithmetic) — what a larger acc_size amortises away.
  double loop_overhead_cycles = 10.0;
  /// Maximum work-items per work-group the device will launch (execution
  /// limit, not a performance parameter — consumed by check_capacity).
  int max_work_group_size = 256;
  /// Local ("shared") memory available per work-group, in bytes.
  std::size_t local_memory_bytes = 64 * 1024;
  /// Native vector load width in elements; vectorised staging loads must
  /// tile into (or be covered by) vectors of this width.
  int vector_width = 4;

  /// Peak single-precision throughput in FLOP/s (each lane one FMA/cycle).
  [[nodiscard]] double peak_flops() const {
    return static_cast<double>(num_cus) * simd_width * 2.0 * clock_ghz * 1e9;
  }

  /// Number of architectural features in similarity_features().
  static constexpr std::size_t kNumSimilarityFeatures = 8;

  /// The architectural parameters that drive kernel selection, log2-scaled
  /// so "twice the bandwidth" is one unit apart at any absolute scale. The
  /// persistent store's cross-device transfer ranks stored devices by
  /// distance in this space (see device_similarity).
  [[nodiscard]] std::array<double, kNumSimilarityFeatures>
  similarity_features() const;

  /// Stable 64-bit identity of this device description: an FNV-1a digest
  /// of the name and every numeric field, identical across processes and
  /// platforms. Two specs differing in any field (even one irrelevant to
  /// performance) get distinct fingerprints — the fingerprint identifies
  /// the *description*, similarity ranks the *behaviour*.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// The paper's benchmark platform: AMD R9 Nano (Fiji, GCN3).
  /// 64 CUs, wave64, ~1.0 GHz, 4096-bit HBM at 512 GB/s, 256 VGPRs/lane.
  static DeviceSpec amd_r9_nano();

  /// An embedded accelerator in the Mali/PowerVR class: few cores, narrow
  /// SIMD, LPDDR bandwidth, small register file.
  static DeviceSpec embedded_accelerator();

  /// A desktop integrated GPU in the Intel Gen9 class.
  static DeviceSpec integrated_gpu();

  /// The three shipped device descriptions, in the order above — the sweep
  /// set the symbolic certify pass defaults to.
  static std::vector<DeviceSpec> shipped();

  /// Loads a device description from a `key = value` text file (one pair
  /// per line; `#` comments). Unset keys keep the R9 Nano defaults, so a
  /// file only needs the parameters that differ. Throws common::Error on
  /// unknown keys or malformed values — a silently ignored typo would
  /// produce a quietly wrong tuning dataset.
  static DeviceSpec from_file(const std::filesystem::path& path);

  /// Writes the spec in from_file() format (round-trips exactly).
  void save(const std::filesystem::path& path) const;
};

/// Similarity in [0, 1]: 1 for identical feature vectors, falling towards 0
/// with the Euclidean distance between the log2-scaled feature vectors
/// (1 / (1 + d)). Symmetric; used by the selection store to pick the
/// nearest stored device when warm-starting on a fingerprint it has never
/// seen (the cross-device transfer of Lawson's follow-up paper).
[[nodiscard]] double device_similarity(const DeviceSpec& a,
                                       const DeviceSpec& b);

}  // namespace aks::perf

// Diagnostic vocabulary of the akscheck analysis passes.
//
// Every finding — from the checked execution mode or the symbolic
// verifier — is one `Diagnostic` carrying a machine-matchable class plus the
// attribution needed to reproduce it: kernel/config name, buffer label,
// element index and the work-group(s) involved. The CLI, the CI gate and
// the negative tests all key off `Diagnostic::kind`, so the classes are the
// stable contract of the subsystem.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace aks::check {

/// Sentinel for "no work-group" in diagnostic attribution.
inline constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

enum class DiagnosticKind {
  /// A kernel accessed an element outside its buffer.
  out_of_bounds,
  /// A work-item outside the logical global range touched memory without
  /// first consulting NdItem::in_range() (missing tail guard).
  tail_unguarded,
  /// Two different work-groups wrote the same element.
  write_write_race,
  /// One work-group read an element another work-group wrote.
  read_write_race,
  /// A (config, device) pair over a device capacity limit (check_capacity).
  invalid_config,
  /// Kernel output diverged from the scalar reference beyond tolerance.
  numeric_divergence,
};

[[nodiscard]] constexpr std::string_view to_string(DiagnosticKind kind) {
  switch (kind) {
    case DiagnosticKind::out_of_bounds: return "out-of-bounds";
    case DiagnosticKind::tail_unguarded: return "tail-unguarded";
    case DiagnosticKind::write_write_race: return "write-write-race";
    case DiagnosticKind::read_write_race: return "read-write-race";
    case DiagnosticKind::invalid_config: return "invalid-config";
    case DiagnosticKind::numeric_divergence: return "numeric-divergence";
  }
  return "unknown";
}

struct Diagnostic {
  DiagnosticKind kind = DiagnosticKind::out_of_bounds;
  /// Kernel or configuration under analysis (e.g. "t4x2_a8_wg16x8").
  std::string kernel;
  /// Label of the buffer involved ("A", "B", "C"); empty for capacity findings.
  std::string buffer;
  /// Element index within the buffer (buffer-global, not view-relative).
  std::size_t index = 0;
  /// Work-groups involved: for races, the two conflicting groups; for
  /// access findings, group_b is the accessing group.
  std::size_t group_a = kNoGroup;
  std::size_t group_b = kNoGroup;
  /// Human-readable explanation.
  std::string message;

  /// One-line rendering for reports and test failure output.
  [[nodiscard]] std::string format() const;
};

/// Collects diagnostics for one checked launch.
///
/// Deduplicates per (kind, buffer, index) so a bug touching a whole tile
/// produces one finding per element at most, and caps the stored findings
/// (`dropped()` counts the overflow) so a pathological kernel cannot OOM
/// the checker. The kernel label is stamped onto findings as they arrive.
class AccessMonitor {
 public:
  explicit AccessMonitor(std::string kernel_label, std::size_t max_findings = 256)
      : kernel_(std::move(kernel_label)), max_findings_(max_findings) {}

  /// Records a finding (fills in the kernel label). Returns true when the
  /// finding was stored, false when deduplicated or dropped by the cap.
  bool report(Diagnostic diagnostic);

  [[nodiscard]] const std::vector<Diagnostic>& findings() const {
    return findings_;
  }
  [[nodiscard]] bool clean() const { return findings_.empty() && dropped_ == 0; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] const std::string& kernel_label() const { return kernel_; }

  /// Re-labels the monitor for the next launch without clearing findings.
  void set_kernel_label(std::string label) { kernel_ = std::move(label); }

 private:
  std::string kernel_;
  std::size_t max_findings_;
  std::size_t dropped_ = 0;
  std::vector<Diagnostic> findings_;
};

}  // namespace aks::check

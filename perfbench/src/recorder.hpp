// Measurement primitives of the benchmark binary: a monotonic nanosecond
// clock, a 1-ns-bucket latency histogram for high-rate calls, and the
// in-memory span recorder of the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into each
// library layer; nothing inside src/ is instrumented and src/trace stays
// off. Every span feeds a per-name aggregate (count and total wall time).
// Spans of sampled requests are also kept whole — name, start, end, parent
// span and request id — so self times can be computed afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact counts per whole nanosecond up to kBuckets, raw values above.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 1 << 16;

  LatencyHistogram() : counts_(kBuckets, 0) {}
  void add(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
    if (v < kBuckets) {
      ++counts_[v];
    } else {
      overflow_.push_back(v);
    }
    ++total_;
  }
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Heap bytes the histogram holds.
  [[nodiscard]] std::size_t bytes() const {
    return (counts_.capacity() + overflow_.capacity()) * sizeof(std::uint64_t);
  }
  /// Sparse [[value_ns, count], ...] in ascending value order.
  void write_json(std::ostream& out) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> overflow_;
  std::uint64_t total_ = 0;
};

/// Turns the recorder on for this process; spans of requests whose id is a
/// multiple of `sample_every` are kept whole. Call before any client starts.
void enable_tracing(std::uint64_t sample_every);
[[nodiscard]] bool tracing();

/// Sets the request id that spans opened on this thread belong to.
void begin_request(std::uint64_t request_id);

/// RAII span around one call into a layer. A no-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

/// Writes {"aggregates": {...}, "spans": [...], "dropped": n} for every
/// thread that recorded. Call after all recording threads have joined.
void write_trace_json(std::ostream& out);

}  // namespace perfbench

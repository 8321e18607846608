#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <thread>

#include "common/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr std::size_t kMaxFailureMessages = 20;

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_number(std::ostream& out, double v) {
  if (std::isfinite(v)) {
    out << v;
  } else {
    out << "null";
  }
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Median cost of one back-to-back pair of clock reads, the floor under
/// every client-timed latency the benchmark reports.
double clock_pair_ns() {
  constexpr int kPairs = 200000;
  std::vector<double> per_pair;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < kPairs; ++i) {
      static_cast<void>(now_ns());
      static_cast<void>(now_ns());
    }
    per_pair.push_back(static_cast<double>(now_ns() - start) / kPairs);
  }
  std::sort(per_pair.begin(), per_pair.end());
  return per_pair[per_pair.size() / 2];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  aks::common::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.next_u64();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

LatencyHistogram& Report::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

void Report::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < kMaxFailureMessages) failures_.push_back(what);
}

void Report::mark_peak_rss(std::size_t own_bytes) {
  own_mb_ = static_cast<double>(own_bytes) / (1024.0 * 1024.0);
  peak_rss_mb_ = peak_rss_mib() - own_mb_;
  rss_marked_ = true;
}

void Report::write_json(std::ostream& out, const Options& options) const {
  const double rss = rss_marked_ ? peak_rss_mb_ : peak_rss_mib();
  out << std::setprecision(12);
  out << "{\"workload\":";
  write_string(out, options.workload);
  out << ",\"seed\":" << options.seed << ",\"seconds\":" << options.seconds
      << ",\"trace\":" << (options.trace ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) out << ',';
    write_string(out, failures_[i]);
  }
  out << "],\"meta\":{\"compiler\":";
  write_string(out, compiler());
  out << ",\"build_type\":";
  write_string(out, PERFBENCH_BUILD_TYPE);
  out << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"clock_pair_ns\":" << clock_pair_ns() << "},\"peak_rss_mb\":";
  write_number(out, rss);
  out << ",\"own_mb\":";
  write_number(out, own_mb_);
  out << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_seconds_.size(); ++i) {
    if (i != 0) out << ',';
    write_number(out, setup_seconds_[i]);
  }
  out << "],\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values_) {
    out << (first ? "" : ",");
    write_string(out, name);
    out << ':';
    write_number(out, v);
    first = false;
  }
  out << "},\"samples\":{";
  first = true;
  for (const auto& [name, vs] : samples_) {
    out << (first ? "" : ",");
    write_string(out, name);
    out << ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) out << ',';
      write_number(out, vs[i]);
    }
    out << ']';
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out << (first ? "" : ",");
    write_string(out, name);
    out << ':';
    hist->write_json(out);
    first = false;
  }
  out << "},\"trace_log\":";
  if (tracing()) {
    write_trace_json(out);
  } else {
    out << "null";
  }
  out << "}\n";
}

}  // namespace perfbench

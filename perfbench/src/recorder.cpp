#include "recorder.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace perfbench {

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  total_ += other.total_;
}

void LatencyHistogram::write_json(std::ostream& out) const {
  out << '[';
  bool first = true;
  auto emit = [&](std::uint64_t value, std::uint64_t count) {
    out << (first ? "" : ",") << '[' << value << ',' << count << ']';
    first = false;
  };
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] != 0) emit(i, counts_[i]);
  }
  std::vector<std::uint64_t> high = overflow_;
  std::sort(high.begin(), high.end());
  for (std::size_t i = 0; i < high.size();) {
    std::size_t j = i;
    while (j < high.size() && high[j] == high[i]) ++j;
    emit(high[i], j - i);
    i = j;
  }
  out << ']';
}

namespace {

// Whole spans kept per thread; later sampled spans are counted as dropped.
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 18;

struct SpanRecord {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::int64_t start;
  std::int64_t end;
};

struct Aggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
};

struct ThreadLog {
  std::uint64_t index = 0;
  std::uint64_t seq = 0;
  std::uint64_t request = 0;
  bool sampled = true;
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> stack;
  std::vector<SpanRecord> spans;
  std::unordered_map<const char*, Aggregate> aggregates;
};

std::atomic<bool> g_on{false};
std::uint64_t g_sample_every = 1;
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;
thread_local ThreadLog* t_log = nullptr;

ThreadLog& thread_log() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    t_log = g_logs.back().get();
    t_log->index = g_logs.size();
  }
  return *t_log;
}

}  // namespace

void enable_tracing(std::uint64_t sample_every) {
  g_sample_every = std::max<std::uint64_t>(1, sample_every);
  g_on.store(true);
}

bool tracing() { return g_on.load(std::memory_order_relaxed); }

void begin_request(std::uint64_t request_id) {
  if (!tracing()) return;
  ThreadLog& log = thread_log();
  log.request = request_id;
  log.sampled = request_id % g_sample_every == 0;
}

Span::Span(const char* name) : name_(nullptr) {
  if (!tracing()) return;
  ThreadLog& log = thread_log();
  name_ = name;
  id_ = (log.index << 40) | ++log.seq;
  parent_ = log.stack.empty() ? 0 : log.stack.back();
  log.stack.push_back(id_);
  start_ = now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::int64_t end = now_ns();
  ThreadLog& log = thread_log();
  log.stack.pop_back();
  Aggregate& agg = log.aggregates[name_];
  ++agg.count;
  agg.total_ns += end - start_;
  if (!log.sampled) return;
  if (log.spans.size() < kMaxSpansPerThread) {
    log.spans.push_back({name_, id_, parent_, log.request, start_, end});
  } else {
    ++log.dropped;
  }
}

void write_trace_json(std::ostream& out) {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::map<std::string, Aggregate> merged;
  std::uint64_t dropped = 0;
  for (const auto& log : g_logs) {
    for (const auto& [name, agg] : log->aggregates) {
      Aggregate& m = merged[name];
      m.count += agg.count;
      m.total_ns += agg.total_ns;
    }
    dropped += log->dropped;
  }
  out << "{\"aggregates\":{";
  bool first = true;
  for (const auto& [name, agg] : merged) {
    out << (first ? "" : ",") << '"' << name << "\":{\"count\":" << agg.count
        << ",\"total_ns\":" << agg.total_ns << '}';
    first = false;
  }
  out << "},\"dropped\":" << dropped << ",\"spans\":[";
  first = true;
  for (const auto& log : g_logs) {
    for (const SpanRecord& s : log->spans) {
      out << (first ? "" : ",") << "[\"" << s.name << "\"," << s.id << ','
          << s.parent << ',' << s.request << ',' << s.start << ',' << s.end
          << ']';
      first = false;
    }
  }
  out << "]}";
}

}  // namespace perfbench

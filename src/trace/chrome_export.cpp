#include "trace/chrome_export.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"

namespace aks::trace {

namespace {

void append_double(std::string& out, double v) {
  // JSON has no inf/nan literals; quote them so the document stays parseable.
  if (!std::isfinite(v)) {
    out += '"';
    out += v != v ? "nan" : (v > 0 ? "inf" : "-inf");
    out += '"';
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_args(std::string& out, const Event& e) {
  out += "\"args\":{";
  for (std::uint8_t i = 0; i < e.num_args; ++i) {
    const Arg& a = e.args[i];
    if (i > 0) out += ',';
    out += '"';
    out += common::json_escape(a.key != nullptr ? a.key : "");
    out += "\":";
    switch (a.type) {
      case ArgType::kUint:
        out += std::to_string(a.value.u);
        break;
      case ArgType::kInt:
        out += std::to_string(a.value.i);
        break;
      case ArgType::kDouble:
        append_double(out, a.value.d);
        break;
      case ArgType::kString:
        out += '"';
        out += common::json_escape(a.value.s != nullptr ? a.value.s : "");
        out += '"';
        break;
      case ArgType::kNone:
        out += "null";
        break;
    }
  }
  out += '}';
}

bool same_name(const char* a, const char* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return std::strcmp(a, b) == 0;
}

void append_ts_us(std::string& out, std::uint64_t ts_ns) {
  // Microseconds with the full 3 fractional digits, formatted from the
  // integer ns so huge timestamps don't lose precision through a double.
  out += std::to_string(ts_ns / 1000);
  out += '.';
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%03u",
                static_cast<unsigned>(ts_ns % 1000));
  out += buf;
}

}  // namespace

void write_chrome_trace_json(const std::vector<Event>& events,
                             std::ostream& out) {
  std::string doc;
  doc.reserve(events.size() * 96 + 64);
  doc += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) doc += ',';
    first = false;
    doc += "{\"name\":\"";
    doc += common::json_escape(e.name != nullptr ? e.name : "");
    doc += "\",\"ph\":\"";
    switch (e.type) {
      case EventType::kBegin:
        doc += 'B';
        break;
      case EventType::kEnd:
        doc += 'E';
        break;
      case EventType::kInstant:
        doc += 'i';
        break;
      case EventType::kCounter:
        doc += 'C';
        break;
    }
    doc += "\",\"pid\":1,\"tid\":";
    doc += std::to_string(e.tid);
    doc += ",\"ts\":";
    append_ts_us(doc, e.ts_ns);
    if (e.type == EventType::kInstant) doc += ",\"s\":\"t\"";
    doc += ',';
    append_args(doc, e);
    doc += '}';
  }
  doc += "]}";
  out << doc;
}

std::size_t write_span_summary_csv(const std::vector<Event>& events,
                                   std::ostream& out) {
  struct Open {
    const char* name;
    std::uint64_t ts_ns;
  };
  struct Row {
    common::LatencyHistogram histogram;
  };
  std::map<std::uint32_t, std::vector<Open>> open_by_tid;
  std::map<std::string, Row> rows;
  std::size_t unbalanced = 0;

  for (const Event& e : events) {
    if (e.type == EventType::kBegin) {
      open_by_tid[e.tid].push_back({e.name, e.ts_ns});
    } else if (e.type == EventType::kEnd) {
      auto& stack = open_by_tid[e.tid];
      // Spans are RAII so per-thread ends arrive LIFO; a mismatched top
      // means this end's begin was dropped by a full ring. Leave the stack
      // alone in that case so the enclosing span still pairs correctly.
      if (!stack.empty() && same_name(stack.back().name, e.name)) {
        rows[e.name != nullptr ? e.name : ""].histogram.record_seconds(
            static_cast<double>(e.ts_ns - stack.back().ts_ns) * 1e-9);
        stack.pop_back();
      } else {
        ++unbalanced;
      }
    }
  }
  for (const auto& [tid, stack] : open_by_tid) unbalanced += stack.size();

  out << "name,count,total_seconds,mean_seconds,p50_seconds,p99_seconds\n";
  for (const auto& [name, row] : rows) {
    const auto& h = row.histogram;
    out << name << ',' << h.count() << ',' << h.total_seconds() << ','
        << h.mean_seconds() << ',' << h.quantile_seconds(0.5) << ','
        << h.quantile_seconds(0.99) << "\n";
  }
  return unbalanced;
}

}  // namespace aks::trace

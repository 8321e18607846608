#include "store/csv_io.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemm/registry.hpp"
#include "store/selection_store.hpp"

namespace aks::store {

namespace {

/// Shared context for parse errors: 1-based line and column plus the field
/// name, so a failed import points at the exact offending cell.
[[noreturn]] void fail_field(std::size_t line_no, std::size_t column,
                             const char* field_name, const std::string& text,
                             const char* what) {
  AKS_FAIL("store csv line " << line_no << ", column " << column + 1 << " ("
                             << field_name << "): " << what << ": '" << text
                             << "'");
}

std::uint64_t parse_u64(const std::string& text, std::size_t line_no,
                        std::size_t column, const char* field_name,
                        int base = 10) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value, base);
  if (ec == std::errc::result_out_of_range) {
    fail_field(line_no, column, field_name, text, "value overflows uint64");
  }
  if (ec != std::errc{} || ptr != end || text.empty()) {
    fail_field(line_no, column, field_name, text,
               base == 16 ? "expected a hexadecimal integer"
                          : "expected an unsigned integer");
  }
  return value;
}

std::uint32_t parse_u32(const std::string& text, std::size_t line_no,
                        std::size_t column, const char* field_name) {
  const std::uint64_t value = parse_u64(text, line_no, column, field_name);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    fail_field(line_no, column, field_name, text, "value overflows uint32");
  }
  return static_cast<std::uint32_t>(value);
}

double parse_double(const std::string& text, std::size_t line_no,
                    std::size_t column, const char* field_name) {
  if (text.empty()) {
    fail_field(line_no, column, field_name, text, "expected a number");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    fail_field(line_no, column, field_name, text, "expected a number");
  }
  if (errno == ERANGE && std::abs(value) == HUGE_VAL) {
    fail_field(line_no, column, field_name, text, "value overflows double");
  }
  return value;
}

}  // namespace

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << fingerprint;
  return out.str();
}

Source source_from_string(const std::string& name) {
  if (name == "online-tuner") return Source::kOnlineTuner;
  if (name == "learned-selector") return Source::kLearnedSelector;
  if (name == "transfer") return Source::kTransfer;
  return Source::kImported;
}

void export_store_csv(const SelectionStore& store, std::ostream& out) {
  out << std::setprecision(17);
  for (const auto& profile : store.devices()) {
    out << "device," << fingerprint_hex(profile.fingerprint) << ","
        << profile.name;
    for (const double f : profile.features) out << "," << f;
    out << "\n";
  }
  const auto& configs = gemm::enumerate_configs();
  for (const auto& record : store.selections()) {
    out << "selection," << fingerprint_hex(record.device_fingerprint) << ","
        << record.shape.m << "," << record.shape.k << "," << record.shape.n
        << "," << record.config_index << ","
        << configs[record.config_index].name() << "," << record.warmup_seconds
        << "," << record.sweeps << "," << record.quarantined_candidates << ","
        << to_string(record.source) << ","
        << fingerprint_hex(record.cert_digest) << "\n";
  }
}

std::size_t import_store_csv(std::istream& in, SelectionStore& store) {
  const std::size_t num_configs = gemm::enumerate_configs().size();
  std::size_t imported = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    // Fields are numbers, identifiers and config names: none may contain a
    // comma, which import re-checks where it matters.
    const auto fields = common::split(line, ',');
    if (fields[0] == "device") {
      AKS_CHECK(fields.size() ==
                    3 + perf::DeviceSpec::kNumSimilarityFeatures,
                "store csv line "
                    << line_no << ": device row needs "
                    << 3 + perf::DeviceSpec::kNumSimilarityFeatures
                    << " fields, got " << fields.size());
      DeviceProfileRecord profile;
      profile.fingerprint =
          parse_u64(fields[1], line_no, 1, "fingerprint", 16);
      profile.name = fields[2];
      for (std::size_t f = 0; f < profile.features.size(); ++f) {
        profile.features[f] =
            parse_double(fields[3 + f], line_no, 3 + f, "feature");
      }
      store.put_profile(std::move(profile));
      ++imported;
    } else if (fields[0] == "selection") {
      AKS_CHECK(fields.size() == 12,
                "store csv line " << line_no
                                  << ": selection row needs 12 fields, got "
                                  << fields.size());
      SelectionRecord record;
      record.device_fingerprint =
          parse_u64(fields[1], line_no, 1, "device_fingerprint", 16);
      record.shape.m = parse_u64(fields[2], line_no, 2, "m");
      record.shape.k = parse_u64(fields[3], line_no, 3, "k");
      record.shape.n = parse_u64(fields[4], line_no, 4, "n");
      AKS_CHECK(gemm::valid_shape(record.shape),
                "store csv line " << line_no << ": invalid GEMM shape "
                                  << record.shape.to_string());
      record.config_index = parse_u32(fields[5], line_no, 5, "config_index");
      AKS_CHECK(record.config_index < num_configs,
                "store csv line " << line_no << ": config index "
                                  << record.config_index
                                  << " out of range (have " << num_configs
                                  << " configs)");
      // fields[6] is the config name, informational only.
      record.warmup_seconds =
          parse_double(fields[7], line_no, 7, "warmup_seconds");
      record.sweeps = parse_u32(fields[8], line_no, 8, "sweeps");
      record.quarantined_candidates =
          parse_u32(fields[9], line_no, 9, "quarantined_candidates");
      record.source = source_from_string(fields[10]);
      record.cert_digest =
          parse_u64(fields[11], line_no, 11, "cert_digest", 16);
      if (store.put(std::move(record))) ++imported;
    } else {
      AKS_FAIL("store csv line " << line_no << ": unknown record type '"
                                 << fields[0] << "'");
    }
  }
  return imported;
}

}  // namespace aks::store

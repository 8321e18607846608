#include "check/report_json.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace aks::check {

namespace {

constexpr std::string_view kSchemaVersion = "aks-static-1";

void append_kv(std::ostringstream& os, std::string_view key,
               std::string_view value, bool trailing_comma = true) {
  os << "\"" << key << "\": \"" << json_escape(value) << "\"";
  if (trailing_comma) os << ", ";
}

std::string_view level_of(symbolic::Verdict verdict) {
  switch (verdict) {
    case symbolic::Verdict::safe: return "note";
    case symbolic::Verdict::unknown: return "warning";
    case symbolic::Verdict::unsafe: return "error";
  }
  return "error";
}

}  // namespace

std::string to_json(const symbolic::CertifyReport& report) {
  std::ostringstream os;
  os << "{\n  \"version\": \"" << kSchemaVersion << "\",\n"
     << "  \"tool\": \"akscheck-certify\",\n"
     << "  \"configs_checked\": " << report.configs_checked << ",\n"
     << "  \"devices_checked\": " << report.devices_checked << ",\n"
     << "  \"safe\": " << report.count(symbolic::Verdict::safe) << ",\n"
     << "  \"unsafe\": " << report.count(symbolic::Verdict::unsafe) << ",\n"
     << "  \"unknown\": " << report.count(symbolic::Verdict::unknown) << ",\n"
     << "  \"results\": [";
  for (std::size_t i = 0; i < report.certificates.size(); ++i) {
    const symbolic::Certificate& cert = report.certificates[i];
    os << (i == 0 ? "\n" : ",\n") << "    {";
    append_kv(os, "ruleId",
              cert.rule.empty() ? std::string_view("certified-safe")
                                : std::string_view(cert.rule));
    append_kv(os, "level", level_of(cert.verdict));
    append_kv(os, "verdict", symbolic::to_string(cert.verdict));
    os << "\"configIndex\": " << cert.config_index << ", ";
    append_kv(os, "config", cert.config);
    append_kv(os, "device", cert.device);
    if (cert.verdict == symbolic::Verdict::safe) {
      append_kv(os, "shapePrecondition", cert.precondition);
    } else if (cert.verdict == symbolic::Verdict::unsafe) {
      append_kv(os, "counterexample", cert.witness.to_string());
    } else {
      os << "\"replayClean\": " << (cert.replay_clean ? "true" : "false")
         << ", ";
    }
    append_kv(os, "message", cert.message, /*trailing_comma=*/false);
    os << "}";
  }
  os << (report.certificates.empty() ? "]\n" : "\n  ]\n") << "}";
  return os.str();
}

void save_json(const std::filesystem::path& path, const std::string& json) {
  std::ofstream out(path);
  AKS_CHECK(out.good(), "cannot open '" << path.string() << "' for writing");
  out << json << "\n";
  AKS_CHECK(out.good(), "failed writing '" << path.string() << "'");
}

}  // namespace aks::check

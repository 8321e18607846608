// SARIF-ish JSON serialisation of the static-analysis reports.
//
// CI dashboards and editor integrations consume static-analysis results as
// JSON; this module renders the certify report in a small
// SARIF-inspired schema (one "run" with the tool name and a flat "results"
// array; each result carries ruleId, level, the config and device it
// applies to, the shape precondition or counterexample, and a message).
// The schema is deliberately minimal — no external JSON dependency exists
// in this repo, so the writer below emits the subset it needs, escaping
// strings with common::json_escape.
//
//   level mapping:  SAFE -> "note", UNKNOWN -> "warning",
//                   UNSAFE -> "error".
#pragma once

#include <filesystem>
#include <string>

#include "check/symbolic/certificate.hpp"
#include "common/json.hpp"

namespace aks::check {

using common::json_escape;

/// Renders a certify report: one result per certificate, level by verdict.
[[nodiscard]] std::string to_json(const symbolic::CertifyReport& report);

/// Writes `json` to `path` (trailing newline added).
void save_json(const std::filesystem::path& path, const std::string& json);

}  // namespace aks::check

// The four workloads of the repository benchmark. Each builds its inputs
// from the run seed, times its set-up, runs a closed loop for the requested
// number of seconds, checks every output and records into the Report.
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

/// Warm selector hits and graph-build waves behind SelectionService.
void run_serve_hot(const Options& options, Report& report);
/// Cold graphs, tuner sweeps and store write-behind beside warm hits.
void run_serve_churn(const Options& options, Report& report);
/// ResNet-50 forward passes through ConvEngine on the host runtime.
void run_infer_host(const Options& options, Report& report);
/// The paper's offline pipeline: dataset, PCA, pruners, selector, certify.
void run_tune_offline(const Options& options, Report& report);

/// Kernel budget of the deployed library (the paper's Table I setting).
inline constexpr std::size_t kBudget = 8;

/// Client threads of the serving workloads: one per hardware thread.
[[nodiscard]] std::size_t client_count();

}  // namespace perfbench

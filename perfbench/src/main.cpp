// Runs one benchmark workload and writes its raw results as JSON.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <file.json> --scratch <dir>
//
// perfbench/run.py builds this binary and turns the raw results into the
// reported metrics; see perfbench/README.md.
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "faults/injector.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

std::size_t client_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload serve_hot|serve_churn|infer_host|"
               "tune_offline --seed N --seconds S --trace 0|1 --out FILE "
               "--scratch DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"serve_hot", run_serve_hot},
      {"serve_churn", run_serve_churn},
      {"infer_host", run_infer_host},
      {"tune_offline", run_tune_offline}};
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || args.size() != 6 || !workloads.count(args["--workload"]) ||
      args["--out"].empty() || args["--scratch"].empty()) {
    return usage();
  }
  Options options;
  try {
    options.workload = args["--workload"];
    options.seed = std::stoull(args["--seed"]);
    options.seconds = std::stod(args["--seconds"]);
    options.trace = std::stoi(args["--trace"]) != 0;
    options.scratch_dir = args["--scratch"];
  } catch (const std::exception&) {
    return usage();
  }
  if (!(options.seconds > 0.0)) return usage();
  // The measured program is the production default: library tracing off
  // and no fault plan installed.
  if (aks::trace::enabled() || aks::faults::plan_active()) {
    std::cerr << "perfbench: library tracing or a fault plan is active\n";
    return 2;
  }
  Report report;
  try {
    workloads.at(options.workload)(options, report);
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  std::ofstream out(args["--out"]);
  report.write_json(out, options);
  out.close();
  if (!out) {
    std::cerr << "perfbench: cannot write " << args["--out"] << "\n";
    return 1;
  }
  return 0;
}

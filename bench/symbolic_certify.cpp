// Symbolic-certification gate: certifies the full 640-configuration zoo on
// all three shipped device models, times the static verifier against one
// dynamic corpus replay (the scaling argument for proving all shapes at
// once), and runs the certificate-gated selection pipeline end to end.
//
// Exit status is the gate: 0 when every (config, device) certificate is
// SAFE and the gated pipeline ships only certified configurations, 1
// otherwise. CI runs this next to akscheck certify --differential; it is
// also a handy local smoke test after touching src/check/symbolic.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "check/checked_gemm.hpp"
#include "check/symbolic/certificate.hpp"
#include "core/pipeline.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"

int main() {
  using namespace aks;
  using Clock = std::chrono::steady_clock;
  namespace sym = check::symbolic;
  bench::print_banner("Symbolic safety certificates for the kernel zoo",
                      "the static-verification contract (DESIGN.md)");

  const auto& configs = gemm::enumerate_configs();
  const auto devices = perf::DeviceSpec::shipped();

  const auto t0 = Clock::now();
  const auto report = sym::certify_space(configs, devices);
  const auto t1 = Clock::now();
  const auto certify_us =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();

  std::cout << "certify_space: " << report.configs_checked << " configs x "
            << report.devices_checked << " devices in " << certify_us
            << " us (" << certify_us / static_cast<long>(configs.size())
            << " us/config, all shapes)\n"
            << "verdicts: " << report.count(sym::Verdict::safe) << " SAFE, "
            << report.count(sym::Verdict::unsafe) << " UNSAFE, "
            << report.count(sym::Verdict::unknown) << " UNKNOWN\n";

  // The cost the certificates amortise: one config, one finite shape corpus,
  // dynamically replayed. The symbolic verdict covers every shape at a
  // fraction of even this single-config figure.
  const auto t2 = Clock::now();
  std::size_t replay_findings = 0;
  for (const auto& shape : check::default_shape_corpus()) {
    replay_findings += check::check_gemm(configs[0], shape).findings.size();
  }
  const auto t3 = Clock::now();
  const auto replay_us =
      std::chrono::duration_cast<std::chrono::microseconds>(t3 - t2).count();
  std::cout << "dynamic replay of ONE config over the "
            << check::default_shape_corpus().size()
            << "-shape corpus: " << replay_us << " us, " << replay_findings
            << " finding(s)\n";

  // Certificate-gated pipeline: the safe mask feeds the "+Certified"
  // MaskedPruner.
  const auto dataset = bench::paper_dataset();
  select::PipelineOptions options;
  options.num_configs = 8;
  options.split_seed = bench::kSplitSeed;
  options.model_seed = bench::kModelSeed;
  options.train_fraction = bench::kTrainFraction;
  options.certified_mask = report.safe_mask(dataset.num_configs());
  const auto result = select::run_pipeline(dataset, options);
  std::cout << "certified pipeline: " << result.configs.size()
            << " configs shipped, ceiling "
            << static_cast<int>(result.ceiling * 100.0) << "%, achieved "
            << static_cast<int>(result.achieved * 100.0) << "%\n";

  bool gate_ok = report.all_safe();
  for (const std::size_t c : result.configs) {
    if (!options.certified_mask[c]) gate_ok = false;
  }
  std::cout << (gate_ok ? "GATE PASS: every shipped config carries a SAFE "
                          "certificate\n"
                        : "GATE FAIL: uncertified configuration reachable\n");
  return gate_ok ? 0 : 1;
}

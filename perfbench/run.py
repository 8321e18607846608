#!/usr/bin/env python3
"""Repository benchmark: builds the library with the benchmark binary,
runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Every metric the workload measures, with units,
is printed above it, and the full result is kept under .bench_out/results
for perfbench/compare.py. The exit status is 0 only when every output was
correct. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_hot", "serve_churn", "infer_host", "tune_offline")
SERVE = ("serve_hot", "serve_churn")
# Every run must finish within this many seconds, build excluded.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 840

# Every end-to-end metric a workload reports: unit, better direction and
# the bound the compare step applies (share of the parent's median by which
# it may worsen). The metrics every workload has are gated in
# BENCHMARK.json, which holds their bounds (None here). The others' bounds
# are three times the largest quartile spread perfbench/steady.py measured
# over ten seeds, rounded up to 0.05 and capped at 0.25: every one reached
# the cap. The spreads are in perfbench/README.md.
NAMED = {
    "setup_s": ("s", "lower", None),
    "fail_frac": ("ratio", "lower", 0.0),
    "peak_rss_mb": ("MiB", "lower", None),
    "pct_of_optimal": ("%", "higher", None),
    "latency_us": ("us", "lower", None),
    "throughput_per_s": ("1/s", "higher", None),
    "select_p50_ns": ("ns", "lower", 0.25),
    "select_p99_ns": ("ns", "lower", 0.25),
    "selects_per_s": ("1/s", "higher", 0.25),
    "batch_ns_per_shape": ("ns", "lower", 0.25),
    "cold_graph_p50_us": ("us", "lower", 0.25),
    "cold_graph_p99_us": ("us", "lower", 0.25),
    "infer_p50_ms": ("ms", "lower", 0.25),
    "infer_gflops": ("GFLOP/s", "higher", 0.25),
    "tune_s": ("s", "lower", 0.25),
}


def metric_bounds(spec):
    """Bound of every NAMED metric, the gated ones from BENCHMARK.json."""
    bounds = {name: bound for name, (_, _, bound) in NAMED.items()}
    bounds.update({e["name"]: e["bound"] for e in spec["end_to_end"]})
    return bounds


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at " + str(ROOT), 2)
    return json.loads(path.read_text())


def checkout_env():
    """Environment of every child process: temporary files stay inside the
    checkout, and no fault plan or lock-graph dump is inherited, so the
    measured program runs its production default."""
    tmp = ROOT / ".bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("AKS_FAULT_PLAN", "AKS_LOCKDEP_OUT")}
    env["TMPDIR"] = str(tmp)
    return env


def build(deadline):
    """Configures and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under src/; run from a source checkout", 2)
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (base if base.is_absolute() else ROOT / base) / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                     + generator)
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      env=checkout_env(),
                                      timeout=max(1, deadline - time.time())
                                      ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                tail = log.read_text()[-3000:]
                fail("build failed ({}):\n{}".format(code, tail))
    return build_dir / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, deadline):
    """Runs one workload in a fresh process and returns its raw results."""
    out_dir = ROOT / ".bench_out"
    raw = out_dir / "raw" / "{}-s{}-t{}.json".format(workload, seed, trace)
    scratch = out_dir / "scratch" / str(os.getpid())
    raw.parent.mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(raw), "--scratch", str(scratch)]
    try:
        proc = subprocess.run(command, env=checkout_env(),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("{} did not finish within the run budget".format(workload))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("{} exited with {}: {}".format(workload, proc.returncode,
                                            proc.stderr.strip()))
    return json.loads(raw.read_text())


def tail(values=None, histogram=None):
    """Sample count and highest supported percentile of a latency."""
    n = len(values) if values is not None else stats.histogram_count(histogram)
    p = stats.tail_percentile(n)
    if p is None:
        return {"samples": n, "percentile": None, "value": None}
    value = (stats.percentile(values, p) if values is not None
             else stats.histogram_percentile(histogram, p))
    return {"samples": n, "percentile": p, "value": value}


def at(values=None, histogram=None, p=50.0):
    """The p-th percentile, or None when fewer than ten samples lie
    beyond it."""
    supported = tail(values, histogram)["percentile"]
    if supported is None or supported < p:
        return None
    if values is not None:
        return stats.percentile(values, p)
    return stats.histogram_percentile(histogram, p)


def named_metrics(workload, raw):
    """Every end-to-end metric the workload measures, by name, plus the
    sample count and highest supported percentile of each latency.

    latency_us and throughput_per_s are the two timings every workload has,
    so BENCHMARK.json gates them: the mean latency of the workload's
    headline operation (client-timed select() for serving) and its mean
    completion rate. A regression anywhere in the distribution, in the slow
    half or the tail as much as in the fast end, moves a mean. Medians and
    tails are printed beside them and gated by the compare step."""
    v, samples, hists = raw["values"], raw["samples"], raw["histograms"]
    m = {
        "setup_s": statistics.median(raw["setup_s"]),
        "fail_frac": raw["failed"] / max(1, raw["attempted"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "pct_of_optimal": v["pct_of_optimal"],
    }
    tails = {}
    if workload in SERVE:
        h = hists["select_ns"]
        slots = samples["select_slot_rate"]
        tails["select_ns"] = tail(histogram=h)
        m["select_p50_ns"] = at(histogram=h, p=50)
        m["select_p99_ns"] = at(histogram=h, p=99)
        m["selects_per_s"] = statistics.median(slots)
        m["latency_us"] = stats.histogram_mean(h) * 1e-3
        m["throughput_per_s"] = statistics.mean(slots)
    if workload == "serve_hot":
        h = hists["batch_ns_per_shape"]
        tails["batch_ns_per_shape"] = tail(histogram=h)
        m["batch_ns_per_shape"] = at(histogram=h, p=50)
    if workload == "serve_churn":
        cold = samples["cold_graph_us"]
        tails["cold_graph_us"] = tail(values=cold)
        m["cold_graph_p50_us"] = at(values=cold, p=50)
        m["cold_graph_p99_us"] = at(values=cold, p=99)
    if workload == "infer_host":
        passes = samples["pass_ms"]
        tails["pass_ms"] = tail(values=passes)
        m["infer_p50_ms"] = statistics.median(passes)
        m["infer_gflops"] = v["infer_gflops"]
        m["latency_us"] = statistics.mean(passes) * 1e3
    if workload == "tune_offline":
        iterations = samples["iteration_s"]
        tails["iteration_s"] = tail(values=iterations)
        m["tune_s"] = statistics.median(iterations)
        m["latency_us"] = statistics.mean(iterations) * 1e6
    if workload not in SERVE:
        # One operation at a time: its rate is the inverse mean latency.
        m["throughput_per_s"] = 1e6 / m["latency_us"]
    return m, tails


def run_facts(raw):
    """Figures that describe a run rather than gate it: the share of client
    time each session phase of a serving workload took (share.*, the rest
    being draws, loop and clock reads) and the MiB of the benchmark's own
    buffers that peak_rss_mb leaves out."""
    facts = {name: value for name, value in sorted(raw["values"].items())
             if name.startswith("share.")}
    facts["own_mb"] = raw["own_mb"]
    return facts


def layer_metrics(workload, raw, spec):
    """Per-layer metrics of a traced run. Layers a workload does not
    exercise read 0. Returns the metrics and the number of child spans
    found outside their parent."""
    v, log = raw["values"], raw["trace_log"]
    agg = log["aggregates"]
    spans = [tuple(s) for s in log["spans"]]
    selfs, outside = stats.self_times(spans)
    self_total, kept = {}, {}
    for s in spans:
        self_total[s[0]] = self_total.get(s[0], 0) + selfs[s[1]]
        kept[s[0]] = kept.get(s[0], 0) + 1

    def mean_self(name):
        return self_total.get(name, 0) / kept[name] if kept.get(name) else 0.0

    def count(name):
        return agg.get(name, {}).get("count", 0)

    def mean(name):
        a = agg.get(name)
        return a["total_ns"] / a["count"] if a and a["count"] else 0.0

    m = {entry["name"]: 0.0 for entry in spec["per_layer"]}
    m["trace.spans_kept"] = len(spans)
    m["trace.spans_dropped"] = log["dropped"]
    if workload in SERVE:
        for name in ("serve.batch_dedup_ratio", "serve.hit_ratio",
                     "serve.misses", "serve.coalesced_waits",
                     "serve.duplicate_sweeps", "serve.warmup_s"):
            m[name] = v[name]
        m["serve.select_self_ns"] = mean_self("serve.select")
        m["serve.batch_self_ns"] = mean_self("serve.select_batch")
        m["selector.predict_ns"] = mean("selector.predict")
    if workload == "serve_churn":
        m["tuner.trials"] = count("perfmodel.best_of")
        m["tuner.trials_per_sweep"] = count("perfmodel.best_of") / max(
            1, v["tuner.sweeps"])
        m["perfmodel.best_of_ns"] = mean("perfmodel.best_of")
        m["perfmodel.calls"] = count("perfmodel.best_of")
        flushes = raw["samples"]["store.flush_ms"]
        m["store.flush_p50_ms"] = at(values=flushes, p=50) or 0.0
        m["store.flush_p90_ms"] = at(values=flushes, p=90) or 0.0
        for name in ("store.records_flushed", "store.compact_ms",
                     "store.journal_bytes", "store.write_failures"):
            m[name] = v[name]
        m["store.load_ms"] = statistics.median(raw["samples"]["store.load_ms"])
        m["store.warm_start_ms"] = statistics.median(
            raw["samples"]["store.warm_start_ms"])
    if workload == "infer_host":
        passes = v["passes"]
        m["engine.plan_us"] = mean("engine.plan") * 1e-3
        for lowering in ("im2col", "winograd", "winograd4"):
            name = "conv." + lowering
            m[name + "_self_ms"] = self_total.get(name, 0) * 1e-6 / passes
            m[name + "_layers"] = count(name) / passes
        launch_ns = agg.get("gemm.launch", {}).get("total_ns", 0)
        m["gemm.launch_ms"] = launch_ns * 1e-6 / passes
        m["gemm.launches"] = count("gemm.launch") / passes
        m["gemm.gflops"] = v["gemm.flops"] / launch_ns if launch_ns else 0.0
        m["gemm.bytes_computed"] = v["gemm.bytes_computed"] / passes
        m["syclrt.item_utilization"] = v["syclrt.item_utilization"]
    if workload == "tune_offline":
        for name in ("dataset.build", "ml.pca", "prune.topn", "prune.kmeans",
                     "prune.hdbscan", "prune.pca_kmeans", "prune.tree",
                     "selector.fit", "selector.eval", "check.certify"):
            m[name + "_ms"] = mean(name) * 1e-6
        build_ns = mean("dataset.build")
        m["dataset.cells_per_s"] = (v["dataset.cells"] / (build_ns * 1e-9)
                                    if build_ns else 0.0)
        m["check.safe_certificates"] = v["check.safe_certificates"]
    return m, len(outside)


def provenance():
    """Source revision, machine and code size of the measured tree."""
    meta = {"python": platform.python_version(), "host": platform.node(),
            "machine": platform.machine(), "nproc": os.cpu_count()}
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    meta["git_sha"] = sha
    meta["sloc"] = sloc_per_module(ROOT / "src")
    return meta


def sloc_per_module(src):
    """Non-blank, non-comment lines per src/ module: blank lines and lines
    holding only a // comment are not counted."""
    counts = {}
    for module in sorted(p for p in src.iterdir() if p.is_dir()):
        total = 0
        for path in module.rglob("*"):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            for line in path.read_text(errors="replace").splitlines():
                text = line.strip()
                if text and not text.startswith("//"):
                    total += 1
        counts[module.name] = total
    return counts


def print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        shown = "n/a" if value is None else "{:.6g}".format(value)
        print("  {:34s} {:>14s} {}".format(name, shown, units.get(name, "")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]", 2)
    if not 0 <= args.seed < 2 ** 63:
        fail("--seed must be a non-negative 63-bit integer", 2)
    spec = benchmark_spec()

    binary = build(time.time() + BUILD_BUDGET_S)
    deadline = time.time() + RUN_BUDGET_S
    plain = run_binary(binary, args.workload, args.seed, args.seconds, 0,
                       deadline)
    runs = [plain]
    named, tails = named_metrics(args.workload, plain)
    facts = run_facts(plain)
    units = {name: unit for name, (unit, _, _) in NAMED.items()}
    units.update({name: "ratio" for name in facts}, own_mb="MiB")
    checks = []
    if args.trace:
        traced = run_binary(binary, args.workload, args.seed, args.seconds, 1,
                            deadline)
        runs.append(traced)
        traced_named, _ = named_metrics(args.workload, traced)
        layers, outside = layer_metrics(args.workload, traced, spec)
        if outside:
            checks.append("{} child spans lie outside their parent"
                          .format(outside))
        overhead = {}
        for name, value in named.items():
            other = traced_named.get(name)
            if value and other is not None:
                overhead[name] = 100.0 * (other - value) / value
        for entry in spec["end_to_end"]:
            layers["trace.overhead." + entry["name"] + "_pct"] = overhead.get(
                entry["name"], 0.0)
        reported = layers
        units.update({e["name"]: e["unit"] for e in spec["per_layer"]})
    else:
        reported = {e["name"]: named[e["name"]] for e in spec["end_to_end"]}

    attempted = sum(r["attempted"] for r in runs) + len(checks)
    failed = sum(r["failed"] for r in runs) + len(checks)
    failures = [f for r in runs for f in r["failures"]] + checks
    correct = failed == 0 and all(
        value is not None for value in reported.values())
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "named": named, "tails": tails,
        "facts": facts,
        "metrics": reported, "meta": dict(plain["meta"], **provenance(),
                                          seed=args.seed),
    }
    if args.trace:
        result["overhead_pct"] = overhead
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    kept = results / "{}-s{}-t{}-{}.json".format(
        args.workload, args.seed, args.trace, time.time_ns())
    kept.write_text(json.dumps(result, indent=1, sort_keys=True))

    print_table("{} (seed {}, {} s, trace off)".format(
        args.workload, args.seed, args.seconds), named, units)
    for name, t in tails.items():
        print("  {:34s} {} samples, highest percentile with 10 beyond: {}"
              .format(name, t["samples"], "none" if t["percentile"] is None
                      else "p{:g}".format(t["percentile"])))
    print_table("not gated: share of client time per session phase, and the "
                "benchmark's own buffers left out of peak_rss_mb", facts,
                units)
    if args.trace:
        print_table("per-layer (trace on)", layers, units)
        print_table("tracing overhead, % of the untraced value", overhead,
                    {})
    for message in failures:
        print("FAILED: " + message)
    print("result: " + str(kept.relative_to(ROOT)))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

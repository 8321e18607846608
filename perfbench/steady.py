#!/usr/bin/env python3
"""Steadiness check: runs every workload once per seed and reports, for
every end-to-end metric the workload measures (the gated ones of
BENCHMARK.json and the workload-specific ones of run.py's NAMED), the
quartile spread of the per-run values as a share of their median next to
the metric's bound.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S]

A metric is steady when its spread is below a third of its bound. Exit
status 1 when any is not.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    """Runs one seed and returns the full result run.py kept, or None when
    the run failed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    kept = [line for line in lines if line.startswith("result: ")]
    if proc.returncode != 0 or not kept:
        print("{} seed {} failed:\n{}{}".format(
            workload, seed, proc.stdout[-2000:], proc.stderr[-2000:]))
        return None
    return json.loads((ROOT / kept[-1][len("result: "):]).read_text())


def main():
    spec = run.benchmark_spec()
    bounds = run.metric_bounds(spec)
    gated = [e["name"] for e in spec["end_to_end"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                return 1
            for name, value in result["named"].items():
                values.setdefault(name, []).append(value)
        summary[workload] = {}
        for name in gated + [n for n in run.NAMED if n not in gated]:
            series = values.get(name)
            if series is None:
                continue
            if name == "fail_frac":
                # Every run above was correct, so every value is 0.
                continue
            if any(v is None for v in series):
                print("{:13s} {:18s} not reported on every run (too few "
                      "samples for the percentile)".format(workload, name))
                steady = False
                continue
            bound = bounds[name]
            spread = stats.quartile_spread(series)
            ok = spread < bound / 3
            steady = steady and ok
            summary[workload][name] = {
                "median": statistics.median(series), "spread": spread,
                "bound": bound, "gated": name in gated, "values": series}
            print("{:13s} {:18s} median {:12.6g}  spread {:7.4f}  bound {:5.3f}"
                  "  {}{}".format(workload, name, statistics.median(series),
                                  spread, bound, "ok" if ok else "NOT STEADY",
                                  "" if name in gated else "  (compare only)"),
                  flush=True)
    out = ROOT / ".bench_out" / "steady-{}.json".format(time.time_ns())
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print("written to", out.relative_to(ROOT))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

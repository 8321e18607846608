#!/usr/bin/env python3
"""Compare step: reads the untraced results of a parent and a change and
prints one verdict per (workload, metric).

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the files perfbench/run.py writes under
.bench_out/results. Runs pair up in the order they were made; alternate
which side runs first. A metric is
  improved    when there are at least 10 pairs, the change wins at least
              9 in 10 of them (ties count for neither) and the medians
              differ by more than the parent's quartile spread;
  worse       when the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  when the parent's own spread is wider than the bound, unless
              every change run is better than every parent run;
  unchanged   otherwise.
fail_frac is worse when more operations fail than at the parent, and then
no metric of that workload counts as improved. Results from different
machines or builds are refused. Exit status 1 when anything is worse.
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9
SAME_MACHINE = ("host", "nproc", "compiler", "build_type")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def wins(parent, change, better):
    """Pairs, in run order, where the change reads better; ties count for
    neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent, change, better, bound):
    """Verdict for one metric from the per-run values of both sides, in
    run order."""
    sign = 1.0 if better == "higher" else -1.0
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    pairs = min(len(parent), len(change))
    if (pairs >= MIN_PAIRS
            and wins(parent, change, better) >= MIN_WIN_SHARE * pairs
            and sign * (mc - mp) > q3 - q1):
        return "improved"
    if mp and (q3 - q1) / abs(mp) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "unchanged"
        return "unresolved"
    if sign * (mc - mp) < -bound * abs(mp):
        return "worse"
    return "unchanged"


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json"),
                       key=lambda p: int(p.stem.rsplit("-", 1)[-1])):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def machine(result):
    return tuple(result["meta"].get(key) for key in SAME_MACHINE)


def compare(parent_runs, change_runs, bounds):
    """Rows of (workload, metric, parent median, change median, pairs,
    wins, verdict)."""
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        fail_p = (sum(r["failed"] for r in parent)
                  / max(1, sum(r["attempted"] for r in parent)))
        fail_c = (sum(r["failed"] for r in change)
                  / max(1, sum(r["attempted"] for r in change)))
        more_failures = fail_c > fail_p
        workload_rows = [(workload, "fail_frac", fail_p, fail_c,
                          min(len(parent), len(change)), None,
                          "worse" if more_failures else "unchanged")]
        names = [n for n in run.NAMED if n != "fail_frac"
                 and all(r["named"].get(n) is not None
                         for r in parent + change)]
        for name in names:
            p = [r["named"][name] for r in parent]
            c = [r["named"][name] for r in change]
            better = run.NAMED[name][1]
            v = verdict(p, c, better, bounds[name])
            if v == "improved" and more_failures:
                v = "unresolved"
            workload_rows.append((workload, name, statistics.median(p),
                                  statistics.median(c), min(len(p), len(c)),
                                  wins(p, c, better), v))
        rows += workload_rows
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_runs, change_runs = load(argv[1]), load(argv[2])
    machines = {machine(r) for runs in (parent_runs, change_runs)
                for rs in runs.values() for r in rs}
    if len(machines) > 1:
        print("results come from different machines or builds: {}".format(
            sorted(machines)), file=sys.stderr)
        return 2
    rows = compare(parent_runs, change_runs,
                   run.metric_bounds(run.benchmark_spec()))
    print("{:13s} {:20s} {:>14s} {:>14s} {:>6s} {:>5s}  {}".format(
        "workload", "metric", "parent", "change", "pairs", "wins",
        "verdict"))
    for workload, name, p, c, n, wins, v in rows:
        print("{:13s} {:20s} {:14.6g} {:14.6g} {:6d} {:>5s}  {}".format(
            workload, name, p, c, n, "-" if wins is None else str(wins), v))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Tests of the compare step's verdicts on synthetic runs.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402

# Parent runs with a quartile spread of 2% of their median.
PARENT = [99.0, 100.0, 101.0, 99.5, 100.5, 98.0, 102.0, 100.0, 99.0, 101.0]


def shifted(values, factor):
    return [v * factor for v in values]


class Verdict(unittest.TestCase):
    def test_clear_gain_over_ten_pairs_is_improved(self):
        change = shifted(PARENT, 0.9)
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(PARENT, shifted(PARENT, 1.1),
                                         "higher", 0.1), "improved")

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(compare.verdict(PARENT[:9], shifted(PARENT[:9], 0.9),
                                         "lower", 0.1), "unchanged")

    def test_gain_needs_nine_wins_in_ten(self):
        change = shifted(PARENT, 0.9)
        change[0] = change[1] = 200.0
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1),
                         "unchanged")

    def test_gain_smaller_than_parent_spread_is_not_claimed(self):
        change = shifted(PARENT, 0.99)
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1),
                         "unchanged")

    def test_worse_beyond_bound(self):
        self.assertEqual(compare.verdict(PARENT, shifted(PARENT, 1.2),
                                         "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(PARENT, shifted(PARENT, 0.8),
                                         "higher", 0.1), "worse")

    def test_worse_within_bound_is_unchanged(self):
        self.assertEqual(compare.verdict(PARENT, shifted(PARENT, 1.05),
                                         "lower", 0.1), "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0,
                 100.0]
        self.assertEqual(compare.verdict(noisy, shifted(noisy, 1.3), "lower",
                                         0.1), "unresolved")
        # Unless every change run is better than every parent run.
        self.assertEqual(compare.verdict(noisy, [40.0] * 10, "lower", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(noisy[:5], [40.0] * 5, "lower", 0.1),
                         "unchanged")


def result(workload, named, failed=0, attempted=100):
    return {"workload": workload, "named": named, "failed": failed,
            "attempted": attempted, "trace": 0}


class Compare(unittest.TestCase):
    def runs(self, factor, failed=0):
        return {"tune_offline": [
            result("tune_offline", {"tune_s": v * factor * 0.01,
                                    "setup_s": 0.05, "peak_rss_mb": 16.0,
                                    "pct_of_optimal": 87.0,
                                    "latency_us": v * factor * 1e4,
                                    "throughput_per_s": 100.0 / v},
                   failed=failed) for v in PARENT]}

    def bounds(self):
        return compare.run.metric_bounds(compare.run.benchmark_spec())

    def verdicts(self, rows):
        return {row[1]: row[-1] for row in rows}

    def test_one_row_per_metric_with_fail_frac(self):
        rows = compare.compare(self.runs(1.0), self.runs(0.8), self.bounds())
        verdicts = self.verdicts(rows)
        self.assertEqual(verdicts["fail_frac"], "unchanged")
        self.assertEqual(verdicts["tune_s"], "improved")
        self.assertEqual(verdicts["latency_us"], "improved")
        self.assertEqual(verdicts["setup_s"], "unchanged")
        self.assertNotIn("infer_p50_ms", verdicts)

    def test_more_failures_block_a_gain(self):
        rows = compare.compare(self.runs(1.0), self.runs(0.8, failed=1),
                               self.bounds())
        verdicts = self.verdicts(rows)
        self.assertEqual(verdicts["fail_frac"], "worse")
        self.assertEqual(verdicts["tune_s"], "unresolved")


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's statistics: tail percentile choice,
percentiles of samples and histograms, and span self times.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(100000), 99.99)
        self.assertEqual(stats.tail_percentile(99999), 99.9)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)

    def test_too_few_samples_support_no_percentile(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))


class Percentiles(unittest.TestCase):
    def test_samples_interpolate_between_ranks(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([5], 99), 5)

    def test_histogram_interpolates_inside_the_bucket(self):
        # 100 readings of 10 ns: the median sits in the middle of [10, 11).
        self.assertAlmostEqual(stats.histogram_percentile([[10, 100]], 50),
                               10.5)
        hist = [[1, 50], [7, 50]]
        self.assertAlmostEqual(stats.histogram_percentile(hist, 50), 2.0)
        self.assertAlmostEqual(stats.histogram_percentile(hist, 99), 7.98)
        self.assertEqual(stats.histogram_count(hist), 100)

    def test_histogram_mean_takes_bucket_middles(self):
        self.assertAlmostEqual(stats.histogram_mean([[10, 100]]), 10.5)
        self.assertAlmostEqual(stats.histogram_mean([[1, 3], [70000, 1]]),
                               (3 * 1.5 + 70000.5) / 4)
        with self.assertRaises(ValueError):
            stats.histogram_mean([])

    def test_quartile_spread(self):
        values = [8, 9, 10, 11, 12]
        q1, _, q3 = (8.5, 10, 11.5)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / 10)


def span(name, sid, parent, start, end, request=0):
    return (name, sid, parent, request, start, end)


class SelfTimes(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        selfs, outside = stats.self_times([span("a", 1, 0, 10, 25)])
        self.assertEqual(selfs, {1: 15})
        self.assertEqual(outside, [])

    def test_nested_children(self):
        spans = [span("root", 1, 0, 0, 100),
                 span("child", 2, 1, 10, 40),
                 span("grandchild", 3, 2, 20, 30),
                 span("child", 4, 1, 50, 60)]
        selfs, outside = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 30 - 10)
        self.assertEqual(selfs[2], 30 - 10)
        self.assertEqual(selfs[3], 10)
        self.assertEqual(selfs[4], 10)
        self.assertEqual(outside, [])

    def test_overlapping_children_count_once(self):
        # Two children on other threads overlap on [30, 40).
        spans = [span("root", 1, 0, 0, 100),
                 span("a", 2, 1, 20, 40),
                 span("b", 3, 1, 30, 60),
                 span("c", 4, 1, 35, 45)]
        selfs, _ = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - (60 - 20))

    def test_child_outside_parent_is_clipped_and_reported(self):
        spans = [span("root", 1, 0, 10, 50),
                 span("late", 2, 1, 40, 70)]
        selfs, outside = stats.self_times(spans)
        self.assertEqual(selfs[1], 40 - 10)
        self.assertEqual(outside, [2])

    def test_span_whose_parent_was_not_kept_is_a_root(self):
        selfs, outside = stats.self_times([span("orphan", 5, 99, 0, 7)])
        self.assertEqual(selfs, {5: 7})
        self.assertEqual(outside, [])


if __name__ == "__main__":
    unittest.main()

"""Tests for perfbench/stats.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_supported_percentile_leaves_ten_samples_beyond(self):
        for n in range(1, 400):
            p = stats.supported_percentile(n)
            if p == 0:
                self.assertLess(n - math.ceil(0.01 * n), 10)
                continue
            self.assertGreaterEqual(n - math.ceil(p / 100.0 * n), 10, n)
            if p < 99:
                self.assertLess(n - math.ceil((p + 1) / 100.0 * n), 10, n)

    def test_p90_needs_one_hundred_samples(self):
        self.assertEqual(stats.supported_percentile(100), 90)
        self.assertEqual(stats.supported_percentile(99), 89)
        self.assertEqual(stats.supported_percentile(1000), 99)
        self.assertEqual(stats.supported_percentile(10), 0)

    def test_tail_refuses_a_small_sample(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.tail(list(range(99)), 90)

    def test_tail_is_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted input
        self.assertEqual(stats.tail(values, 90), 90)
        self.assertEqual(stats.nearest_rank(sorted(values), 50), 50)
        self.assertEqual(stats.nearest_rank([7.0], 90), 7.0)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.median([])


class BestPerGroup(unittest.TestCase):
    def test_fastest_of_each_group_in_group_order(self):
        values = [5.0, 3.0, 9.0, 4.0, 1.0, 8.0]
        groups = [2, 0, 2, 0, 1, 2]
        self.assertEqual(stats.best_per_group(values, groups), [3.0, 1.0, 5.0])

    def test_groups_never_sampled_are_absent(self):
        self.assertEqual(stats.best_per_group([2.0, 1.0], [7, 7]), [1.0])
        self.assertEqual(stats.best_per_group([], []), [])

    def test_unlabelled_values_are_rejected(self):
        with self.assertRaises(ValueError):
            stats.best_per_group([1.0, 2.0], [0])


class FailedShare(unittest.TestCase):
    def test_refused_and_mismatched_requests_count(self):
        failures = {"socket": 1, "status": 0, "refused": 2, "cache_header": 0,
                    "mismatch": 3}
        self.assertEqual(stats.failed_share(60, failures), (6, 0.1))

    def test_clean_run(self):
        self.assertEqual(stats.failed_share(5, {"refused": 0}), (0, 0.0))

    def test_inconsistent_counts_are_rejected(self):
        with self.assertRaises(ValueError):
            stats.failed_share(0, {})
        with self.assertRaises(ValueError):
            stats.failed_share(2, {"refused": 2, "mismatch": 1})
        with self.assertRaises(ValueError):
            stats.failed_share(2, {"refused": -1})


if __name__ == "__main__":
    unittest.main()

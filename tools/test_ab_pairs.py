#!/usr/bin/env python3
"""Unit tests for the pair statistics in ab_pairs.py — the pure
functions only, no git, build or benchmark run. Run directly or via
ctest (registered as a tier1 test)."""

import contextlib
import io
import math
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_pairs import (directions, iqr, median, quantile, ratios, report,
                      sign_test_p, verdict, wins)


class Quantiles(unittest.TestCase):
    def test_type7_matches_numpy_linear(self):
        # numpy.percentile([1, 2, 3, 4], [25, 50, 75]) == [1.75, 2.5, 3.25]
        v = [4.0, 1.0, 3.0, 2.0]
        self.assertAlmostEqual(quantile(v, 0.25), 1.75)
        self.assertAlmostEqual(median(v), 2.5)
        self.assertAlmostEqual(quantile(v, 0.75), 3.25)
        self.assertAlmostEqual(iqr(v), 1.5)

    def test_ends_and_single_value(self):
        v = [5.0, 9.0, 7.0]
        self.assertEqual(quantile(v, 0.0), 5.0)
        self.assertEqual(quantile(v, 1.0), 9.0)
        self.assertEqual(median([3.0]), 3.0)
        self.assertEqual(iqr([3.0]), 0.0)


class Pairs(unittest.TestCase):
    def test_wins_follow_the_better_direction(self):
        base = [10.0, 10.0, 10.0, 10.0]
        head = [12.0, 9.0, 10.0, 11.0]
        self.assertEqual(wins(base, head, "higher"), (2, 1))
        self.assertEqual(wins(base, head, "lower"), (1, 1))

    def test_ratios_are_head_over_base(self):
        self.assertEqual(ratios([2.0, 4.0], [3.0, 2.0]), [1.5, 0.5])
        self.assertEqual(ratios([0.0], [1.0]), [math.inf])

    def test_sign_test(self):
        self.assertAlmostEqual(sign_test_p(10, 10), 1 / 1024)
        self.assertAlmostEqual(sign_test_p(9, 10), 11 / 1024)
        self.assertAlmostEqual(sign_test_p(0, 10), 1.0)
        self.assertAlmostEqual(sign_test_p(3, 6), 42 / 64)
        self.assertEqual(sign_test_p(0, 0), 1.0)


class Verdicts(unittest.TestCase):
    base = [15.0, 16.0, 15.5, 14.8, 15.2, 16.1, 15.3, 14.9, 15.6, 15.0]

    def test_clear_gain(self):
        head = [b * 1.3 for b in self.base]
        v = verdict(self.base, head, "higher")
        self.assertEqual((v["pairs"], v["won"], v["tied"]), (10, 10, 0))
        self.assertTrue(v["gain"])
        self.assertAlmostEqual(v["p_one_sided"], 1 / 1024)
        self.assertAlmostEqual(v["median_gap"], 0.3 * median(self.base))

    def test_nine_of_ten_is_enough_eight_is_not(self):
        head = [b * 1.3 for b in self.base]
        head[0] = self.base[0] - 1.0
        self.assertTrue(verdict(self.base, head, "higher")["gain"])
        head[1] = self.base[1] - 1.0
        v = verdict(self.base, head, "higher")
        self.assertEqual(v["won"], 8)
        self.assertFalse(v["gain"])

    def test_gap_must_exceed_the_base_iqr(self):
        # Every pair won by a hair: the median moves less than the
        # base's own spread.
        head = [b + 0.01 for b in self.base]
        v = verdict(self.base, head, "higher")
        self.assertEqual(v["won"], 10)
        self.assertLess(v["median_gap"], v["base_iqr"])
        self.assertFalse(v["gain"])

    def test_lower_is_better_metrics(self):
        head = [b * 0.7 for b in self.base]
        self.assertTrue(verdict(self.base, head, "lower")["gain"])
        self.assertFalse(verdict(self.base, head, "higher")["gain"])

    def test_ties_count_against_the_claim(self):
        v = verdict(self.base, list(self.base), "higher")
        self.assertEqual((v["won"], v["tied"]), (0, 10))
        self.assertEqual(v["p_one_sided"], 1.0)
        self.assertFalse(v["gain"])


class Directions(unittest.TestCase):
    def test_benchmark_json_directions(self):
        d = directions()
        self.assertEqual(d["ops_per_s"], "higher")
        self.assertEqual(d["op_ms_p90"], "lower")
        self.assertEqual(d["fleet.ns_per_request"], "lower")


class Reports(unittest.TestCase):
    labels = {"base": "b0", "head": "h0"}

    def render(self, trace, metrics):
        runs = {side: [{"failed": 0, "metrics": dict(metrics)}] * 2
                for side in ("base", "head")}
        a = SimpleNamespace(workload="rack-ingress", seed=42, trace=trace)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            report(self.labels, runs, a, directions())
        return out.getvalue()

    def test_untraced_pairs_get_a_verdict(self):
        text = self.render(0, {"ops_per_s": 20.0, "op_ms_p90": 70.0})
        self.assertIn("verdict on ops_per_s", text)

    def test_traced_pairs_print_their_table_without_a_verdict(self):
        # A traced run reports per-layer metrics only: no ops_per_s.
        text = self.render(1, {"process.peak_rss_mb": 70.0})
        self.assertIn("process.peak_rss_mb", text)
        self.assertIn("no verdict", text)


if __name__ == "__main__":
    unittest.main()

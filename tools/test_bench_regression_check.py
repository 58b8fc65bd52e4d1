#!/usr/bin/env python3
"""Unit tests for the comparison and trajectory math in
bench_regression_check.py — the pure functions only, no filesystem or
subprocess. Run directly or via ctest (registered as a tier1 test)."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_regression_check import (append_trajectory, compare,
                                    engine_throughputs, update_trajectory)


class CompareMath(unittest.TestCase):
    def test_within_band_is_ok(self):
        rows, notes = compare({"BM_EngineX": 100.0}, {"BM_EngineX": 95.0},
                              0.15)
        self.assertEqual(notes, [])
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["verdict"], "ok")
        self.assertAlmostEqual(rows[0]["floor"], 85.0)

    def test_below_floor_is_regressed(self):
        rows, _ = compare({"BM_EngineX": 100.0}, {"BM_EngineX": 84.999},
                          0.15)
        self.assertEqual(rows[0]["verdict"], "REGRESSED")

    def test_exactly_at_floor_is_ok(self):
        # The gate is strict-less-than: landing exactly on the floor
        # passes, matching the historical behaviour of the check.
        rows, _ = compare({"BM_EngineX": 100.0}, {"BM_EngineX": 85.0}, 0.15)
        self.assertEqual(rows[0]["verdict"], "ok")

    def test_at_or_above_ceiling_is_improved(self):
        rows, _ = compare({"BM_EngineX": 100.0}, {"BM_EngineX": 115.0},
                          0.15)
        self.assertEqual(rows[0]["verdict"], "IMPROVED")
        rows, _ = compare({"BM_EngineX": 100.0}, {"BM_EngineX": 114.999},
                          0.15)
        self.assertEqual(rows[0]["verdict"], "ok")

    def test_mixed_fleet_sorted_and_judged_independently(self):
        base = {"BM_EngineA": 10.0, "BM_DispatchB": 20.0, "BM_EngineC": 5.0}
        cur = {"BM_EngineA": 13.0, "BM_DispatchB": 16.0, "BM_EngineC": 5.1}
        rows, notes = compare(base, cur, 0.15)
        self.assertEqual(notes, [])
        self.assertEqual([r["name"] for r in rows],
                         ["BM_DispatchB", "BM_EngineA", "BM_EngineC"])
        verdicts = {r["name"]: r["verdict"] for r in rows}
        self.assertEqual(verdicts["BM_EngineA"], "IMPROVED")  # +30%
        self.assertEqual(verdicts["BM_DispatchB"], "REGRESSED")  # -20%
        self.assertEqual(verdicts["BM_EngineC"], "ok")  # +2%

    def test_one_sided_names_become_notes_not_verdicts(self):
        rows, notes = compare({"BM_EngineOld": 10.0},
                              {"BM_EngineNew": 10.0}, 0.15)
        self.assertEqual(rows, [])
        self.assertEqual(len(notes), 2)
        self.assertIn("BM_EngineOld only in baseline, skipping", notes)
        self.assertIn("BM_EngineNew has no baseline yet", notes)


class TrajectoryLedger(unittest.TestCase):
    def test_append_to_empty(self):
        out = update_trajectory([], "abc123",
                                {"BM_EngineX": 2.0, "BM_DispatchY": 1.0})
        self.assertEqual(out, [
            {"commit": "abc123", "bench": "BM_DispatchY",
             "items_per_second": 1.0},
            {"commit": "abc123", "bench": "BM_EngineX",
             "items_per_second": 2.0},
        ])

    def test_rerun_replaces_same_commit_only(self):
        first = update_trajectory([], "aaa", {"BM_EngineX": 1.0})
        second = update_trajectory(first, "bbb", {"BM_EngineX": 2.0})
        rerun = update_trajectory(second, "bbb", {"BM_EngineX": 3.0})
        self.assertEqual(len(rerun), 2)
        self.assertEqual(rerun[0]["commit"], "aaa")
        self.assertEqual(rerun[1]["items_per_second"], 3.0)

    def test_preserves_prior_history_order(self):
        entries = [{"commit": "c1", "bench": "BM_EngineX",
                    "items_per_second": 1.0},
                   {"commit": "c2", "bench": "BM_EngineX",
                    "items_per_second": 2.0}]
        out = update_trajectory(entries, "c3", {"BM_EngineX": 3.0})
        self.assertEqual([e["commit"] for e in out], ["c1", "c2", "c3"])

    def test_file_roundtrip_and_corrupt_recovery(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "traj.json"
            n = append_trajectory(path, "c1", {"BM_EngineX": 1.5})
            self.assertEqual(n, 1)
            n = append_trajectory(path, "c2", {"BM_EngineX": 2.5})
            self.assertEqual(n, 2)
            loaded = json.loads(path.read_text())
            self.assertEqual(loaded[1]["commit"], "c2")
            path.write_text("{not json")
            n = append_trajectory(path, "c3", {"BM_EngineX": 3.5})
            self.assertEqual(n, 1)


class ThroughputExtraction(unittest.TestCase):
    def _doc(self, benchmarks):
        return {"benches": {"bench_perf_micro":
                            {"benchmark": {"benchmarks": benchmarks}}}}

    def test_tracked_prefixes_only(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "r.json"
            path.write_text(json.dumps(self._doc([
                {"name": "BM_EngineOneClassPoisson",
                 "items_per_second": 1e7},
                {"name": "BM_DispatchEightCoreFleet",
                 "items_per_second": 5e6},
                {"name": "BM_CalendarQueuePushPop",
                 "items_per_second": 9e9},
            ])))
            rates, note = engine_throughputs(path)
            self.assertIsNone(note)
            self.assertEqual(set(rates), {"BM_EngineOneClassPoisson",
                                          "BM_DispatchEightCoreFleet"})

    def test_core_benches_are_tracked(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "r.json"
            path.write_text(json.dumps(self._doc([
                {"name": "BM_CoreCycleColocated",
                 "items_per_second": 2e6},
                {"name": "BM_CoreRunColdOpPoint",
                 "items_per_second": 12.0},
                {"name": "BM_CacheAccess",
                 "items_per_second": 3e7},
            ])))
            rates, note = engine_throughputs(path)
            self.assertIsNone(note)
            self.assertEqual(rates, {"BM_CoreCycleColocated": 2e6,
                                     "BM_CoreRunColdOpPoint": 12.0})

    def test_queueing_benches_are_tracked(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "r.json"
            path.write_text(json.dumps(self._doc([
                {"name": "BM_QueueingRequest",
                 "items_per_second": 4e6},
                {"name": "BM_QueueingServiceDuty/duty_0_02",
                 "items_per_second": 2e5},
                {"name": "BM_GeneratorNext",
                 "items_per_second": 8e7},
            ])))
            rates, note = engine_throughputs(path)
            self.assertIsNone(note)
            self.assertEqual(rates, {
                "BM_QueueingRequest": 4e6,
                "BM_QueueingServiceDuty/duty_0_02": 2e5})

    def test_no_tracked_entries_is_a_note(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "r.json"
            path.write_text(json.dumps(self._doc([
                {"name": "BM_CacheAccess", "items_per_second": 3e7},
            ])))
            rates, note = engine_throughputs(path)
            self.assertIsNone(rates)
            self.assertIn("BM_Core*", note)

    def test_skipped_run_is_a_note(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "r.json"
            path.write_text(json.dumps(
                {"benches": {"bench_perf_micro":
                             {"skipped": "benchmark not found"}}}))
            rates, note = engine_throughputs(path)
            self.assertIsNone(rates)
            self.assertIn("skipped", note)

    def test_missing_file_is_a_note(self):
        rates, note = engine_throughputs(Path("/nonexistent/r.json"))
        self.assertIsNone(rates)
        self.assertIn("does not exist", note)


if __name__ == "__main__":
    unittest.main()

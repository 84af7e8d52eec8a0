#!/usr/bin/env python3
"""The A/B gate's verdict (tools/perf_ab.py) on fabricated run reports.

    python3 tests/perf_ab_test.py

Needs no build and no git: it judges hand-made reports only.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import perf_ab  # noqa: E402

END_TO_END = [
    {"name": "keys_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "key_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def report(keys_per_s=100.0, key_p50_ms=10.0, correct=True, attempted=1000,
           failed=0, drop=None):
    metrics = {"keys_per_s": {"value": keys_per_s, "unit": "1/s"},
               "key_p50_ms": {"value": key_p50_ms, "unit": "ms"}}
    if drop:
        del metrics[drop]
    return (0 if correct else 1), {"correct": correct, "attempted": attempted,
                                   "failed": failed, "metrics": metrics}


def judge(base, change, pairs=5):
    """Every base run reports `base`, every change run `change`."""
    runs = {"sweep-large": {"base": [report(**base)] * pairs,
                            "change": [report(**change)] * pairs}}
    return perf_ab.verdict(END_TO_END, runs)[1]


class Verdict(unittest.TestCase):
    def test_identical_sides_pass(self):
        self.assertEqual(judge({}, {}), [])

    def test_higher_is_better_fails_only_when_lower(self):
        self.assertEqual(judge({}, {"keys_per_s": 200.0}), [])
        failures = judge({}, {"keys_per_s": 60.0})
        self.assertEqual(len(failures), 1)
        self.assertIn("sweep-large: keys_per_s", failures[0])

    def test_lower_is_better_fails_only_when_higher(self):
        self.assertEqual(judge({}, {"key_p50_ms": 5.0}), [])
        failures = judge({}, {"key_p50_ms": 14.0})
        self.assertEqual(len(failures), 1)
        self.assertIn("sweep-large: key_p50_ms", failures[0])

    def test_worse_by_exactly_the_bound_passes(self):
        self.assertEqual(judge({}, {"keys_per_s": 75.0, "key_p50_ms": 12.5}),
                         [])

    def test_just_past_the_bound_fails(self):
        self.assertEqual(len(judge({}, {"keys_per_s": 74.99})), 1)
        self.assertEqual(len(judge({}, {"key_p50_ms": 12.51})), 1)

    def test_median_decides_not_one_outlier(self):
        runs = {"analyze-wide": {
            "base": [report()] * 5,
            "change": [report(keys_per_s=10.0)] + [report()] * 4}}
        self.assertEqual(perf_ab.verdict(END_TO_END, runs)[1], [])

    def test_incorrect_run_fails(self):
        failures = judge({}, {"correct": False})
        self.assertTrue(any("correct: false" in f for f in failures))
        failures = judge({"correct": False}, {})
        self.assertTrue(any("base run 1 reported correct: false" in f
                            for f in failures))

    def test_run_without_report_fails(self):
        runs = {"sweep-large": {"base": [report()] * 5,
                                "change": [report()] * 4 + [(2, None)]}}
        failures = perf_ab.verdict(END_TO_END, runs)[1]
        self.assertEqual(failures,
                         ["sweep-large: change run 5 exited 2 without a report"])

    def test_higher_failed_share_fails(self):
        self.assertEqual(judge({"failed": 1}, {"failed": 1}), [])
        failures = judge({"failed": 1}, {"failed": 2})
        self.assertEqual(len(failures), 1)
        self.assertIn("sweep-large: failed share", failures[0])

    def test_missing_metric_fails(self):
        for side in ("base", "change"):
            sides = {"base": {}, "change": {}}
            sides[side] = {"drop": "key_p50_ms"}
            failures = judge(sides["base"], sides["change"])
            self.assertEqual(failures, [
                "sweep-large: key_p50_ms is missing from the %s side" % side])

    def test_table_names_workload_metric_and_verdict(self):
        lines, _ = perf_ab.verdict(END_TO_END, {"simulate-traced": {
            "base": [report()] * 5, "change": [report(keys_per_s=50.0)] * 5}})
        self.assertEqual(len(lines), 2)
        self.assertTrue(lines[0].startswith("simulate-traced   keys_per_s"))
        self.assertTrue(lines[0].endswith("FAIL"))
        self.assertTrue(lines[1].endswith("ok"))


if __name__ == "__main__":
    unittest.main()

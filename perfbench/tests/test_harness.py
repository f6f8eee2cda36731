#!/usr/bin/env python3
"""Tests of the benchmark harness itself (perfbench/run.py).

    python3 -m unittest discover -s perfbench/tests

The digest test builds the perfbench program on first use, the same way
run.py does, so it takes a minute on a clean checkout.
"""
import copy
import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(HERE), "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def raw_record(walls, jobs, cycles=1000, digests=None):
    """A synthetic perfbench record: one pass per entry of walls."""
    digests = digests or ["d"] * len(walls)
    return {
        "passes": [{"wall_s": w, "job_s": list(j), "sim_cycles": cycles,
                    "digest": d, "failures": []}
                   for w, j, d in zip(walls, jobs, digests)],
        "setup_s": {"Base": [0.04, 0.05, 0.03], "ISRF4": [0.06, 0.02,
                                                          0.07]},
        "jobs_per_kind": {"Base": 2, "ISRF4": 1},
        "peak_rss_kib": 2048,
    }


class MetricNames(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        self.assertEqual(run.validate_spec(run.load_spec()), [])

    def test_bad_names_and_units_are_reported(self):
        spec = run.load_spec()
        bad = copy.deepcopy(spec)
        bad["per_layer"][0]["name"] = "-starts.with.dash"
        bad["per_layer"][1]["unit"] = "ns per cycle"
        bad["per_layer"][2]["name"] = bad["end_to_end"][0]["name"]
        problems = " ".join(run.validate_spec(bad))
        self.assertIn("bad name", problems)
        self.assertIn("bad unit", problems)
        self.assertIn("used twice", problems)

    def test_bound_limit_and_setup_metric_are_required(self):
        spec = run.load_spec()
        bad = copy.deepcopy(spec)
        bad["end_to_end"][0]["bound"] = 0.5
        bad["end_to_end"] = [m for m in bad["end_to_end"]
                             if m["name"] != "setup_s"]
        problems = " ".join(run.validate_spec(bad))
        self.assertIn("bound", problems)
        self.assertIn("setup_s", problems)

    def test_every_end_to_end_metric_is_computed(self):
        raw = raw_record([1.0, 2.0], [[0.5, 0.5], [1.0, 1.0]])
        names = {m["name"] for m in run.load_spec()["end_to_end"]}
        self.assertEqual(set(run.end_to_end_metrics(raw)), names)


class Statistics(unittest.TestCase):
    def test_summarize_odd_and_even_counts(self):
        self.assertEqual(run.summarize([3.0, 1.0, 2.0]),
                         {"median": 2.0, "n": 3, "min": 1.0, "max": 3.0})
        s = run.summarize([4.0, 1.0, 3.0, 2.0])
        self.assertEqual((s["median"], s["n"]), (2.5, 4))

    def test_summarize_refuses_no_samples(self):
        with self.assertRaises(run.BenchError):
            run.summarize([])

    def test_end_to_end_values(self):
        raw = raw_record([3.0, 1.0, 2.0],
                         [[1.0, 2.0], [0.4, 0.5], [0.9, 1.0]])
        m = run.end_to_end_metrics(raw)
        self.assertEqual(m["wall_s"][0]["median"], 2.0)
        self.assertEqual(m["wall_s"][0]["n"], 3)
        self.assertEqual(m["slowest_job_s"][0]["median"], 1.0)
        self.assertAlmostEqual(m["sim_cycles_per_s"][0]["median"],
                               3000 / 5.8)
        # 2 Base jobs x median 0.04 + 1 ISRF4 job x median 0.06.
        self.assertAlmostEqual(m["setup_s"][0]["median"], 0.14)
        self.assertEqual(m["setup_s"][0]["n"], 3)
        self.assertEqual(m["peak_rss_mib"][0]["median"], 2.0)

    def test_digest_mismatch_and_failures_are_caught(self):
        raw = raw_record([1.0, 1.0], [[1.0], [1.0]], digests=["a", "b"])
        raw["passes"][1]["failures"] = ["X/Base: status Stalled"]
        attempted, failed, problems = run.check_outputs(raw)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertEqual(len(problems), 2)

    def test_environment_knobs_are_refused(self):
        run.check_environment({"PATH": "/bin"})
        with self.assertRaises(run.BenchError):
            run.check_environment({"ISRF_ENGINE": "skip"})


class Digest(unittest.TestCase):
    def test_digest_is_stable_across_two_runs_of_a_tiny_job(self):
        binary = run.ensure_built()
        first = run.run_perfbench(binary, "tiny", 7, 1, 0)
        second = run.run_perfbench(binary, "tiny", 7, 1, 0)
        digests = {p["digest"] for p in first["passes"] + second["passes"]}
        self.assertEqual(len(digests), 1)
        self.assertEqual(run.check_outputs(first)[1:], (0, []))
        other = run.run_perfbench(binary, "tiny", 8, 1, 0)
        self.assertNotIn(other["passes"][0]["digest"], digests)


if __name__ == "__main__":
    unittest.main()

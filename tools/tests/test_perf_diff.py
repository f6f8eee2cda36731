#!/usr/bin/env python3
"""Tests of the perf gate (tools/perf_diff.py) on synthetic records.

    python3 -m unittest discover -s tools/tests
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import perf_diff  # noqa: E402

SPEC = perf_diff.load_json(perf_diff.SPEC_PATH)
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

# Every end-to-end metric BENCHMARK.json names, at a plausible value.
BASE_VALUES = {"wall_s": 1.0, "sim_cycles_per_s": 3.0e6,
               "slowest_job_s": 0.05, "setup_s": 0.002,
               "peak_rss_mib": 16.0, "sim_cycles": 1.2e6}


def record(workload="sparse_indexed", seed=12345, trace=0, problems=(),
           **scale):
    """A perfbench --trace 0 record; scale multiplies named metrics."""
    metrics = {name: {"value": BASE_VALUES[name] * scale.get(name, 1.0),
                      "unit": "u"} for name in BOUND}
    return {"host": {}, "workload": workload, "seed": seed, "seconds": 3,
            "trace": trace, "problems": list(problems), "metrics": metrics,
            "raw": {}}


class Gate(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.n = 0

    def tearDown(self):
        self.dir.cleanup()

    def path(self, rec):
        self.n += 1
        p = os.path.join(self.dir.name, "rec%d.json" % self.n)
        with open(p, "w") as f:
            f.write(rec if isinstance(rec, str) else json.dumps(rec))
        return p

    def run_gate(self, base, change):
        argv = ["--base"] + [self.path(r) for r in base] + \
               ["--change"] + [self.path(r) for r in change]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = perf_diff.main(argv)
        return code, out.getvalue() + err.getvalue()

    def flagged(self, output):
        return {line.split()[0] for line in output.splitlines()
                if line.endswith("REGRESSION") and " base " in line}

    def test_every_metric_comes_from_benchmark_json(self):
        self.assertEqual(set(BASE_VALUES), set(BOUND))

    def test_change_within_noise_passes(self):
        code, out = self.run_gate(
            [record(), record(wall_s=1.02), record(wall_s=0.98)],
            [record(wall_s=1.1, sim_cycles_per_s=0.92, setup_s=1.2),
             record(wall_s=1.05), record(peak_rss_mib=1.05)])
        self.assertEqual(code, 0, out)
        self.assertEqual(self.flagged(out), set())

    def test_doubled_wall_time_is_flagged(self):
        code, out = self.run_gate([record()] * 3,
                                  [record(wall_s=2.0)] * 3)
        self.assertEqual(code, 1, out)
        self.assertEqual(self.flagged(out), {"wall_s"})

    def test_direction_comes_from_better(self):
        code, out = self.run_gate([record()] * 3,
                                  [record(sim_cycles_per_s=0.5)] * 3)
        self.assertEqual(code, 1, out)
        self.assertEqual(self.flagged(out), {"sim_cycles_per_s"})
        code, out = self.run_gate([record()] * 3,
                                  [record(sim_cycles_per_s=2.0)] * 3)
        self.assertEqual(code, 0, out)

    def test_improvement_is_not_a_regression(self):
        code, out = self.run_gate(
            [record()] * 3,
            [record(wall_s=0.5, slowest_job_s=0.5, setup_s=0.1,
                    peak_rss_mib=0.5, sim_cycles=0.5)] * 3)
        self.assertEqual(code, 0, out)

    def test_limit_is_twice_the_bound(self):
        limit = perf_diff.NOISE_FACTOR * BOUND["wall_s"]
        code, out = self.run_gate([record()],
                                  [record(wall_s=1.0 + 0.9 * limit)])
        self.assertEqual(code, 0, out)
        code, out = self.run_gate([record()],
                                  [record(wall_s=1.0 + 1.1 * limit)])
        self.assertEqual(code, 1, out)

    def test_base_spread_is_a_floor(self):
        # +80% on the median, but the base runs alone spread by 2 s.
        noisy = [record(), record(wall_s=0.9), record(wall_s=2.9)]
        code, out = self.run_gate(noisy, [record(wall_s=1.8)] * 3)
        self.assertEqual(code, 0, out)
        # The same change against base runs that agree is flagged.
        code, out = self.run_gate([record()] * 3, [record(wall_s=1.8)] * 3)
        self.assertEqual(code, 1, out)

    def test_median_not_mean(self):
        # One slow change run of three does not move the median.
        code, out = self.run_gate([record()] * 3,
                                  [record(), record(), record(wall_s=5.0)])
        self.assertEqual(code, 0, out)

    def test_metric_missing_from_change_fails(self):
        lacking = record()
        del lacking["metrics"]["setup_s"]
        code, out = self.run_gate([record()] * 2, [record(), lacking])
        self.assertEqual(code, 1, out)
        self.assertIn("setup_s", out)
        self.assertIn("MISSING", out)

    def test_bad_input_exits_2(self):
        traced = record(trace=1)
        failed = record(problems=["result digest differs between repeats"])
        not_record = {"results": {}}
        cases = {
            "unreadable": ("{not json", record()),
            "not a record": (not_record, record()),
            "mixed workloads": (record(), record(workload="ig_dense")),
            "mixed seeds": (record(), record(seed=1)),
            "trace 1": (record(), traced),
            "problems": (failed, record()),
        }
        for what, (base, change) in cases.items():
            code, out = self.run_gate([base], [change])
            self.assertEqual(code, 2, "%s: %s" % (what, out))
            self.assertIn("perf_diff: error:", out, what)
        argv = ["--base", os.path.join(self.dir.name, "absent.json"),
                "--change", self.path(record())]
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(perf_diff.main(argv), 2)


if __name__ == "__main__":
    unittest.main()

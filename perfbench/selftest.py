"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic spans, the wrapping of module
functions, and that the metric names the runner prints are exactly those of
BENCHMARK.json and well formed.  Needs no package build and runs in seconds.
"""

from __future__ import annotations

import json
import os
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sequential_spans(self):
        # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and then D [5, 7];
        # E [10, 12] is a second root that follows A.
        start = [0.0, 1.0, 2.0, 5.0, 10.0]
        end = [10.0, 4.0, 3.0, 7.0, 12.0]
        parent = [-1, 0, 1, 0, -1]
        self.assertEqual(list(harness.self_times(start, end, parent)), [5.0, 2.0, 1.0, 2.0, 2.0])

    def test_sequential_children_fill_parent(self):
        start = [0.0, 0.0, 1.0, 2.5]
        end = [4.0, 1.0, 2.5, 4.0]
        parent = [-1, 0, 0, 0]
        self.assertEqual(list(harness.self_times(start, end, parent)), [0.0, 1.0, 1.5, 1.5])

    def test_wrapped_functions_record_nested_spans(self):
        fake = types.ModuleType("cosetcq.fake")

        def inner():
            return 1

        def outer():
            return fake.inner() + fake.inner()

        fake.inner, fake.outer = inner, outer
        sys.modules["cosetcq.fake"] = fake
        try:
            rec = harness.Recorder(layers.COUNTERS)
            rec.set_run("round0")
            patcher = harness.Patcher(rec)
            patcher.function("fake", "inner")
            patcher.function("fake", "outer")
            self.assertEqual(fake.outer(), 2)
            patcher.restore()
            self.assertIs(fake.inner, inner)
            self.assertEqual(fake.outer(), 2)  # unwrapped calls record nothing
        finally:
            del sys.modules["cosetcq.fake"]
        self.assertEqual([rec.names[i] for i in rec.name], ["fake.outer", "fake.inner", "fake.inner"])
        self.assertEqual(list(rec.parent), [-1, 0, 0])
        totals = harness.layer_totals(rec, {"round0"})
        self.assertEqual(totals["fake.inner"][0], 2)
        self.assertEqual(totals["fake.outer"][0], 1)
        whole = rec.end[0] - rec.start[0]
        self.assertAlmostEqual(totals["fake.outer"][1] + totals["fake.inner"][1], whole, places=12)
        self.assertEqual(harness.layer_totals(rec, {"setup"})["fake.inner"][0], 0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        pct, value = harness.tail_percentile(range(600))
        self.assertEqual(value, 589.0)
        self.assertAlmostEqual(pct, 100.0 * 590 / 600)
        self.assertIsNone(harness.tail_percentile(range(10)))


class MetricNameTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = harness.load_spec(run.ROOT)

    def test_names_are_unique_and_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, harness.NAME_RE)

    def test_end_to_end_metrics_match_spec(self):
        class Dummy:
            main_job = "big"

        class Calib:
            kind = "interp"
            reference_s = 2.0
            times = [0.01, 0.03, 0.02]

        # (pool entry, {job: (seconds, ratio)}): two rounds on entry 0, one on entry 1
        rounds = [
            (0, {"big.a": (20.0, 2.0), "big.b": (10.0, 1.0), "small": (10.0, 1.0)}),
            (0, {"big.a": (30.0, 3.0), "big.b": (5.0, 0.5), "small": (2.5, 0.25)}),
            (1, {"big.a": (40.0, 4.0), "big.b": (15.0, 1.5), "small": (7.5, 0.75)}),
        ]
        setup = [(0.5, 5.0), (0.1, 1.0), (0.2, 2.0), (0.3, 3.0)]
        calib = {"setup": Calib(), "jobs": Calib()}
        metrics, record = run.end_to_end(Dummy(), rounds, setup, calib, run.Tally())
        out = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        harness.check_metric_names(self.spec, out, trace=False)
        # per job, the median ratio on each entry averaged over the entries, times 2
        self.assertEqual(metrics["main_job_s"][0], 8.75)  # 2 * ((2.5 + 4) / 2 + (0.75 + 1.5) / 2)
        self.assertEqual(metrics["other_jobs_s"][0], 1.375)  # 2 * (0.625 + 0.75) / 2
        self.assertEqual(metrics["wall_s"][0], 10.125)
        self.assertEqual(record["jobs"]["small"]["entries"], 2)
        self.assertEqual(metrics["setup_s"][0], 4.0)  # the cold first set-up is left out
        self.assertEqual(record["calibration"]["jobs"]["median_s"], 0.02)

        # without a job kernel: the best raw time on each entry, averaged
        calib["jobs"] = None
        metrics, _ = run.end_to_end(Dummy(), rounds, setup, calib, run.Tally())
        self.assertEqual(metrics["main_job_s"][0], 40.0)  # (20 + 40) / 2 + (5 + 15) / 2
        self.assertEqual(metrics["other_jobs_s"][0], 5.0)  # (2.5 + 7.5) / 2
        self.assertEqual(metrics["setup_s"][0], 4.0)

    def test_calibrated_ratio(self):
        passes = iter([0.5, 1.5])
        out, seconds, ratio = run.calibrated(lambda: 7, lambda: next(passes))
        self.assertEqual(out, 7)
        self.assertEqual(ratio, seconds)  # divided by the mean pass, 1.0
        out, _, ratio = run.calibrated(lambda: 1 / 0, None)
        self.assertIsInstance(out, ZeroDivisionError)
        self.assertIsNone(ratio)

    def test_calibration_kernels_run(self):
        for kind in harness.Calibration.REFERENCE_S:
            calib = harness.Calibration(kind)
            self.assertGreater(calib(), 0.0)
            self.assertEqual(len(calib.times), 1)
        for cls in workloads.WORKLOADS.values():
            self.assertIn(cls.calibration, (None, *harness.Calibration.REFERENCE_S))

    def test_per_layer_metrics_match_spec(self):
        class Dummy:
            name = "montecarlo"

        rec = harness.Recorder(layers.COUNTERS)
        rec.set_run("round0")
        sid = rec.open(rec.name_id("classical_sim.simulate"))
        rec.close(sid)
        rec.count("classical_sim.trials", 3)
        rec.count("classical_sim.trials", 4)
        for dim in (4, 8, 2):
            rec.count("linalg.max_dim", dim)
            rec.count("field_codes.theta_min", dim)
        tally = run.Tally()
        metrics, _ = run.per_layer(Dummy(), rec, [0.1], tally)
        out = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        harness.check_metric_names(self.spec, out, trace=True)
        self.assertEqual(metrics["classical_sim.simulate.calls"][0], 1)
        self.assertEqual(metrics["classical_sim.trials"][0], 7)  # summed
        self.assertEqual(metrics["linalg.max_dim"][0], 8)
        self.assertEqual(metrics["field_codes.theta_min"][0], 2)
        self.assertEqual((tally.attempted, tally.failed), (1, 0))
        self.assertEqual(list(layers.per_layer_units()), [m["name"] for m in self.spec["per_layer"]])

    def test_broken_bypass_is_a_failed_check(self):
        class Dummy:
            name = "montecarlo"

        rec = harness.Recorder(layers.COUNTERS)
        rec.set_run("round0")
        rec.close(rec.open(rec.name_id("linalg.partial_trace")))
        tally = run.Tally()
        run.per_layer(Dummy(), rec, [0.0], tally)
        self.assertEqual(tally.failed, 1)

    def test_mismatch_is_rejected(self):
        with self.assertRaises(ValueError):
            harness.check_metric_names(self.spec, {"wall_s": {"value": 1.0, "unit": "s"}}, trace=False)

    def test_workload_names_match_runner(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        json.dumps(self.spec)


if __name__ == "__main__":
    unittest.main()

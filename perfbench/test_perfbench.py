#!/usr/bin/env python3
"""Tests of the benchmark itself, on small versions of its workloads.

    python3 perfbench/test_perfbench.py

They build glocks_perfbench the way run.py does (into .bench_build/) and take
about a minute once it is built.
"""
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Each workload's shape (locks, sweep path, jobs), shrunk to run in well
# under a second per pass.
SMALL = {
    "paper_grid": dict(run.WORKLOADS["paper_grid"], workloads=["SCTR", "MCTR"],
                       cores=[8], scale=0.1),
    "glock_256": dict(run.WORKLOADS["glock_256"], workloads=["MCTR"],
                      cores=[64], scale=0.05),
    "sweep_mix": dict(run.WORKLOADS["sweep_mix"], workloads=["SCTR", "MCTR"],
                      cores=[4, 8], scale=0.05, jobs=2),
}
SECONDS = 0.3

# Per-layer metrics that are host times, or ratios of them; every other
# per-layer metric is a count and must repeat exactly.
TIMED = {name for name, unit in run.PER_LAYER.items() if unit == "s"} | {
    "trace.overhead_frac", "sim.ns_per_tick", "sim.ns_per_cycle",
    "exec.efficiency"}


def setUpModule():
    run.build()


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.spans = os.path.join(self.tmp.name, "spans.jsonl")

    def tearDown(self):
        self.tmp.cleanup()

    def main_output(self, workload, trace):
        """Runs run.main on a small grid; returns (stdout lines, result)."""
        saved = dict(run.WORKLOADS)
        run.WORKLOADS.update(SMALL)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                run.main(["--workload", workload, "--seconds", str(SECONDS),
                          "--trace", str(trace)])
        finally:
            run.WORKLOADS.clear()
            run.WORKLOADS.update(saved)
        lines = out.getvalue().splitlines()
        return lines, json.loads(lines[-1])

    def test_every_named_metric_is_emitted_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            for workload in SMALL:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = self.main_output(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        self.assertTrue(any(
                            line.split()[:1] == [name] and
                            line.split()[2] == m["unit"]
                            for line in lines[:-1]), name)
                    self.assertTrue(any(line.startswith("failed_frac ")
                                        for line in lines))
                    if workload == "paper_grid" and not trace:
                        self.assertTrue(any(line.startswith("fig08_err_pp ")
                                            for line in lines))

    def test_a_corrupted_reference_fails_its_point(self):
        for workload in ("paper_grid", "sweep_mix"):
            with self.subTest(workload=workload):
                raw = run.run_binary(SMALL[workload], 1, SECONDS, False,
                                     self.spans, ["--corrupt-point", "1"])
                # Point 1 fails in every pass; no other point does.
                self.assertEqual(raw["failed"], len(raw["passes"]))
                self.assertGreater(raw["attempted"], raw["failed"])
                p = raw["points"][1]
                name = "%s/%s/%dc/seed%d" % (p["workload"], p["lock"],
                                             p["cores"], p["seed"])
                for failure in raw["failures"]:
                    self.assertIn(name, failure)
                self.assertFalse(any(x["ok"] for x in raw["passes"]))

    def test_traced_runner_matches_run_workload(self):
        # glocks_perfbench compares every traced point's statistics and layer
        # counters with the untraced harness::run_workload pass.
        for workload in SMALL:
            with self.subTest(workload=workload):
                raw, _ = run.measure(SMALL[workload], 1, SECONDS, True,
                                     self.spans)
                self.assertEqual(raw["failed"], 0, raw["failures"])
                self.assertTrue(any(p["traced"] for p in raw["passes"]))
                self.assertTrue(raw["counts"])

    def test_per_layer_counts_repeat_exactly(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                runs = [run.measure(SMALL[workload], 7, SECONDS, True,
                                    self.spans)[1] for _ in range(2)]
                counts = [{k: v for k, v in m.items() if k not in TIMED}
                          for m in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["sim.ticks_executed"], 0)

    def test_span_self_times_account_for_the_traced_wall_time(self):
        raw, _ = run.measure(SMALL["paper_grid"], 1, SECONDS, True,
                             self.spans)
        with open(self.spans) as f:
            spans = [json.loads(line) for line in f]
        walls = [p["wall_s"] for p in raw["passes"] if p["traced"]]
        per_pass = run.span_self_times(spans)
        self.assertEqual(len(per_pass), len(walls))
        for (selfs, root, _), wall in zip(per_pass, walls):
            self.assertAlmostEqual(sum(selfs.values()), root, delta=1e-6)
            self.assertAlmostEqual(root, wall, delta=0.01 * wall + 1e-3)


if __name__ == "__main__":
    unittest.main()

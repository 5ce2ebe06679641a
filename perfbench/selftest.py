"""Self-tests of the benchmark harness (stdlib unittest, smoke-sized spaces).

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from coarselab import cli  # noqa: E402
from coarselab.graphs import MetricGraph  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_ops() -> list[workloads.Op]:
    return [op for name in workloads.WORKLOADS for op in workloads.ops(name, 0, smoke=True)]


def bindings() -> dict:
    """Every object the tracer may rebind: module attributes, the values of
    module-level dicts, and ``MetricGraph.tree_metric``."""
    seen = {}
    for m in layers.namespaces():
        for attr, obj in vars(m).items():
            seen[(m.__name__, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                for k, v in obj.items():
                    seen[(m.__name__, attr, k)] = v
    seen[("MetricGraph", "tree_metric")] = vars(MetricGraph)["tree_metric"]
    return seen


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
        for name in names + list(run.metric_units()):
            self.assertRegex(name, NAME)
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_spec_matches_the_harness(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, layers.UNITS)
        units = run.metric_units()
        for m in SPEC["end_to_end"]:
            self.assertEqual(units[m["name"]], m["unit"], m["name"])


class Tracing(unittest.TestCase):
    def test_traced_reports_match_and_self_times_sum_to_wall(self):
        ops = smoke_ops()
        plain = [worker.run_cli(cli.main, list(op.argv)) for op in ops]
        tracer = layers.make_tracer()
        tracer.install(layers.namespaces())
        try:
            traced = [tracer.run_op(lambda: worker.run_cli(cli.main, list(op.argv))) for op in ops]
        finally:
            tracer.uninstall()
        for op, (code, text, _), ((tcode, ttext, _), trace) in zip(ops, plain, traced):
            self.assertEqual(code, 0, op.key)
            self.assertEqual((tcode, ttext), (code, text), op.key)
            self_sum = sum(agg[2] for agg in trace["spans"].values())
            self.assertAlmostEqual(self_sum, trace["wall_s"], delta=1e-6, msg=op.key)
            self.assertGreater(len(trace["spans"]), 1, op.key)

    def test_no_wrapper_remains_installed(self):
        before = bindings()
        tracer = layers.make_tracer()
        tracer.install(layers.namespaces())
        try:
            during = bindings()
            changed = [k for k in before if during[k] is not before[k]]
            self.assertIn(("coarselab.cover", "set_diameter"), changed)
            self.assertIn(("coarselab.cli", "_GENERATORS", "farey"), changed)
            self.assertIn(("MetricGraph", "tree_metric"), changed)
            op = workloads.ops("cover-tree", 0, smoke=True)[0]
            tracer.run_op(lambda: worker.run_cli(cli.main, list(op.argv)))
        finally:
            tracer.uninstall()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if after[k] is not before[k]], [])

    def test_layer_metrics_see_every_layer(self):
        tracer = layers.make_tracer()
        tracer.install(layers.namespaces())
        try:
            traces = [tracer.run_op(lambda: worker.run_cli(cli.main, list(op.argv)))[1] for op in smoke_ops()]
        finally:
            tracer.uninstall()
        metrics = layers.layer_metrics(traces, 1)
        for name in ("spaces.build_s", "graphs.bfs_s", "graphs.set_diameter_s", "geodesics.thin_delta_s.tree",
                     "geodesics.propb_s.table", "cover.build_s", "a1.phi_s", "a1.dump_s", "probes.capacity_s",
                     "cli.self_s"):
            self.assertGreater(metrics[name], 0, name)


class Gate(unittest.TestCase):
    def test_corrupted_reference_digest_fails_ops(self):
        ops = workloads.ops("geodesic-survey", 0, smoke=True)
        refs = {ops[0].key: "0" * 64}
        record = run.run_workload(ROOT, "geodesic-survey", 0, 0.0, False, smoke=True, references=refs)
        self.assertEqual(record["failed"], 1)  # only the first pass samples at seed 0
        self.assertGreater(record["metrics"]["failed_share"], 0)

    def test_invariants_and_exit_codes(self):
        op = workloads.ops("cover-tree", 0, smoke=True)[0]
        good = {"code": 0, "stderr": "", "sha256": "a", "fields": {"diam_pass": "yes", "mult_pass": "yes", "a1_map_lines": "0"}}
        self.assertEqual(run.check_op(op, good, None, "a"), [])
        self.assertTrue(run.check_op(op, {**good, "code": 1}, None, None))
        self.assertTrue(run.check_op(op, {**good, "fields": {**good["fields"], "mult_pass": "no"}}, None, None))
        self.assertTrue(run.check_op(op, good, None, "b"))


class Smoke(unittest.TestCase):
    def test_smoke_runs_finish_in_seconds(self):
        for name in workloads.WORKLOADS:
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            self.assertEqual(out.returncode, 0, out.stderr)
            self.assertLess(time.perf_counter() - t0, 30, name)
            line = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"], out.stdout)
            self.assertEqual(set(line["metrics"]), {m["name"] for m in SPEC["per_layer"]})

    def test_refuses_a_tree_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-", dir=HERE) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".selftest-*"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cover-tree", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()

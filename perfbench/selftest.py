"""Self-test of the benchmark's own arithmetic and metric names.

Checks, without running the simulator:

* the self-time arithmetic of :mod:`spans` on a scripted clock: nested
  spans, the telescoping identity, the cost split and its scaling;
* that ``BENCHMARK.json`` follows the metric-name grammar and limits;
* that ``run.py`` reports exactly the metrics ``BENCHMARK.json`` names,
  with the same units, and scales timings for host contention.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import SpanCost, SpanRecorder, SpanTotals, split_self_time  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")


class ScriptedClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


class SelfTimeArithmetic(unittest.TestCase):
    def setUp(self) -> None:
        clock = self.clock = ScriptedClock()
        rec = self.rec = SpanRecorder(clock)
        self.leaf = rec.wrap(lambda: clock.spend(5), "memory", "leaf")

        def middle():
            clock.spend(10)
            self.leaf()
            self.leaf()
            clock.spend(1)

        self.middle = rec.wrap(middle, "kvmsr", "middle")

        def top():
            clock.spend(100)
            self.middle()
            self.leaf()

        self.top = rec.wrap(top, "simulator", "top")

    def run_job(self) -> int:
        start = self.clock()
        self.clock.spend(7)  # outside every span
        self.top()
        self.top()
        return self.clock() - start

    def test_self_time_is_duration_minus_children(self) -> None:
        job = self.run_job()
        b = self.rec.boundaries
        self.assertEqual(b["leaf"].self_ns, 6 * 5)
        self.assertEqual(b["middle"].self_ns, 2 * 11)
        self.assertEqual(b["top"].self_ns, 2 * 100)
        self.assertEqual(b["leaf"].calls, 6)
        self.assertEqual(b["top"].children, 4)
        self.assertEqual(b["middle"].children, 4)
        totals = self.rec.snapshot(("simulator", "kvmsr", "memory", "apps"), SpanCost(0, 0))
        self.assertEqual(totals.root_ns, job - 7)
        parts = split_self_time(job, totals)
        self.assertEqual(parts["apps"], 0.0)
        self.assertAlmostEqual(parts["unattributed"], 7e-9)
        self.assertAlmostEqual(sum(parts.values()), job / 1e9)

    def test_cost_comes_out_of_layers_and_sums(self) -> None:
        job = self.run_job()
        totals = self.rec.snapshot(("simulator", "kvmsr", "memory"), SpanCost(1, 2))
        # memory: 6 spans x 1 inside; kvmsr: 2 x 1 inside + 4 children x 2
        self.assertEqual(totals.est_cost_ns["memory"], 6)
        self.assertEqual(totals.est_cost_ns["kvmsr"], 2 + 8)
        self.assertEqual(totals.est_cost_ns["simulator"], 2 + 8)
        self.assertEqual(totals.top_cost_ns, 2 * 2)
        parts = split_self_time(job, totals)
        self.assertAlmostEqual(parts["memory"], 24e-9)
        self.assertAlmostEqual(parts["trace_cost"], 30e-9)
        self.assertAlmostEqual(sum(parts.values()), job / 1e9)
        # a measured cost twice the estimate doubles every share of it
        parts = split_self_time(job, totals, measured_cost_ns=60)
        self.assertAlmostEqual(parts["memory"], 18e-9)
        self.assertAlmostEqual(parts["trace_cost"], 60e-9)
        self.assertAlmostEqual(sum(parts.values()), job / 1e9)

    def test_cost_never_takes_a_part_below_zero(self) -> None:
        totals = SpanTotals({"a": 10, "b": 0}, {"a": 50.0, "b": 5.0}, 10, 5.0)
        parts = split_self_time(12, totals)
        self.assertEqual(parts["a"], 0.0)
        self.assertEqual(parts["b"], 0.0)
        self.assertAlmostEqual(parts["unattributed"], 0.0)
        self.assertAlmostEqual(sum(parts.values()), 12e-9)

    def test_unbalanced_totals_are_refused(self) -> None:
        totals = SpanTotals({"a": 10}, {"a": 0.0}, 11, 0.0)
        with self.assertRaises(ArithmeticError):
            split_self_time(20, totals)

    def test_exception_closes_its_span(self) -> None:
        def boom():
            self.clock.spend(3)
            raise KeyError("x")

        wrapped = self.rec.wrap(boom, "apps", "boom")
        with self.assertRaises(KeyError):
            wrapped()
        self.assertEqual(self.rec.open_spans, 0)
        self.assertEqual(self.rec.boundaries["boom"].self_ns, 3)

    def test_patch_and_uninstall_restore_the_original(self) -> None:
        class Box:
            def get(self):
                return 1

        original = Box.__dict__["get"]
        self.rec.patch(Box, "get", "apps")
        self.assertIsNot(Box.__dict__["get"], original)
        self.assertEqual(Box().get(), 1)
        self.rec.uninstall()
        self.assertIs(Box.__dict__["get"], original)


class BenchmarkFile(unittest.TestCase):
    def setUp(self) -> None:
        self.text = BENCHMARK.read_text()
        self.bench = json.loads(self.text)

    def test_grammar_and_limits(self) -> None:
        b = self.bench
        self.assertEqual(
            set(b),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertTrue(PATH.fullmatch(p), p)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            names.append(m["name"])
        for n in names:
            self.assertTrue(NAME.fullmatch(n), n)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in b["end_to_end"])
        )

    def test_workloads_match_the_program(self) -> None:
        from workloads import SPECS

        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(SPECS))

    def test_reported_metrics_match_the_file(self) -> None:
        from layers import LAYERS
        from probe import REFERENCE_UNIT_NS as REF, Window

        class Outcome:
            events_executed = 100
            completed = 1

        def rep(net_cpu_ns, slowdown):
            # ten probe units ran inside the job, slowed by `slowdown`
            unit = int(REF * slowdown)
            probe = Window([(unit, unit)] * 10)
            return {
                "outcome": Outcome(),
                "job_cpu_ns": net_cpu_ns + probe.cpu_ns,
                "job_wall_s": (net_cpu_ns + probe.wall_ns) / 1e9,
                "setup_s": 0.001,
                "setup_graph_s": 0.0004,
                "setup_runtime_s": 0.0003,
                "setup_app_s": 0.0003,
                "setup_probe": Window([]),
                "job_probe": probe,
            }

        # the second repetition ran while the host was twice as slow
        untraced = [rep(2_000_000, 1.0), rep(4_000_000, 2.0)]
        traced = rep(6_000_000, 2.0)
        raw = {layer: 0 for layer in LAYERS}
        raw["simulator"] = traced["job_cpu_ns"] - 1_000_000
        traced["spans"] = SpanTotals(
            raw, {layer: 0.0 for layer in LAYERS}, raw["simulator"], 0.0
        )
        for m in self.bench["per_layer"]:
            traced.setdefault(m["name"], 1)
        run.normalize(untraced + [traced])
        for r in untraced:
            self.assertAlmostEqual(r["cpu_s"], 0.002)
            self.assertAlmostEqual(r["wall_s"], 0.002)
        self.assertAlmostEqual(untraced[1]["normalized_setup_s"], 0.0005)

        e2e = run.end_to_end(untraced)
        self.assertEqual(
            {k: u for k, (_v, u) in e2e.items()},
            {m["name"]: m["unit"] for m in self.bench["end_to_end"]},
        )
        self.assertAlmostEqual(e2e["events_per_cpu_s"][0], 100 / 0.002)
        per_layer = run.layer_metrics(untraced, [traced])
        self.assertEqual(
            {k: u for k, (_v, u) in per_layer.items()},
            {m["name"]: m["unit"] for m in self.bench["per_layer"]},
        )
        self.assertAlmostEqual(per_layer["trace.overhead_frac"][0], 0.5)
        self.assertAlmostEqual(per_layer["host.slowdown_ratio"][0], 2.0)
        self.assertAlmostEqual(per_layer["host.raw_job_cpu_s"][0], 0.003)
        # the layer parts sum to the traced job's normalized CPU
        parts = [
            per_layer[f"{name}.self_cpu_s"][0]
            for name in ("simulator", "udweave", "kvmsr", "memory", "network",
                         "observe", "service.harness", "apps")
        ]
        total = sum(parts) + per_layer["unattributed_cpu_s"][0]
        total += per_layer["trace.cost_cpu_s"][0]
        self.assertAlmostEqual(total, 0.003)


if __name__ == "__main__":
    run._import_program()
    unittest.main()

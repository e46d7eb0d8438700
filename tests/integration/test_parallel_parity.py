"""Bit-identical parity of conservative sharded runs vs sequential.

The hard guarantee of ``repro.machine.parallel``: a sharded run
(``shards=N``) produces *exactly* the sequential results: the same scalar
fingerprint (all always-on counters including ``final_tick``), the same
host mailbox in the same order, the same functional outputs, and (when
recording) the same flight-recorder telemetry and Chrome trace.

Sits alongside ``test_determinism_parity.py``: that file pins run-to-run
and observation-tier determinism; this one pins shard-count independence.
"""

import json

import pytest

from repro.apps import BFSApp, PageRankApp
from repro.graph import rmat
from repro.harness import bench_config
from repro.udweave import UpDownRuntime

GRAPH = rmat(8, seed=7)
BLOCK = 4096
NODES = 4


def _mailbox(rt):
    """Host inbox as comparable values (delivery time, label, operands)."""
    return [(t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox]


def _run_pr(shards=1, record=None):
    from repro.observe import make_recorder

    rt = UpDownRuntime(
        bench_config(NODES), shards=shards, recorder=make_recorder(record)
    )
    app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    res = app.run(iterations=2, max_events=10_000_000)
    return rt, res


def _run_bfs(shards=1):
    rt = UpDownRuntime(bench_config(NODES), shards=shards)
    app = BFSApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    res = app.run(root=0, max_events=10_000_000)
    return rt, res


class TestInProcessShards:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_pagerank_fingerprint_identical(self, shards):
        seq, seq_res = _run_pr()
        shd, shd_res = _run_pr(shards=shards)
        assert (
            shd.sim.stats.scalar_snapshot() == seq.sim.stats.scalar_snapshot()
        )
        assert _mailbox(shd) == _mailbox(seq)
        # functional output too, not just timing
        assert list(shd_res.ranks) == list(seq_res.ranks)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_bfs_fingerprint_identical(self, shards):
        seq, seq_res = _run_bfs()
        shd, shd_res = _run_bfs(shards=shards)
        assert (
            shd.sim.stats.scalar_snapshot() == seq.sim.stats.scalar_snapshot()
        )
        assert _mailbox(shd) == _mailbox(seq)
        assert list(shd_res.parents) == list(seq_res.parents)


class TestShardedFeatureMatrix:
    """Sharded parity across the machine-model feature matrix: batched
    dispatch and injected faults with reliable delivery (fault-delayed
    ``rdt`` records crossing shards) must each stay bit-exact."""

    def _run(self, shards, batch_dispatch=False, faulty=False):
        from repro.faults import FaultPlan

        rt = UpDownRuntime(
            bench_config(NODES, batch_dispatch=batch_dispatch),
            faults=FaultPlan(seed=11, drop_rate=0.01) if faulty else None,
            reliable=faulty,
            shards=shards,
        )
        app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
        res = app.run(iterations=2, max_events=10_000_000)
        return rt.sim.stats.scalar_snapshot(), list(res.ranks)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(batch_dispatch=True),
            dict(faulty=True),
            dict(batch_dispatch=True, faulty=True),
        ],
        ids=["batch_dispatch", "faulted", "all_on"],
    )
    def test_feature_matrix_fingerprint_identical(self, knobs):
        seq_fp, seq_ranks = self._run(shards=1, **knobs)
        shd_fp, shd_ranks = self._run(shards=2, **knobs)
        assert shd_fp == seq_fp
        assert shd_ranks == seq_ranks


class TestRecordedShardedRun:
    """``record=`` under sharding: the one recorder the caller holds sees
    exactly the sequential telemetry, and it exports as one Chrome
    trace."""

    def test_recorder_exports_the_sequential_trace(self, tmp_path):
        from repro.observe.trace import chrome_trace

        seq, _ = _run_pr(record="full")
        shd, _ = _run_pr(shards=2, record="full")
        assert shd.recorder is shd.sim.recorder
        seq_trace = chrome_trace(seq.recorder, seq.config.clock_hz, {})
        shd_trace = chrome_trace(shd.recorder, shd.config.clock_hz, {})
        out = tmp_path / "sharded.trace.json"
        out.write_text(json.dumps(shd_trace))
        assert json.loads(out.read_text())["traceEvents"]
        # channel telemetry is deterministic (samples are taken at
        # channel-admission points, which parity fixes), so the sharded
        # trace holds exactly the sequential events — order-insensitive,
        # because shards emit window by window while the sequential run
        # emits in global pop order (Chrome's JSON is order-independent)
        def canon(trace):
            return sorted(
                json.dumps(e, sort_keys=True) for e in trace["traceEvents"]
            )

        assert canon(shd_trace) == canon(seq_trace)

    def test_histogram_tier_matches_sequential(self):
        seq, _ = _run_pr(record="histograms")
        shd, _ = _run_pr(shards=2, record="histograms")
        for node, stats in seq.recorder.inj_by_node.items():
            sharded = shd.recorder.inj_by_node[node]
            assert sharded.admits == stats.admits
            assert sharded.bytes == stats.bytes
            assert sharded.wait_sum == stats.wait_sum
        for kind, hist in seq.recorder.msg_latency.items():
            assert shd.recorder.msg_latency[kind].count == hist.count
        assert shd.recorder.inj_wait.count == seq.recorder.inj_wait.count


class TestMultiDrainSharded:
    """Apps that call run() more than once, set up device state between
    phases, and read results through shared payload objects — the full
    AGILE workflow.  Shards share the host's Python heap, so every
    phase-boundary idiom works and parity must hold end to end.
    """

    def test_workflow_parity_across_phases(self):
        from repro.apps import Pattern, make_workload
        from repro.workflows import WF2Workflow

        def run(shards=1):
            wf = WF2Workflow(
                bench_config(2),
                [Pattern(0, (0, 1))],
                seeds=[0, 1],
                hops=2,
                shards=shards,
            )
            return wf.run(
                make_workload(60, n_edge_types=2, seed=3), gap_cycles=500.0
            )

        seq = run()
        shd = run(shards=2)
        assert shd.records == seq.records
        assert shd.alerts == seq.alerts
        assert shd.reached == seq.reached
        assert shd.phase_seconds == seq.phase_seconds


"""Golden determinism parity for the hot-path overhaul.

The DES core guarantees bit-exact reproducibility: same program, same
seeds → identical final tick, identical scalar counters, identical host
mailbox.  These tests pin that guarantee across the two axes the
interned-label/pooled-context rework could plausibly have broken:

* run-to-run (two fresh machines, same inputs);
* ``detailed_stats`` on vs off (the histogram tier must be observation
  only — collecting it cannot perturb the simulation).
"""

import pytest

from repro.apps import BFSApp, PageRankApp, Pattern, make_workload
from repro.graph import rmat
from repro.harness import bench_config
from repro.udweave import UpDownRuntime
from repro.workflows import WF2Workflow
from tests.fingerprint import mailbox

GRAPH = rmat(8, seed=7)
BLOCK = 4096


def _run_pr(detailed=False):
    rt = UpDownRuntime(bench_config(4), detailed_stats=detailed)
    app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    app.run(iterations=2, max_events=10_000_000)
    return rt


def _run_bfs(detailed=False):
    rt = UpDownRuntime(bench_config(4), detailed_stats=detailed)
    app = BFSApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    app.run(root=0, max_events=10_000_000)
    return rt


def _run_wf2():
    wf = WF2Workflow(
        bench_config(2), [Pattern(0, (0, 1))], seeds=[0, 1], hops=2
    )
    return wf.run(make_workload(60, n_edge_types=2, seed=3), gap_cycles=500.0)


class TestRunToRun:
    @pytest.mark.parametrize("runner", [_run_pr, _run_bfs])
    def test_identical_twice(self, runner):
        a, b = runner(), runner()
        assert a.sim.stats.scalar_snapshot() == b.sim.stats.scalar_snapshot()
        assert mailbox(a) == mailbox(b)

    def test_wf2_identical_twice(self):
        a, b = _run_wf2(), _run_wf2()
        assert a.records == b.records
        assert a.alerts == b.alerts
        assert a.reached == b.reached
        assert a.phase_seconds == b.phase_seconds


class TestStatsTierParity:
    """detailed_stats only adds observations — it must not change the run."""

    @pytest.mark.parametrize("runner", [_run_pr, _run_bfs])
    def test_scalars_and_mailbox_unaffected(self, runner):
        off, on = runner(detailed=False), runner(detailed=True)
        assert (
            off.sim.stats.scalar_snapshot() == on.sim.stats.scalar_snapshot()
        )
        assert off.sim.stats.final_tick == on.sim.stats.final_tick
        assert mailbox(off) == mailbox(on)

    def test_histogram_only_collected_when_on(self):
        off, on = _run_pr(detailed=False), _run_pr(detailed=True)
        assert not off.sim.stats.events_by_label
        assert on.sim.stats.events_by_label
        # the histogram tier agrees with the always-on scalar tier
        assert (
            sum(on.sim.stats.events_by_label.values())
            == on.sim.stats.events_executed
        )

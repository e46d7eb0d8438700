"""Generated cross-mode differential test: every mode equals the plain drain.

The simulator's correctness contract is that the opt-in execution knobs
change how the host reaches a result, never the result.  Hypothesis
draws a workload (PageRank or BFS on a small RMAT graph), a node count,
``batch_dispatch`` on or off, a flight-recorder tier, and a bounded
``run(until=)`` chunking schedule, then checks the run against the plain
sequential drain of the same workload: the scalar fingerprint (minus the
batch-only counters), the host mailbox and the application output must
all be bit-identical.

``derandomize=True`` keeps the drawn cases fixed from run to run, so the
suite stays deterministic.  The explicit examples pin the one interaction
with real state across a bound: batched PageRank reduce records parked
when a ``run(until=)`` window closes.
"""

from functools import lru_cache

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps import BFSApp, PageRankApp
from repro.graph import rmat
from repro.harness import bench_config
from repro.observe import make_recorder
from repro.udweave import UpDownRuntime
from tests.fingerprint import mailbox, strip

BLOCK = 4096


@lru_cache(maxsize=None)
def _graph(scale, seed):
    return rmat(scale, seed=seed)


def _step_through(sim, gaps):
    """Make every ``sim.run()`` step through ``gaps`` before draining.

    Each call executes a bounded ``run(until=)`` per gap, measured from
    the simulator's current tick, then finishes with an unbounded drain.
    """
    run = sim.run

    def stepped(max_events=None):
        t = sim.now
        for gap in gaps:
            t += gap
            run(max_events=max_events, until=t)
        return run(max_events=max_events)

    sim.run = stepped


def _run(app, scale, seed, nodes, batch=False, record=None, gaps=()):
    rt = UpDownRuntime(
        bench_config(nodes, batch_dispatch=batch),
        recorder=make_recorder(record),
    )
    if gaps:
        _step_through(rt.sim, gaps)
    graph = _graph(scale, seed)
    if app == "pagerank":
        res = PageRankApp(rt, graph, max_degree=16, block_size=BLOCK).run(
            iterations=2
        )
        output = list(res.ranks)
    else:
        res = BFSApp(rt, graph, max_degree=16, block_size=BLOCK).run(root=0)
        output = (list(res.distances), list(res.parents))
    return strip(rt.sim.stats.scalar_snapshot()), mailbox(rt), output


@lru_cache(maxsize=None)
def _plain(app, scale, seed, nodes):
    return _run(app, scale, seed, nodes)


@settings(
    max_examples=24,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    app=st.sampled_from(["pagerank", "bfs"]),
    scale=st.integers(5, 7),
    seed=st.integers(0, 2**16),
    nodes=st.integers(2, 6),
    batch=st.booleans(),
    record=st.sampled_from([None, "phases", "histograms"]),
    gaps=st.lists(st.floats(10.0, 5_000.0), max_size=8),
)
@example("pagerank", 7, 3, 4, True, None, [1_000.0] * 8)
@example("pagerank", 6, 11, 3, True, "phases", [2_500.0] * 4)
def test_every_mode_matches_the_plain_drain(
    app, scale, seed, nodes, batch, record, gaps
):
    snapshot, inbox, output = _run(
        app, scale, seed, nodes, batch=batch, record=record, gaps=gaps
    )
    plain_snapshot, plain_inbox, plain_output = _plain(app, scale, seed, nodes)
    assert snapshot == plain_snapshot
    assert inbox == plain_inbox
    assert output == plain_output

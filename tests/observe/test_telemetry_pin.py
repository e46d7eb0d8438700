"""Recorded channel and message telemetry of a small soak, pinned.

``ServiceResult.fingerprint()`` covers simulated results only, so a
recorder hook that reorders a float add or drops a histogram sample would
pass every other test.  These values were captured before the recorder's
channel hooks were flattened; any change to them is a telemetry change.
"""

from repro.harness.runner import bench_config
from repro.observe import make_recorder
from repro.service import (
    DEFAULT_PATTERNS,
    PoissonArrivals,
    SLOSpec,
    ServiceApp,
    ServiceHarness,
    ServiceWorkload,
)
from repro.udweave import UpDownRuntime

#: node -> (admits, bytes, wait_sum, occupancy_sum, wait_max, wait_hist)
INJ = {
    0: (792, 50688, 698.6821752006099, 6488.064000000005,
        16.552219911594875, {0: 693, 1: 10, 2: 13, 3: 40, 4: 35, 5: 1}),
    1: (523, 37904, 2085.7524639375224, 4851.711999999997,
        42.15199999999459, {0: 334, 1: 6, 2: 10, 3: 38, 4: 123, 5: 9, 6: 3}),
    2: (521, 37920, 1783.0416933291663, 4853.7599999999975,
        19.38399999999092, {0: 344, 1: 4, 2: 8, 3: 41, 4: 123, 5: 1}),
    3: (550, 41072, 1978.2927952343061, 5257.215999999997,
        27.23759250693547, {0: 354, 1: 11, 2: 18, 3: 32, 4: 131, 5: 4}),
}
DRAM = {
    0: (458, 19664, 44.93376952048857, 2692.0306382978797,
        9.563121003462584, {0: 451, 2: 1, 3: 4, 4: 2}),
}

#: (buckets, count, total, max)
INJ_WAIT = ({0: 1725, 1: 31, 2: 49, 3: 151, 4: 412, 5: 15, 6: 3},
            2386, 6545.769127701605, 42.15199999999459)
DRAM_WAIT = ({0: 451, 2: 1, 3: 4, 4: 2}, 458, 44.93376952048857,
             9.563121003462584)
MSG_LATENCY = {
    "local": ({7: 625}, 625, 62500.0, 100.0),
    "remote": ({10: 1666, 11: 18}, 1684, 1704280.8514653286,
               1050.3439999999937),
    "host_injected": ({}, 0, 0.0, 0.0),
    "host_bound": ({0: 532}, 532, 0.0, 0.0),
}

FINGERPRINT = "eacddd91148fca8c389c9228cf78faf90a7524621bf4175832afc430025ef4c8"


def _hist(h):
    return (h.buckets, h.count, h.total, h.max)


def _channels(by_node):
    return {
        node: (c.admits, c.bytes, c.wait_sum, c.occupancy_sum, c.wait_max,
               c.wait_hist.buckets)
        for node, c in by_node.items()
    }


def test_recorded_soak_telemetry_is_pinned():
    reqs = ServiceWorkload(seed=3, n_vertices=128).requests(
        PoissonArrivals(400.0, seed=3).times(500)
    )
    rt = UpDownRuntime(bench_config(4), recorder=make_recorder("histograms"))
    result = ServiceHarness(ServiceApp(rt, patterns=DEFAULT_PATTERNS)).run(
        reqs, slo=SLOSpec()
    )
    assert result.status_counts["ok"] == 500
    assert result.fingerprint() == FINGERPRINT

    rec = rt.recorder
    assert _channels(rec.inj_by_node) == INJ
    assert _channels(rec.dram_by_node) == DRAM
    assert _hist(rec.inj_wait) == INJ_WAIT
    assert _hist(rec.dram_wait) == DRAM_WAIT
    assert {k: _hist(h) for k, h in rec.msg_latency.items()} == MSG_LATENCY

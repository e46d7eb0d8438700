"""Admission control: the bounded queue-wait gate at the injection port."""

import pytest

from repro.harness import run_service
from repro.service import (
    AdmissionControl,
    Request,
    SLOSpec,
    ServiceWorkload,
    SteadyArrivals,
)


class _FakeNetwork:
    def __init__(self, backlog):
        self._backlog = backlog

    def injection_backlog(self, node, t):
        return self._backlog


class _FakeSim:
    def __init__(self, backlog):
        self.network = _FakeNetwork(backlog)


class TestDecide:
    def test_under_threshold_admits_at_arrival(self):
        adm = AdmissionControl(max_queue_wait_cycles=100.0)
        verdict, t = adm.decide(_FakeSim(backlog=50.0), 0, 10.0)
        assert (verdict, t) == ("admit", 10.0)
        assert adm.requests_admitted == 1

    def test_over_threshold_sheds_by_default(self):
        adm = AdmissionControl(max_queue_wait_cycles=100.0)
        verdict, _ = adm.decide(_FakeSim(backlog=250.0), 0, 10.0)
        assert verdict == "shed"
        assert adm.requests_shed == 1

    def test_defer_delays_until_backlog_drains(self):
        adm = AdmissionControl(max_queue_wait_cycles=100.0, policy="defer")
        verdict, t = adm.decide(_FakeSim(backlog=250.0), 0, 10.0)
        assert verdict == "defer"
        assert t == 10.0 + (250.0 - 100.0)
        assert adm.requests_deferred == 1
        assert adm.defer_cycles_total == 150.0

    def test_defer_bound_sheds_past_it(self):
        adm = AdmissionControl(
            max_queue_wait_cycles=100.0, policy="defer", max_defer_cycles=50.0
        )
        verdict, _ = adm.decide(_FakeSim(backlog=250.0), 0, 10.0)
        assert verdict == "shed"

    def test_default_admits_everything(self):
        adm = AdmissionControl()
        verdict, _ = adm.decide(_FakeSim(backlog=1e12), 0, 0.0)
        assert verdict == "admit"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionControl(policy="drop")
        with pytest.raises(ValueError):
            AdmissionControl(max_queue_wait_cycles=-1.0)


def _hot_node_flood():
    """Every request enters lane 0 — one node takes the whole stream."""
    wl = ServiceWorkload(seed=5, n_vertices=16)
    base = wl.requests(SteadyArrivals(gap_cycles=120.0).times(60))
    return [
        Request(r.req_id * 4, r.cls, r.t_arrival, r.deadline_cycles, r.payload)
        for r in base
    ]


class TestUnderLoad:
    # shrink injection bandwidth so the hot node's channel really queues
    BW = dict(node_injection_bytes_per_cycle=0.1)

    def test_shed_counts_and_statuses(self):
        adm = AdmissionControl(max_queue_wait_cycles=64.0, policy="shed")
        rec = run_service(
            _hot_node_flood(), nodes=2, admission=adm, slo=SLOSpec(), **self.BW
        )
        svc = rec.extra["service"]
        assert svc.admission.requests_shed > 0
        assert svc.status_counts["shed"] == svc.admission.requests_shed
        # everything admitted still completed — shedding protected the node
        assert svc.status_counts["lost"] == 0
        # and the shed fraction is big enough to fail the default SLO
        assert not svc.verdict.passed
        assert any("shed" in v for v in svc.verdict.violations)

    def test_defer_admits_more_than_shed(self):
        shed = AdmissionControl(max_queue_wait_cycles=64.0, policy="shed")
        defer = AdmissionControl(max_queue_wait_cycles=64.0, policy="defer")
        reqs = _hot_node_flood()
        a = run_service(reqs, nodes=2, admission=shed, **self.BW)
        b = run_service(reqs, nodes=2, admission=defer, **self.BW)
        sa, sb = a.extra["service"], b.extra["service"]
        assert sb.admission.requests_deferred > 0
        assert sb.admission.requests_shed < sa.admission.requests_shed
        assert sb.status_counts["lost"] == 0

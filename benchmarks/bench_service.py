"""Always-on service benchmark: QPS-vs-p99 curves and chaos-soak verdicts.

Three scenarios, all bit-reproducible from their seeds:

* ``steady`` — an offered-load sweep (one request every ``gap`` cycles)
  against a machine with a constrained injection port, tracing the
  QPS-vs-p99 curve per request class from the flat region through the
  queueing knee;
* ``bursty`` — on/off traffic whose idle gaps dwarf the liveness
  watchdog, proving intentional idleness is not a stall;
* ``chaos_soak`` — steady traffic under a deterministic 1% message-drop
  plan with ack/retry delivery, ending in a machine-checkable SLO
  verdict (the healthy scenarios must pass theirs too).

Each scenario also reruns its representative configuration with the same
seed and records whether the result fingerprint
(latency histograms, per-request statuses, admission counters, give-up
set) is identical — a ``false`` there is a determinism regression, not a
performance data point.

Results land in ``BENCH_service.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

#: model clock (2 GHz) — converts arrival gaps to offered QPS.
CLOCK_HZ = 2e9

WORKLOAD_SEED = 21
NODES = 4

#: steady sweep: injection bandwidth scaled down so the offered-load
#: sweep actually crosses the queueing knee on the tiny bench machine.
STEADY_BW = 0.3
STEADY_GAPS_FULL = (1600.0, 800.0, 400.0, 200.0, 100.0, 50.0)
STEADY_GAPS_QUICK = (800.0, 200.0)


def _hist_dict(svc):
    return {
        cls: {
            "buckets": {str(k): v for k, v in sorted(h.buckets.items())},
            "count": h.count,
            "p50_cycles": h.quantile_bound(0.5),
            "p99_cycles": h.quantile_bound(0.99),
            "max_cycles": h.max,
        }
        for cls, h in svc.latency_hist.items()
        if h.count
    }


def _entry(svc, wall):
    return {
        "statuses": dict(svc.status_counts),
        "admission": svc.admission.counters(),
        "transport_give_ups": svc.transport_give_ups,
        "fault_counts": dict(svc.fault_counts),
        "latency": _hist_dict(svc),
        "verdict": svc.verdict.to_dict(),
        "fingerprint": svc.fingerprint(),
        "host_seconds": wall,
    }


def _run(requests, slo, **kw):
    from repro.harness import run_service

    t0 = time.perf_counter()
    rec = run_service(requests, nodes=NODES, slo=slo, **kw)
    return rec.extra["service"], time.perf_counter() - t0


def _reproduce(requests, slo, base, **kw):
    """Same-seed rerun; compare against ``base``."""
    rerun, _ = _run(requests, slo, **kw)
    return {
        "rerun_identical": rerun.fingerprint() == base.fingerprint(),
        "verdict_identical": (
            rerun.verdict.to_dict() == base.verdict.to_dict()
        ),
    }


def bench_steady(n_requests, gaps):
    from repro.service import SLOSpec, ServiceWorkload, SteadyArrivals

    wl = ServiceWorkload(seed=WORKLOAD_SEED, n_vertices=64)
    slo = SLOSpec()
    curve = []
    last = None
    for gap in gaps:
        reqs = wl.requests(SteadyArrivals(gap_cycles=gap).times(n_requests))
        svc, wall = _run(
            reqs, slo, node_injection_bytes_per_cycle=STEADY_BW
        )
        point = _entry(svc, wall)
        point["gap_cycles"] = gap
        point["offered_qps"] = CLOCK_HZ / gap
        curve.append(point)
        last = (reqs, svc)
    reqs, svc = last
    return {
        "scenario": "steady",
        "nodes": NODES,
        "injection_bytes_per_cycle": STEADY_BW,
        "curve": curve,
        "reproducibility": _reproduce(
            reqs, slo, svc, node_injection_bytes_per_cycle=STEADY_BW
        ),
    }


def bench_bursty(n_requests):
    from repro.service import BurstyArrivals, SLOSpec, ServiceWorkload

    wl = ServiceWorkload(seed=WORKLOAD_SEED, n_vertices=64)
    slo = SLOSpec()
    arr = BurstyArrivals(
        burst_size=16, gap_cycles=250.0, idle_gap_cycles=60_000.0
    )
    reqs = wl.requests(arr.times(n_requests))
    kw = dict(watchdog_cycles=30_000.0)
    svc, wall = _run(reqs, slo, **kw)
    out = _entry(svc, wall)
    out.update(
        scenario="bursty",
        nodes=NODES,
        burst_size=16,
        idle_gap_cycles=60_000.0,
        watchdog_cycles=30_000.0,
        reproducibility=_reproduce(reqs, slo, svc, **kw),
    )
    return out


def bench_chaos(n_requests, drop_rate):
    from repro.faults import FaultPlan
    from repro.service import SLOSpec, ServiceWorkload, SteadyArrivals

    wl = ServiceWorkload(seed=WORKLOAD_SEED, n_vertices=64)
    slo = SLOSpec()
    reqs = wl.requests(SteadyArrivals(gap_cycles=2500.0).times(n_requests))
    kw = dict(
        faults=FaultPlan(seed=13, drop_rate=drop_rate),
        reliable=True,
        watchdog_cycles=100_000.0,
    )
    svc, wall = _run(reqs, slo, **kw)
    out = _entry(svc, wall)
    out.update(
        scenario="chaos_soak",
        nodes=NODES,
        drop_rate=drop_rate,
        reproducibility=_reproduce(reqs, slo, svc, **kw),
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized runs")
    parser.add_argument("--drop-rate", type=float, default=0.01)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    n = 80 if args.quick else 200
    gaps = STEADY_GAPS_QUICK if args.quick else STEADY_GAPS_FULL

    scenarios = [
        bench_steady(n, gaps),
        bench_bursty(n),
        bench_chaos(n, args.drop_rate),
    ]

    failures = []
    for sc in scenarios:
        rep = sc["reproducibility"]
        for key, ok in rep.items():
            if not ok:
                failures.append(f"{sc['scenario']}: {key} is False")
    # healthy runs must pass their SLO: the low-load steady points, the
    # bursty soak, and the chaos soak (1% drops are recovered)
    if not scenarios[0]["curve"][0]["verdict"]["passed"]:
        failures.append("steady low-load point failed its SLO")
    for sc in scenarios[1:]:
        if not sc["verdict"]["passed"]:
            failures.append(f"{sc['scenario']} failed its SLO")
    chaos = scenarios[2]
    if chaos["fault_counts"].get("msg_drop", 0) == 0:
        failures.append("chaos soak dropped nothing — vacuous")

    payload = {
        "python": platform.python_version(),
        "quick": args.quick,
        "workload_seed": WORKLOAD_SEED,
        "requests_per_scenario": n,
        "scenarios": scenarios,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    for sc in scenarios:
        rep = sc["reproducibility"]
        if sc["scenario"] == "steady":
            knee = " -> ".join(
                f"{p['offered_qps']:.2e}qps:p99u={p['latency']['update']['p99_cycles']:.0f}"
                for p in sc["curve"]
            )
            print(f"steady: {knee}")
        else:
            v = sc["verdict"]
            print(
                f"{sc['scenario']}: passed={v['passed']} "
                f"statuses={sc['statuses']} give_ups={sc['transport_give_ups']}"
            )
        print(f"  reproducibility: {rep}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("bench_service OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CI smoke: resilient delivery survives injected drops bit-for-bit.

Runs one fixed seeded PageRank workload twice — fault-free, then under a
deterministic :class:`~repro.faults.FaultPlan` dropping ~1% of remote
messages with ack/retry (``reliable=True``) enabled — and asserts the
functional result (the rank vector, i.e. the KVMSR reduce output) is
bit-identical, that the plan actually dropped messages (a chaos run that
injects nothing proves nothing), and that the faulty run reached true
quiescence.  This is the cheap end-to-end version of
``tests/integration/test_chaos.py`` that CI runs on every push.

On failure the recorded fault timeline (the flight recorder's ``faults``
taxonomy: every drop/duplicate/delay/retransmit give-up with its
timestamp) is written next to the results so CI can upload it as an
artifact for triage.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py [--drop-rate 0.01]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TRACE = REPO_ROOT / "CHAOS_faults.json"


def chaos_graph(n: int = 256):
    """Ring-with-chords: every vertex points at i+1 and i+2 (mod n).

    Uniform out-degree 2 and a power-of-two vertex count keep every
    PageRank contribution (with damping 0.5) an exact binary fraction,
    so floating-point sums are order-invariant and retry-induced
    reordering cannot perturb the result — the golden comparison below
    is a legitimate bit-for-bit equality, not a tolerance check.
    """
    from repro.graph import CSRGraph

    return CSRGraph.from_edges(
        [(i, (i + 1) % n) for i in range(n)]
        + [(i, (i + 2) % n) for i in range(n)],
        n=n,
    )


def run_once(faults=None, reliable=False):
    from repro.apps.pagerank import PageRankApp
    from repro.harness.runner import BENCH_BLOCK_SIZE, bench_config
    from repro.observe import make_recorder
    from repro.udweave import UpDownRuntime

    recorder = make_recorder("phases")
    rt = UpDownRuntime(
        bench_config(4),
        faults=faults,
        reliable=reliable,
        recorder=recorder,
        watchdog_cycles=500_000.0,
    )
    app = PageRankApp(
        rt, chaos_graph(), max_degree=16, damping=0.5,
        block_size=BENCH_BLOCK_SIZE,
    )
    t0 = time.perf_counter()
    res = app.run(iterations=3)
    return {
        "ranks": list(res.ranks),
        "stats": rt.sim.stats,
        "recorder": recorder,
        "seconds": time.perf_counter() - t0,
    }


def write_fault_trace(path: Path, plan, run) -> None:
    """Dump the faults taxonomy the flight recorder collected."""
    recorder = run["recorder"]
    stats = run["stats"]
    path.write_text(json.dumps({
        "plan": plan.describe(),
        "fault_counts": dict(recorder.fault_counts),
        "fault_events": [
            {"kind": kind, "tick": tick, "detail": list(detail)}
            for kind, tick, detail in recorder.fault_events
        ],
        "fault_events_dropped": recorder.fault_events_dropped,
        "transport": {
            "tracked": stats.transport_tracked,
            "retransmits": stats.transport_retransmits,
            "acks": stats.transport_acks,
            "dup_suppressed": stats.transport_dup_suppressed,
            "give_ups": stats.transport_give_ups,
        },
    }, indent=2) + "\n")


def main(argv=None) -> int:
    from repro.faults import FaultPlan

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--drop-rate", type=float, default=0.01,
        help="remote-message drop probability for the chaos run",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="fault-plan seed"
    )
    parser.add_argument(
        "--trace", type=Path, default=DEFAULT_TRACE,
        help="where to write the fault timeline on failure",
    )
    args = parser.parse_args(argv)

    plan = FaultPlan(seed=args.seed, drop_rate=args.drop_rate)
    golden = run_once()
    chaos = run_once(faults=plan, reliable=True)
    stats = chaos["stats"]

    failures = []
    if stats.faults_messages_dropped == 0:
        failures.append(
            "the fault plan dropped nothing — the smoke is vacuous; "
            "raise --drop-rate or change --seed"
        )
    if not stats.quiesced:
        failures.append(
            f"chaos run did not quiesce: {stats.pending_threads} "
            f"thread(s) still pending"
        )
    if chaos["ranks"] != golden["ranks"]:
        diverged = sum(
            1 for a, b in zip(chaos["ranks"], golden["ranks"]) if a != b
        )
        failures.append(
            f"reduce results diverged from the fault-free golden: "
            f"{diverged}/{len(golden['ranks'])} rank entries differ"
        )
    if failures:
        write_fault_trace(args.trace, plan, chaos)
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"fault timeline written to {args.trace}")
        return 1
    print(
        f"chaos smoke OK: {stats.faults_messages_dropped} drops recovered "
        f"by {stats.transport_retransmits} retransmits "
        f"({stats.transport_tracked:,} tracked sends, "
        f"{stats.transport_give_ups} give-ups); reduce results bit-identical "
        f"to fault-free golden; fault-free {golden['seconds']:.2f}s, "
        f"chaos {chaos['seconds']:.2f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

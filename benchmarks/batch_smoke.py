"""CI smoke: batched label-homogeneous dispatch is bit-exact.

Runs one fixed seeded PageRank workload twice — batch off and on — and
asserts that every always-on scalar counter except the batch counters
themselves, the host mailbox, and the functional output are identical.  Batching replaces N
interpreter passes over same-label reduce records with one array pass;
each record still pays its own Table-2 lane cost, injection occupancy,
and float-accumulation order, so any drift here is a correctness bug,
not a tuning artifact.  The batch counters must also satisfy record
conservation: ``records_batched + events_interpreted ==
events_executed``.

Usage::

    PYTHONPATH=src python benchmarks/batch_smoke.py
"""

from __future__ import annotations

import argparse
import time

#: counters that partition differently when batching is on; stripped
#: before the cross-mode fingerprint comparison, then checked for
#: record conservation
BATCH_KEYS = ("batches_executed", "records_batched", "events_interpreted")


def run_once(batch: bool):
    from repro.apps.pagerank import PageRankApp
    from repro.graph.generators import rmat
    from repro.harness.runner import BENCH_BLOCK_SIZE, bench_config
    from repro.udweave import UpDownRuntime

    graph = rmat(9, seed=7)
    rt = UpDownRuntime(bench_config(4, batch_dispatch=batch))
    app = PageRankApp(rt, graph, block_size=BENCH_BLOCK_SIZE)
    t0 = time.perf_counter()
    res = app.run(iterations=2)
    seconds = time.perf_counter() - t0
    mailbox = [(t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox]
    snapshot = rt.sim.stats.scalar_snapshot()
    return {
        "fingerprint": {
            k: v for k, v in snapshot.items() if k not in BATCH_KEYS
        },
        "batch": {k: snapshot.get(k, 0) for k in BATCH_KEYS},
        "events_executed": snapshot["events_executed"],
        "mailbox": mailbox,
        "ranks": list(res.ranks),
        "seconds": seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)

    off = run_once(batch=False)
    on = run_once(batch=True)

    failures = []
    if on["fingerprint"] != off["fingerprint"]:
        diff = {
            k: (off["fingerprint"][k], on["fingerprint"][k])
            for k in off["fingerprint"]
            if off["fingerprint"][k] != on["fingerprint"].get(k)
        }
        failures.append(f"batch on: scalar fingerprint diverged: {diff}")
    if on["mailbox"] != off["mailbox"]:
        failures.append("batch on: host mailbox diverged")
    if on["ranks"] != off["ranks"]:
        failures.append("batch on: functional output (ranks) diverged")
    for name, run in (("batch off", off), ("batch on", on)):
        conserved = (
            run["batch"]["records_batched"]
            + run["batch"]["events_interpreted"]
        )
        if conserved != run["events_executed"]:
            failures.append(
                f"{name}: record conservation broken — "
                f"{run['batch']} vs events_executed="
                f"{run['events_executed']}"
            )
    if on["batch"]["records_batched"] == 0:
        failures.append("batching never fired — the smoke lost its subject")
    if off["batch"]["records_batched"] or off["batch"]["batches_executed"]:
        failures.append(
            f"batch off: batch path fired where it must be disabled — "
            f"{off['batch']}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    fp = off["fingerprint"]
    print(
        f"batch smoke OK: off / on bit-identical "
        f"({fp['events_executed']:,} events, final_tick={fp['final_tick']}); "
        f"{on['batch']['records_batched']:,} of "
        f"{on['events_executed']:,} records batched into "
        f"{on['batch']['batches_executed']:,} batches; "
        f"off {off['seconds']:.2f}s, on {on['seconds']:.2f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

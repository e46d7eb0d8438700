"""CI smoke: batched label-homogeneous dispatch is bit-exact.

Runs one fixed seeded PageRank workload four ways — batch off and on,
each under a sequential and a sharded drain — and asserts that every
always-on scalar counter except the batch counters themselves, the host
mailbox, and the functional output are identical.  Batching replaces N
interpreter passes over same-label reduce records with one array pass;
each record still pays its own Table-2 lane cost, injection occupancy,
and float-accumulation order, so any drift here is a correctness bug,
not a tuning artifact.  The batch counters must also satisfy record
conservation: ``records_batched + events_interpreted ==
events_executed``.

Sharded drains disarm the parking gate (records fall back to the
per-event interpreter), so the ``--shards`` runs double as proof that
``batch_dispatch=True`` is inert wherever the batch path cannot prove
itself safe.

Usage::

    PYTHONPATH=src python benchmarks/batch_smoke.py [--shards 2]
"""

from __future__ import annotations

import argparse
import time

#: counters that partition differently when batching is on; stripped
#: before the cross-mode fingerprint comparison, then checked for
#: record conservation
BATCH_KEYS = ("batches_executed", "records_batched", "events_interpreted")


def run_once(batch: bool, shards: int = 1):
    from repro.apps.pagerank import PageRankApp
    from repro.graph.generators import rmat
    from repro.harness.runner import BENCH_BLOCK_SIZE, bench_config
    from repro.udweave import UpDownRuntime

    graph = rmat(9, seed=7)
    rt = UpDownRuntime(
        bench_config(4, batch_dispatch=batch), shards=shards
    )
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
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for the batching-under-sharding runs",
    )
    args = parser.parse_args(argv)

    off = run_once(batch=False)
    on = run_once(batch=True)
    off_sharded = run_once(batch=False, shards=args.shards)
    on_sharded = run_once(batch=True, shards=args.shards)

    failures = []
    variants = (
        ("batch on", on),
        (f"batch off shards={args.shards}", off_sharded),
        (f"batch on shards={args.shards}", on_sharded),
    )
    for name, run in variants:
        if run["fingerprint"] != off["fingerprint"]:
            diff = {
                k: (off["fingerprint"][k], run["fingerprint"][k])
                for k in off["fingerprint"]
                if off["fingerprint"][k] != run["fingerprint"].get(k)
            }
            failures.append(f"{name}: scalar fingerprint diverged: {diff}")
        if run["mailbox"] != off["mailbox"]:
            failures.append(f"{name}: host mailbox diverged")
        if run["ranks"] != off["ranks"]:
            failures.append(f"{name}: functional output (ranks) diverged")
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
    for name, run in (
        ("batch off", off),
        (f"batch off shards={args.shards}", off_sharded),
        (f"batch on shards={args.shards}", on_sharded),
    ):
        if run["batch"]["records_batched"] or run["batch"]["batches_executed"]:
            failures.append(
                f"{name}: batch path fired where it must be disabled — "
                f"{run['batch']}"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    fp = off["fingerprint"]
    print(
        f"batch smoke OK: off / on x shards 1/{args.shards} bit-identical "
        f"({fp['events_executed']:,} events, final_tick={fp['final_tick']}); "
        f"{on['batch']['records_batched']:,} of "
        f"{on['events_executed']:,} records batched into "
        f"{on['batch']['batches_executed']:,} batches; "
        f"off {off['seconds']:.2f}s, on {on['seconds']:.2f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's three workloads: inputs, one job, its fingerprint.

Each workload builds its inputs from an *input seed* (see
:func:`input_seed`), sets up a fresh runtime and application on the
default paper-figure machine (``bench_config``: sequential drain,
``batch_dispatch``, ``coalescing`` and faults off), runs one job and
returns what the job produced.  Nothing here reads a clock: timing is
the caller's job, so the same code serves timed, traced and golden runs.
Everything is imported up front, so no repetition pays for an import.
Import this module only after ``src/`` is on the path
(``run._import_program``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.apps.pagerank import PageRankApp
from repro.apps.triangle import TriangleCountApp
from repro.baselines.pagerank import pagerank
from repro.baselines.triangle import triangle_count
from repro.graph.generators import rmat
from repro.harness.runner import BENCH_BLOCK_SIZE, bench_config
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

#: input seeds with stored goldens: 0..15 for day-to-day work, and
#: HELD_OUT_SEED, which a claimed gain must also hold on (choosing-
#: metrics section 6.3) and which is not used while tuning a change.
TUNING_SEEDS = 16
HELD_OUT_SEED = TUNING_SEEDS
GOLDEN_SEEDS = TUNING_SEEDS + 1


def input_seed(seed: int) -> int:
    """Map a ``--seed`` onto the input seeds that have stored goldens.

    Seeds 0..16 map to themselves (16 is the held-out seed); any other
    seed folds onto that range, so every run, whatever its seed, is
    checked against a stored golden fingerprint.
    """
    return seed % GOLDEN_SEEDS


@dataclass(frozen=True)
class Spec:
    """Workload parameters (part of the config hash)."""

    name: str
    nodes: int
    scale: int = 0
    iterations: int = 0
    requests: int = 0
    mean_gap_cycles: float = 0.0
    vertices: int = 0
    recorder_tier: Optional[str] = None


SPECS: Dict[str, Spec] = {
    "pagerank": Spec("pagerank", nodes=16, scale=11, iterations=2),
    "tc": Spec("tc", nodes=16, scale=9),
    "service_soak": Spec(
        "service_soak",
        nodes=4,
        requests=20_000,
        mean_gap_cycles=400.0,
        vertices=1024,
        recorder_tier="histograms",
    ),
}


@dataclass
class Built:
    """One set-up job, ready to run."""

    runtime: Any
    run: Callable[[], Any]
    #: the service harness (service_soak only)
    harness: Any = None


@dataclass
class Outcome:
    """What one job produced: the fingerprint plus the app output."""

    final_tick: float
    events_executed: int
    messages_sent: int
    digest: str
    #: operations the job attempted and how many failed (a batch job is
    #: one operation; the soak adds one per request)
    attempted: int = 1
    failed_requests: int = 0
    #: completed operations (requests_per_cpu_s numerator)
    completed: int = 1
    stats: Any = field(default=None, repr=False)
    output: Any = field(default=None, repr=False)

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "final_tick": self.final_tick,
            "events_executed": self.events_executed,
            "messages_sent": self.messages_sent,
            "digest": self.digest,
        }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_hash(spec: Spec) -> str:
    """Digest of the workload parameters and the machine they run on."""
    text = json.dumps(
        {
            "spec": asdict(spec),
            "block_size": BENCH_BLOCK_SIZE,
            "machine": repr(bench_config(spec.nodes)),
        },
        sort_keys=True,
    )
    return _sha(text.encode())[:16]


# ----------------------------------------------------------------------
# Set-up steps, each timed by the caller
# ----------------------------------------------------------------------


def make_inputs(spec: Spec, seed: int):
    """The generated inputs: an RMAT graph, or the request stream."""
    if spec.name == "service_soak":
        wl = ServiceWorkload(seed=seed, n_vertices=spec.vertices)
        arrivals = PoissonArrivals(spec.mean_gap_cycles, seed=seed)
        return wl.requests(arrivals.times(spec.requests))
    return rmat(spec.scale, seed=seed)


def make_runtime(spec: Spec):
    return UpDownRuntime(
        bench_config(spec.nodes), recorder=make_recorder(spec.recorder_tier)
    )


def make_app(spec: Spec, runtime, inputs) -> Built:
    """Construct the application on ``runtime``; returns the job."""
    if spec.name == "pagerank":
        app = PageRankApp(runtime, inputs, block_size=BENCH_BLOCK_SIZE)
        return Built(runtime, lambda: app.run(iterations=spec.iterations))
    if spec.name == "tc":
        app = TriangleCountApp(runtime, inputs, block_size=BENCH_BLOCK_SIZE)
        return Built(runtime, app.run)
    if spec.name == "service_soak":
        app = ServiceApp(runtime, patterns=DEFAULT_PATTERNS)
        harness = ServiceHarness(app)
        return Built(
            runtime,
            lambda: harness.run(inputs, slo=SLOSpec()),
            harness=harness,
        )
    raise ValueError(f"unknown workload {spec.name!r}")


# ----------------------------------------------------------------------
# Outcome extraction (outside the timed region)
# ----------------------------------------------------------------------


def outcome(spec: Spec, result) -> Outcome:
    """Fingerprint and app output of a finished job."""
    stats = result.stats
    base = dict(
        final_tick=stats.final_tick,
        events_executed=stats.events_executed,
        messages_sent=stats.messages_sent,
        stats=stats,
    )
    if spec.name == "pagerank":
        ranks = result.ranks
        return Outcome(digest=_sha(ranks.tobytes()), output=ranks, **base)
    if spec.name == "tc":
        return Outcome(
            digest=_sha(str(result.triangles).encode()),
            output=result.triangles,
            **base,
        )
    # service_soak: the per-request status map, histogram buckets left
    # out on purpose (their bucketing is due to be re-versioned)
    statuses = sorted(result.per_request.items())
    counts = result.status_counts
    bad = counts["shed"] + counts["lost"] + counts["deadline_miss"]
    return Outcome(
        digest=_sha(repr(statuses).encode()),
        attempted=1 + result.requests_total,
        failed_requests=bad,
        completed=counts["ok"] + counts["deadline_miss"],
        output=result,
        **base,
    )


def oracle_check(spec: Spec, inputs, out: Outcome) -> Optional[str]:
    """Cross-check the app output against an independent reference.

    Returns ``None`` when it holds, else a description of the mismatch.
    """
    if spec.name == "pagerank":
        ref = pagerank(inputs, iterations=spec.iterations)
        if not np.allclose(out.output, ref, rtol=1e-9, atol=1e-15):
            err = float(np.max(np.abs(out.output - ref)))
            return f"ranks differ from the NumPy reference (max abs {err:.3g})"
        return None
    if spec.name == "tc":
        ref = triangle_count(inputs)
        if out.output != ref:
            return f"{out.output} triangles, the sparse-matrix reference has {ref}"
        return None
    statuses = out.output.status_counts
    if out.failed_requests:
        return f"requests not ok: {statuses}"
    if out.output.requests_total != spec.requests:
        return f"{out.output.requests_total} requests served, {spec.requests} sent"
    return None

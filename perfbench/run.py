"""Host-CPU benchmark of the UpDown simulator, with per-layer attribution.

Runs one seeded workload (``pagerank``, ``tc`` or ``service_soak``) on
the default paper-figure machine, repeatedly, for ``--seconds`` seconds,
and prints one JSON object as its last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over repetitions,
tracing off).  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics; the traced ones wrap each layer's
entry points with span recorders (``layers.py``, ``spans.py``).  Every
repetition's simulated fingerprint is checked against the stored golden
(``goldens.json``); see ``README.md`` for the metrics and their clocks.

Usage, from the repository root::

    python3 perfbench/run.py --workload pagerank --seed 3 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"

#: repetitions a run makes at least, whatever ``--seconds`` says
MIN_REPS = 3
MIN_TRACED_REPS = 1


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put the checkout's ``src/`` on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {src} (run from a full checkout)")
    sys.path.insert(0, str(src))


def cpu_ns() -> int:
    """Host CPU time of this process and its reaped children (ns)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return int(round(total * 1e9))


def peak_rss_mib() -> float:
    """Peak resident set of this process or any reaped child (MiB)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _git(*args: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    out = subprocess.run(
        ("git", *args),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=20,
        check=True,
    )
    return out.stdout.strip()


def provenance(spec, seed: int, in_seed: int) -> dict:
    import numpy

    from workloads import HELD_OUT_SEED, config_hash

    try:
        sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        sha, dirty = "unknown (not a git checkout)", None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": spec.name,
        "seed": seed,
        "input_seed": in_seed,
        "held_out_seed": HELD_OUT_SEED,
        "config_hash": config_hash(spec),
    }


def armed_modes(stats) -> dict:
    """Execution modes read back from the job's statistics."""
    return {
        "batch_dispatch": stats.records_batched > 0,
        "coalescing": stats.packets_sent > 0,
        "reliable_transport": stats.transport_tracked > 0,
        "parallel": "not exercised",
        "faults": "not exercised",
    }


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------


def run_rep(spec, in_seed: int, tracer=None) -> dict:
    """Set up and run one job; returns its timings and outcome.

    The contention probe runs throughout (see ``probe.py``).  With
    ``tracer`` (a :class:`spans.SpanRecorder` whose class-level
    boundaries are installed) the handler table is wrapped after set-up
    and the span counters cover the job alone.
    """
    from layers import install_handlers
    from probe import Probe, Window
    from workloads import make_app, make_inputs, make_runtime, outcome

    gc.collect()
    with Probe() as probe:
        t0 = time.perf_counter()
        inputs = make_inputs(spec, in_seed)
        t1 = time.perf_counter()
        runtime = make_runtime(spec)
        t2 = time.perf_counter()
        built = make_app(spec, runtime, inputs)
        t3 = time.perf_counter()
        if tracer is not None:
            install_handlers(tracer, runtime)
            tracer.reset()
        job_start = probe.mark()
        c0 = cpu_ns()
        w0 = time.perf_counter()
        try:
            result = built.run()
            w1 = time.perf_counter()
            c1 = cpu_ns()
            job_end = probe.mark()
        finally:
            runtime.shutdown()
    return {
        "setup_graph_s": t1 - t0,
        "setup_runtime_s": t2 - t1,
        "setup_app_s": t3 - t2,
        "setup_s": t3 - t0,
        "job_cpu_ns": c1 - c0,
        "job_wall_s": w1 - w0,
        "setup_probe": Window(probe.samples[:job_start]),
        "job_probe": Window(probe.samples[job_start:job_end]),
        "outcome": outcome(spec, result),
        "inputs": inputs,
        "runtime": runtime,
        "harness": built.harness,
    }


def check_golden(goldens: dict, spec, in_seed: int, out) -> str:
    """Empty when ``out`` matches its stored golden, else the mismatch."""
    golden = goldens.get(spec.name, {}).get(str(in_seed))
    if golden is None:
        return f"no golden for {spec.name} input seed {in_seed}"
    got = out.fingerprint()
    diff = [k for k in golden if golden[k] != got.get(k)]
    if diff:
        return "fingerprint differs from golden in " + ", ".join(
            f"{k} ({got.get(k)!r} != {golden[k]!r})" for k in diff
        )
    return ""


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


#: set-up probe units needed to trust their own factor (else the job's)
MIN_SETUP_UNITS = 3


def normalize(reps) -> None:
    """Net out the probe and scale each timing to the reference speed."""
    for r in reps:
        job, setup = r["job_probe"], r["setup_probe"]
        fc = r["cpu_factor"] = job.cpu_factor()
        fw = job.wall_factor()
        r["net_cpu_s"] = (r["job_cpu_ns"] - job.cpu_ns) / 1e9
        r["cpu_s"] = r["net_cpu_s"] * fc
        r["wall_s"] = (r["job_wall_s"] - job.wall_ns / 1e9) * fw
        if setup.n >= MIN_SETUP_UNITS:
            fw = setup.wall_factor()
        net = r["setup_s"] - setup.wall_ns / 1e9
        scale = fw * net / r["setup_s"]
        for part in ("setup_s", "setup_graph_s", "setup_runtime_s", "setup_app_s"):
            r[f"normalized_{part}"] = r[part] * scale


def end_to_end(reps) -> dict:
    """End-to-end metrics: medians over the untraced repetitions."""
    med = statistics.median
    return {
        "events_per_cpu_s": (
            med(r["outcome"].events_executed / r["cpu_s"] for r in reps),
            "1/s",
        ),
        "requests_per_cpu_s": (
            med(r["outcome"].completed / r["cpu_s"] for r in reps),
            "1/s",
        ),
        "job_wall_s": (med(r["wall_s"] for r in reps), "s"),
        "setup_s": (med(r["normalized_setup_s"] for r in reps), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def layer_metrics(untraced, traced) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    from layers import LAYERS
    from spans import split_self_time

    med = statistics.median

    def m(key):
        return med(t[key] for t in traced)

    untraced_cpu = med(r["cpu_s"] for r in untraced)
    for t in traced:
        # span cost: the traced job's raw CPU less what the untraced job
        # would have taken at the same contention, probe included
        expected_ns = untraced_cpu / t["cpu_factor"] * 1e9 + t["job_probe"].cpu_ns
        parts = split_self_time(
            t["job_cpu_ns"], t["spans"], t["job_cpu_ns"] - expected_ns
        )
        # the probe fired uniformly in time, so it sits in every part in
        # proportion; scaling to the net time takes it out
        scale = t["cpu_s"] / (t["job_cpu_ns"] / 1e9)
        t.update({f"self.{k}": v * scale for k, v in parts.items()})
    out = {}
    for layer in LAYERS:
        name = "service.harness" if layer == "service" else layer
        out[f"{name}.self_cpu_s"] = (m(f"self.{layer}"), "s")
    counts = {
        "simulator.run_calls": "count",
        "simulator.sends": "count",
        "simulator.injects": "count",
        "udweave.intrinsic_calls": "count",
        "udweave.records_batched_frac": "frac",
        "kvmsr.emits": "count",
        "kvmsr.combining_adds": "count",
        "kvmsr.lane_for_calls": "count",
        "memory.dram_transactions": "count",
        "memory.remote_dram_frac": "frac",
        "network.deliver_calls": "count",
        "network.remote_msg_frac": "frac",
        "network.injection_wait_p99_cycles": "cycles",
        "service.windows": "count",
        "service.events_per_window": "count",
        "trace.spans": "count",
    }
    for key, unit in counts.items():
        out[key] = (m(key), unit)
    for part in ("graph", "runtime", "app"):
        out[f"setup.{part}_s"] = (
            med(r[f"normalized_setup_{part}_s"] for r in untraced),
            "s",
        )
    out["unattributed_cpu_s"] = (m("self.unattributed"), "s")
    out["trace.cost_cpu_s"] = (m("self.trace_cost"), "s")
    out["trace.overhead_frac"] = (m("cpu_s") / untraced_cpu - 1.0, "frac")
    out["host.raw_job_cpu_s"] = (med(r["net_cpu_s"] for r in untraced), "s")
    out["host.slowdown_ratio"] = (
        med(1.0 / r["cpu_factor"] for r in untraced + traced),
        "ratio",
    )
    return out


def traced_numbers(rep, tracer, cost) -> dict:
    """Span totals and counters of one traced repetition."""
    from layers import LAYERS

    stats = rep["outcome"].stats
    events = stats.events_executed
    dram = stats.dram_reads + stats.dram_writes
    sent = stats.messages_sent
    recorder = rep["runtime"].recorder
    run_calls = tracer.calls("repro.machine.simulator.Simulator.run")
    windows = run_calls if rep["harness"] is not None else 0
    ctx = "repro.udweave.context.LaneContext."
    return {
        "spans": tracer.snapshot(LAYERS, cost),
        "simulator.run_calls": run_calls,
        "simulator.sends": tracer.calls("repro.machine.simulator.Simulator.send"),
        "simulator.injects": tracer.calls("repro.machine.simulator.Simulator.inject"),
        "udweave.intrinsic_calls": sum(
            b.calls for n, b in tracer.boundaries.items() if n.startswith(ctx)
        ),
        "udweave.records_batched_frac": (
            stats.records_batched / events if events else 0.0
        ),
        "kvmsr.emits": tracer.calls(
            "repro.kvmsr.engine.MapTask.kv_emit",
            "repro.kvmsr.engine.emit_to_reduce",
        ),
        "kvmsr.combining_adds": tracer.calls(
            "repro.kvmsr.combining.CombiningCache.add"
        ),
        "kvmsr.lane_for_calls": sum(
            b.calls for n, b in tracer.boundaries.items() if n.endswith(".lane_for")
        ),
        "memory.dram_transactions": dram,
        "memory.remote_dram_frac": stats.dram_remote_accesses / dram if dram else 0.0,
        "network.deliver_calls": tracer.calls(
            "repro.machine.network.Network.deliver_time"
        ),
        "network.remote_msg_frac": stats.messages_remote / sent if sent else 0.0,
        "network.injection_wait_p99_cycles": (
            recorder.inj_wait.quantile_bound(0.99) if recorder is not None else 0.0
        ),
        "service.windows": windows,
        "service.events_per_window": events / windows if windows else 0.0,
        "trace.spans": sum(b.calls for b in tracer.boundaries.values()),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from layers import install_classes
    from spans import SpanRecorder, calibrate
    from workloads import SPECS, input_seed, oracle_check

    spec = SPECS.get(args.workload)
    if spec is None:
        _fail(f"unknown workload {args.workload!r}; pick one of {sorted(SPECS)}")
    if not GOLDENS.is_file():
        _fail(f"missing {GOLDENS}")
    goldens = json.loads(GOLDENS.read_text())
    in_seed = input_seed(args.seed)

    tracer = cost = None
    if args.trace:
        cost = calibrate()
        tracer = SpanRecorder()

    untraced, traced = [], []
    attempted = failed = 0
    errors = []
    modes = None
    checked_oracle = False
    deadline = time.perf_counter() + args.seconds
    while True:
        want_traced = tracer is not None and len(untraced) > len(traced)
        if want_traced:
            install_classes(tracer)
        try:
            rep = run_rep(spec, in_seed, tracer if want_traced else None)
        except Exception:  # a job that raises is a failed operation
            attempted += 1
            failed += 1
            errors.append(traceback.format_exc())
            rep = None
        finally:
            if want_traced:
                tracer.uninstall()
        if rep is not None:
            rep["traced"] = want_traced
            out = rep["outcome"]
            attempted += out.attempted
            failed += out.failed_requests
            problem = check_golden(goldens, spec, in_seed, out)
            if not problem and not checked_oracle:
                problem = oracle_check(spec, rep["inputs"], out) or ""
                checked_oracle = True
            if problem:  # timed all the same, but the run is not correct
                failed += 1
                errors.append(problem)
            if want_traced:
                rep.update(traced_numbers(rep, tracer, cost))
                traced.append(rep)
            else:
                untraced.append(rep)
            modes = modes or armed_modes(out.stats)
            del rep["inputs"], rep["runtime"], rep["harness"]
        enough = len(untraced) >= (1 if tracer else MIN_REPS) and (
            tracer is None or len(traced) >= MIN_TRACED_REPS
        )
        if time.perf_counter() >= deadline and (enough or errors):
            break
    if not untraced or (tracer is not None and not traced):
        for e in errors:
            print(e, file=sys.stderr)
        _fail("no repetition ran to completion")

    normalize(untraced + traced)
    stamp = provenance(spec, args.seed, in_seed)
    stamp["armed_modes"] = modes
    reps_info = [
        {
            "traced": r["traced"],
            "setup_s": r["setup_s"],
            "job_cpu_s": r["job_cpu_ns"] / 1e9,
            "job_wall_s": r["job_wall_s"],
            "probe_units": r["job_probe"].n,
            "cpu_factor": r["cpu_factor"],
            **r["outcome"].fingerprint(),
        }
        for r in untraced + traced
    ]
    print(json.dumps({"provenance": stamp, "repetitions": reps_info}))
    for e in errors:
        print(f"perfbench: failed operation: {e}", file=sys.stderr)

    metrics = layer_metrics(untraced, traced) if tracer else end_to_end(untraced)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder: per-layer host self time, from outside the program.

The benchmark attributes host CPU time to the simulator's layers without
editing ``src/``: :class:`SpanRecorder` replaces the public entry point
of each layer (a class attribute, an instance attribute or a handler
table entry) with a wrapper that records a span around the call, and
puts the original back on :meth:`SpanRecorder.uninstall`.

Accounting: every open span keeps the total duration of the child spans
that ran inside it.  When a span closes, its duration minus that child
total is its *self* time, charged to the span's layer; its full duration
is added to its parent's child total.  The outermost accumulator is the
root: the time covered by top-level spans.  So, for one traced job,

    sum(self time over layers) == root total          (telescoping)
    unattributed == job CPU - root total

Each span also costs the clock reads and the wrapper call.  A one-off
calibration (:func:`calibrate`) measures that cost, split into the part
that lands inside the wrapped call (charged to its own layer) and the
part that lands in the caller (charged to the parent span's layer, or to
unattributed time for a top-level span).  :func:`split_self_time`
moves that cost out of each layer into ``trace_cost``, scaled so the
parts add up to the measured difference between traced and untraced job
CPU; the identity then reads

    sum(self) + unattributed + trace_cost == job CPU

Every clock here is host CPU time of this process
(``CLOCK_PROCESS_CPUTIME_ID``), in nanoseconds.
"""

from __future__ import annotations

import functools
import time
import types
from typing import Callable, Dict, Iterable, List, Optional

CLOCK = time.process_time_ns


class _Boundary:
    """Counters of one wrapped entry point (mutable cell, closure-held)."""

    __slots__ = ("name", "layer", "calls", "self_ns", "children")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.self_ns = 0
        #: spans opened directly inside this boundary's spans
        self.children = 0


class SpanRecorder:
    """Wraps entry points and accumulates per-layer self time."""

    def __init__(self, clock: Callable[[], int] = CLOCK) -> None:
        self.clock = clock
        self.boundaries: Dict[str, _Boundary] = {}
        #: open-span stack: [child_ns, child_count] per open span; the
        #: bottom entry is the root (time outside every span)
        self._stack: List[list] = [[0, 0]]
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` with a span charged to ``layer`` around every call."""
        b = self.boundaries.get(name)
        if b is None:
            b = self.boundaries[name] = _Boundary(name, layer)
        elif b.layer != layer:
            raise ValueError(f"boundary {name!r} is already in {b.layer!r}")
        clock = self.clock
        stack = self._stack
        push = stack.append
        pop = stack.pop

        def span(*args, **kwargs):
            push([0, 0])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                child_ns, child_n = pop()
                b.calls += 1
                b.self_ns += d - child_ns
                b.children += child_n
                parent = stack[-1]
                parent[0] += d
                parent[1] += 1

        functools.update_wrapper(span, fn)
        span.__wrapped_span__ = name
        return span

    def patch(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (undone later).

        ``owner`` is a class, a module or an instance.  For a class the attribute
        is looked up in the class's own ``__dict__`` — a method inherited
        from a base class is wrapped on the base, once.
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} defines no {attr!r}")
            label = f"{owner.__module__}.{owner.__qualname__}.{attr}"
        elif isinstance(owner, types.ModuleType):
            label = f"{owner.__name__}.{attr}"
        else:
            label = f"{type(owner).__qualname__}.{attr}"
        original = owner.__dict__[attr]
        if getattr(original, "__wrapped_span__", None) is not None:
            return
        setattr(owner, attr, self.wrap(original, layer, label))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_list(self, table: list, index: int, wrapper: Callable) -> None:
        """Replace ``table[index]`` (undone later)."""
        original = table[index]
        table[index] = wrapper
        self._undo.append(lambda: table.__setitem__(index, original))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (patches stay installed)."""
        if len(self._stack) != 1:
            raise RuntimeError("reset with spans still open")
        self._stack[0] = [0, 0]
        for b in self.boundaries.values():
            b.calls = b.self_ns = b.children = 0

    @property
    def open_spans(self) -> int:
        return len(self._stack) - 1

    def calls(self, *names: str) -> int:
        """Total calls through the named boundaries."""
        return sum(
            self.boundaries[n].calls for n in names if n in self.boundaries
        )

    def snapshot(self, layers: Iterable[str], cost: "SpanCost") -> "SpanTotals":
        """Per-layer totals of the spans recorded since :meth:`reset`.

        ``layers`` lists every layer to report (zero when nothing ran
        there).  Raises if a span is still open.
        """
        if self.open_spans:
            raise RuntimeError(f"{self.open_spans} span(s) still open")
        raw: Dict[str, int] = {layer: 0 for layer in layers}
        est: Dict[str, float] = {layer: 0.0 for layer in layers}
        for b in self.boundaries.values():
            if b.layer not in raw:
                raise KeyError(f"boundary {b.name!r} has unknown layer {b.layer!r}")
            raw[b.layer] += b.self_ns
            est[b.layer] += b.calls * cost.inside_ns + b.children * cost.caller_ns
        root_ns, top_spans = self._stack[0]
        return SpanTotals(raw, est, root_ns, top_spans * cost.caller_ns)


class SpanTotals:
    """What one traced job's spans add up to, before the cost split."""

    __slots__ = ("raw_self_ns", "est_cost_ns", "root_ns", "top_cost_ns")

    def __init__(self, raw_self_ns, est_cost_ns, root_ns, top_cost_ns) -> None:
        #: measured self time per layer (span cost included)
        self.raw_self_ns: Dict[str, int] = raw_self_ns
        #: span cost estimated inside each layer's self time
        self.est_cost_ns: Dict[str, float] = est_cost_ns
        #: time covered by top-level spans
        self.root_ns: int = root_ns
        #: span cost estimated in the time outside every span
        self.top_cost_ns: float = top_cost_ns


class SpanCost:
    """Estimated per-span cost of the wrapper, in nanoseconds.

    ``inside_ns`` lands inside the wrapped call's own self time;
    ``caller_ns`` lands in the caller's self time.
    """

    __slots__ = ("inside_ns", "caller_ns")

    def __init__(self, inside_ns: float, caller_ns: float) -> None:
        self.inside_ns = inside_ns
        self.caller_ns = caller_ns


def split_self_time(
    job_cpu_ns: int, totals: SpanTotals, measured_cost_ns: Optional[float] = None
) -> Dict[str, float]:
    """The self-time arithmetic, separated so it can be tested alone.

    Returns seconds: ``{layer: self}`` plus ``"unattributed"`` and
    ``"trace_cost"``, which sum to ``job_cpu_ns``.  The span cost comes
    out of each layer (and out of the time outside every span) in
    proportion to the calibrated estimate; when ``measured_cost_ns`` is
    given (traced minus untraced job CPU) the estimates are scaled to
    add up to it.  No part is taken below zero.
    """
    raw = totals.raw_self_ns
    if sum(raw.values()) != totals.root_ns:
        raise ArithmeticError(
            f"layer self times sum to {sum(raw.values())} ns, "
            f"top-level spans cover {totals.root_ns} ns"
        )
    outside = job_cpu_ns - totals.root_ns
    est_total = sum(totals.est_cost_ns.values()) + totals.top_cost_ns
    scale = 1.0
    if measured_cost_ns is not None and est_total > 0:
        scale = max(measured_cost_ns, 0.0) / est_total
    out: Dict[str, float] = {}
    trace_cost = 0.0
    for layer, ns in raw.items():
        c = min(max(totals.est_cost_ns[layer] * scale, 0.0), max(ns, 0))
        trace_cost += c
        out[layer] = (ns - c) / 1e9
    c = min(max(totals.top_cost_ns * scale, 0.0), max(outside, 0))
    trace_cost += c
    out["unattributed"] = (outside - c) / 1e9
    out["trace_cost"] = trace_cost / 1e9
    total = sum(out.values())
    if abs(total * 1e9 - job_cpu_ns) > 1e3:
        raise ArithmeticError(
            f"parts sum to {total:.9f} s, job CPU is {job_cpu_ns / 1e9:.9f} s"
        )
    return out


def _noop(*args, **kwargs):
    return None


def calibrate(rounds: int = 5, n: int = 20_000, clock=CLOCK) -> SpanCost:
    """Measure the wrapper's cost per span (median of ``rounds``).

    A parent span calls a spanned no-op ``n`` times.  The no-op's own
    self time per call is ``inside_ns``; the parent's self time per call,
    less the same loop calling the bare no-op, is ``caller_ns``.
    """
    inside: List[float] = []
    caller: List[float] = []
    for _ in range(rounds):
        rec = SpanRecorder(clock)
        child = rec.wrap(_noop, "child", "child")

        # three arguments, like a typical intrinsic or send
        def loop(f=child, n=n):
            for i in range(n):
                f(i, n, None)

        def bare(f=_noop, n=n):
            for i in range(n):
                f(i, n, None)

        parent = rec.wrap(loop, "parent", "parent")
        t0 = clock()
        bare()
        bare_ns = clock() - t0
        parent()
        inside.append(rec.boundaries["child"].self_ns / n)
        caller.append(max(rec.boundaries["parent"].self_ns - bare_ns, 0) / n)
    inside.sort()
    caller.sort()
    return SpanCost(inside[rounds // 2], caller[rounds // 2])

"""Which entry points bound which layer, and how to wrap them.

:func:`install_classes` wraps class- and module-level entry points; it
runs before a traced job's set-up, so methods the program binds at
construction (``Simulator`` keeps ``network.deliver_time`` and the
runtime's dispatcher, ``Network`` keeps its recorder's hooks) bind the
wrapped versions.  :func:`install_handlers` wraps the registered handler
table after set-up, when every thread class is registered.  The gaps —
entry points that cannot be wrapped from outside — are listed in
``perfbench/README.md``.
"""

from __future__ import annotations

from typing import List, Tuple

from spans import SpanRecorder

#: every layer the report names, in report order
LAYERS = (
    "simulator",
    "udweave",
    "kvmsr",
    "memory",
    "network",
    "observe",
    "service",
    "apps",
)

#: LaneContext intrinsics (public methods; properties are left alone)
INTRINSICS = (
    "evw_new",
    "evw_update_event",
    "self_evw",
    "send_event",
    "send_reply",
    "spawn",
    "spawn_resolved",
    "send_dram_read",
    "dram_read_blocking",
    "send_dram_write",
    "sp_read",
    "sp_write",
    "sp_delete",
    "sp_malloc",
    "sp_read_pooled",
    "sp_write_pooled",
    "ud_print",
    "work",
    "yield_",
    "yield_terminate",
)

#: FlightRecorder hooks the machine layer calls
RECORDER_HOOKS = (
    "lane_span",
    "message",
    "packet",
    "batch",
    "inj_sample",
    "dram_sample",
    "phase_begin",
    "phase_end",
    "mark",
    "fault",
)

#: KVMSR calls that application code makes into the engine
KVMSR_TASK_CALLS = (
    ("MapTask", "kv_emit"),
    ("MapTask", "kv_map_return"),
    ("ReduceTask", "kv_reduce_return"),
    ("ReduceTask", "kv_flush_return"),
)

#: application hooks the KVMSR engine calls inline (not via dispatch)
APP_HOOKS = ("kv_map", "kv_reduce", "kv_flush")


def class_boundaries() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every class-level boundary."""
    from repro.datastruct import sht
    from repro.kvmsr import binding, combining, engine
    from repro.machine.memory import MemorySystem
    from repro.machine.network import Network
    from repro.machine.simulator import Simulator
    from repro.memmodel.drammalloc import GlobalMemory
    from repro.observe.histogram import LogHistogram
    from repro.observe.recorder import FlightRecorder
    from repro.service.harness import AdmissionControl, ServiceHarness
    from repro.udweave.context import LaneContext
    from repro.udweave.runtime import UpDownRuntime

    out: List[Tuple[object, str, str]] = []
    for attr in ("run", "send", "inject", "dram_transaction"):
        out.append((Simulator, attr, "simulator"))
    out.append((UpDownRuntime, "_dispatch", "udweave"))
    out += [(LaneContext, attr, "udweave") for attr in INTRINSICS]
    tasks = {"MapTask": engine.MapTask, "ReduceTask": engine.ReduceTask}
    out += [(tasks[cls], attr, "kvmsr") for cls, attr in KVMSR_TASK_CALLS]
    out.append((engine, "emit_to_reduce", "kvmsr"))
    out.append((combining.CombiningCache, "add", "kvmsr"))
    out.append((combining.CombiningCache, "flush", "kvmsr"))
    for cls in (
        binding.HashBinding,
        binding.CustomReduceBinding,
        binding.DataDrivenBinding,
    ):
        out.append((cls, "lane_for", "kvmsr"))
    # the SHT places keys with KVMSR's binding hash, imported by name
    out.append((sht, "stable_hash", "kvmsr"))
    out.append((MemorySystem, "access", "memory"))
    for attr in (
        "read_words",
        "read_words_translated",
        "write_words",
        "write_words_translated",
    ):
        out.append((GlobalMemory, attr, "memory"))
    for attr in ("deliver_time", "dram_hop", "injection_backlog"):
        out.append((Network, attr, "network"))
    out += [(FlightRecorder, attr, "observe") for attr in RECORDER_HOOKS]
    out.append((LogHistogram, "add", "observe"))
    out.append((ServiceHarness, "run", "service"))
    out.append((AdmissionControl, "decide", "service"))
    return out


def install_classes(rec: SpanRecorder) -> None:
    """Wrap every class- and module-level boundary."""
    for owner, attr, layer in class_boundaries():
        rec.patch(owner, attr, layer)


def handler_layer(func) -> str:
    """A handler body belongs to KVMSR when the engine defines it, and to
    the application (apps, data structures, service tasks) otherwise."""
    module = getattr(func, "__module__", "") or ""
    return "kvmsr" if module.startswith("repro.kvmsr") else "apps"


def install_handlers(rec: SpanRecorder, runtime) -> int:
    """Wrap every registered handler and KVMSR application hook.

    Returns the number of handler table entries wrapped.
    """
    from repro.kvmsr.engine import MapTask, ReduceTask

    table = runtime.program.handler_table
    seen = set()
    for i, (cls, func) in enumerate(table):
        name = f"handler:{func.__module__}.{func.__qualname__}"
        rec.patch_list(table, i, (cls, rec.wrap(func, handler_layer(func), name)))
        if cls in seen or not issubclass(cls, (MapTask, ReduceTask)):
            continue
        seen.add(cls)
        for klass in cls.__mro__:
            if klass in (MapTask, ReduceTask):
                break
            for hook in APP_HOOKS:
                if hook in klass.__dict__:
                    rec.patch(klass, hook, handler_layer(klass.__dict__[hook]))
    return len(table)

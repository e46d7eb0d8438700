"""Always-on service mode: open-loop traffic, admission control, SLOs.

The batch pipeline answers "how fast does one job finish"; this package
answers the operator's question — "does the machine keep meeting its
latency SLOs while queries, updates, and faults all arrive at once".
It drives a live mutating graph with deterministic seeded arrival
processes (:mod:`.arrivals`), a mixed query/update workload
(:mod:`.workload`), per-request device threads (:mod:`.app`), bounded
queue-wait admission control and an interleaved-stepping harness
(:mod:`.harness`), and machine-checkable soak verdicts (:mod:`.slo`).
Every layer is a pure function of its seeds, so chaos-soak verdicts are
byte-identical across reruns.
"""

from .app import DONE_LABEL, ServiceApp, SvcExactTask, SvcMultihopTask, SvcPartialTask
from .arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    SteadyArrivals,
)
from .harness import AdmissionControl, ServiceHarness, ServiceResult
from .slo import DEFAULT_P99_CYCLES, SLOSpec, SLOVerdict, histogram_fingerprint
from .workload import (
    DEFAULT_DEADLINES,
    DEFAULT_PATTERNS,
    REQUEST_CLASSES,
    Request,
    ServiceMix,
    ServiceWorkload,
)

__all__ = [
    "AdmissionControl",
    "ArrivalProcess",
    "BurstyArrivals",
    "DEFAULT_DEADLINES",
    "DEFAULT_P99_CYCLES",
    "DEFAULT_PATTERNS",
    "DiurnalArrivals",
    "DONE_LABEL",
    "histogram_fingerprint",
    "PoissonArrivals",
    "REQUEST_CLASSES",
    "Request",
    "SLOSpec",
    "SLOVerdict",
    "ServiceApp",
    "ServiceHarness",
    "ServiceMix",
    "ServiceResult",
    "ServiceWorkload",
    "SteadyArrivals",
    "SvcExactTask",
    "SvcMultihopTask",
    "SvcPartialTask",
]

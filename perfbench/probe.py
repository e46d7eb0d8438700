"""Contention probe: host timings normalized to a reference speed.

On a shared host the same job's CPU time swings by half from one second
to the next: when another tenant busies the shared core or caches,
every instruction takes longer, and CPU time grows with it (the guest
sees no steal time, so nothing else records it).  To measure the
simulator and not its neighbours, :class:`Probe` interrupts the running
job every ``INTERVAL_S`` of wall time (``SIGALRM``) and times one *probe
unit*, a fixed pure-Python loop that does not touch the program.  The
probe units slow down with the job, so

    normalized time = (measured time - probe time) * REFERENCE_UNIT_NS
                      / mean probe unit time during the job

is the job's time as it would read on the reference host, uncontended.
On a 2-core x86-64 KVM guest (Python 3.11) the ratio of job CPU to
probe-unit CPU repeated within 2% from run to run, while the raw CPU
time of the same job spread by 15-25%.  The probe costs about 2% of the
job, and its own time is subtracted.  Simulated results are unaffected:
the handler never touches simulator state.

``REFERENCE_UNIT_NS`` is the probe unit's uncontended CPU time on that
reference host.  On other hardware the normalized numbers stay
comparable with each other (a later commit, the same host) but read as
reference-host seconds; the raw times are printed beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional, Tuple

#: wall-time interval between probe units
INTERVAL_S = 0.01
#: dictionary updates per probe unit
UNIT_OPS = 2000
#: uncontended CPU time of one probe unit on the reference host (2-core
#: x86-64 KVM guest, Intel Xeon, Python 3.11.7)
REFERENCE_UNIT_NS = 150_000


def probe_unit() -> Tuple[int, int]:
    """Time one probe unit: ``(cpu_ns, wall_ns)``."""
    c0 = time.process_time_ns()
    w0 = time.perf_counter_ns()
    d: dict = {}
    get = d.get
    for i in range(UNIT_OPS):
        k = i & 255
        d[k] = get(k, 0) + i
    return time.process_time_ns() - c0, time.perf_counter_ns() - w0


class Probe:
    """Times probe units on a wall-clock timer while it is running."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, int]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe_unit())

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position in :attr:`samples`, to split set-up from the job."""
        return len(self.samples)


class Window:
    """Probe units that ran inside one timed interval."""

    def __init__(self, samples: List[Tuple[int, int]]) -> None:
        self.n = len(samples)
        self.cpu_ns = sum(c for c, _ in samples)
        self.wall_ns = sum(w for _, w in samples)
        self.mean_cpu_ns: Optional[float] = (
            statistics.fmean(c for c, _ in samples) if samples else None
        )
        self.mean_wall_ns: Optional[float] = (
            statistics.fmean(w for _, w in samples) if samples else None
        )

    def cpu_factor(self) -> float:
        """Reference-speed factor for CPU time in this window."""
        return REFERENCE_UNIT_NS / self.mean_cpu_ns if self.n else 1.0

    def wall_factor(self) -> float:
        """Reference-speed factor for wall time in this window."""
        return REFERENCE_UNIT_NS / self.mean_wall_ns if self.n else 1.0

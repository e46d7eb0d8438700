"""Conservative epoch-windowed sharded execution of the DES.

The authors' Fastsim is a parallel C++/OpenMP simulator; this module
carries its partitioning discipline over to the Python DES.  The
machine's nodes are split into contiguous shards, each owning a
per-shard event heap plus the lanes, DRAM channel, and injection/reply
channels of its nodes.  An epoch driver repeatedly:

1. finds the global next-event time ``T`` (the min over shard heaps);
2. advances every shard independently through the window
   ``[T, T + lookahead)``;
3. repeats, cross-shard pushes having landed in their target heaps.

``lookahead`` is :attr:`MachineConfig.conservative_lookahead_cycles` —
the minimum number of cycles any cross-node interaction needs to take
effect (cross-node message base latency, or one remote-DRAM fabric
transit).  Because every event a shard executes inside the window can
only schedule work on *other* shards at ``>= T + lookahead``, no shard
can miss an inbound event by running ahead within the window: the
classic conservative (lookahead-based) synchronization argument, the
same barrier-synchronized discipline GraphLab's engines use.

Determinism — the hard requirement — comes from the heap key: every
scheduled event carries ``(time, dest, seq)`` where ``seq`` is assigned
by the *issuing* actor from its private counter (see
``repro.machine.events``).  Each actor (host, lane, or node) executes on
exactly one shard, so the keys a sharded run assigns are byte-for-byte
the keys the sequential run assigns, and each shard pops exactly the
sequential event sequence restricted to its nodes.  Combined with strict
node-ownership of all cost-model state (channels, memory, lanes), every
counter, timestamp, and mailbox entry is bit-identical to the sequential
drain.

:class:`ShardScheduler` runs the shards in one process, round-robin
under the GIL (``shards=N``).  It is no faster than the sequential
drain; it exists to pin the sharding semantics — the parity suites
check every shard count against the sequential fingerprint — and as the
reference a future multi-core executor would have to match.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional


class ShardScheduler:
    """In-process conservative epoch driver (``shards=N``).

    Hooks ``Simulator._route`` so every push lands in the owning shard's
    heap (host-bound entries are buffered — the host is outside the
    machine), then drains the shards window by window by swapping
    ``sim._heap``.  Cross-shard pushes go straight into the target heap:
    conservative lookahead guarantees they land at or beyond the window
    end, so the target shard — whether it ran already this window or not
    — cannot see them early.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.shards: int = sim.shards
        cfg = sim.config
        self.lookahead: float = cfg.conservative_lookahead_cycles
        self.total_lanes: int = cfg.total_lanes
        self.lanes_per_node: int = cfg.lanes_per_node
        self.shard_of_node: List[int] = sim._shard_of_node
        self.heaps: List[list] = [[] for _ in range(self.shards)]
        self._host_entries: List[tuple] = []
        #: persistent epoch-window end — survives bounded ``drain(until=)``
        #: re-entries so a stepped run opens windows at exactly the pops
        #: an un-stepped run would.
        self._win_end: float = 0.0
        sim._route = self._route
        # adopt anything injected before the first drain
        pending, sim._heap = sim._heap, []
        for entry in pending:
            self._route(entry)

    def shard_of_entry(self, entry) -> int:
        """Owning shard of a heap entry (lane delivery or DRAM arrival)."""
        dest = entry[1]
        if dest >= self.total_lanes:
            node = dest - self.total_lanes
        else:
            node = dest // self.lanes_per_node
        return self.shard_of_node[node]

    def _route(self, entry) -> None:
        if entry[1] < 0:
            self._host_entries.append(entry)
            return
        heapq.heappush(self.heaps[self.shard_of_entry(entry)], entry)

    def drain(self, max_events: Optional[int], until: Optional[float] = None):
        """Drain the shard heaps; ``until`` bounds the drain like the
        sequential :meth:`Simulator.run` bound: only events strictly
        before that tick execute, later entries stay heaped for re-entry.
        Epoch windows are clamped to the bound — always safe, since any
        window no wider than ``t_next + lookahead`` preserves the
        conservative-synchronization argument.
        """
        sim = self.sim
        heaps = self.heaps
        lookahead = self.lookahead
        stats = sim.stats
        budget = max_events
        bound = math.inf if until is None else until
        while True:
            t_next = math.inf
            for heap in heaps:
                if heap and heap[0][0] < t_next:
                    t_next = heap[0][0]
            if t_next >= bound:
                break
            if t_next >= self._win_end:
                # Epoch boundary.  A bounded drain can stop mid-window;
                # re-entry then continues the old window rather than
                # opening one the un-stepped run never had.
                self._win_end = t_next + lookahead
            win_until = self._win_end if self._win_end < bound else bound
            for shard in range(self.shards):
                heap = heaps[shard]
                if not heap or heap[0][0] >= win_until:
                    continue
                sim._heap = heap
                before = stats.events_executed
                try:
                    sim._drain(budget, win_until)
                finally:
                    sim._heap = []
                if budget is not None:
                    budget -= stats.events_executed - before
        self._flush_host()
        # quiescence verdict: the shard heaps (not sim._heap, empty by
        # construction here) hold whatever a bounded drain left queued
        pending = sim._live_threads()
        stats.pending_threads = pending
        stats.quiesced = (
            pending == 0
            and sim._parked_total == 0
            and not any(heaps)
        )
        return stats

    def _flush_host(self) -> None:
        """Deliver collected host-bound entries in sequential order.

        The host mailbox has no feedback into the simulation, so host
        deliveries are buffered during windows and appended at drain end,
        sorted by the same ``(time, seq)`` key the sequential pop loop
        orders them by — the resulting inbox is bit-identical.
        """
        entries = self._host_entries
        if not entries:
            return
        entries.sort(key=lambda e: (e[0], e[2]))
        sim = self.sim
        inbox = sim.host_inbox
        stats = sim.stats
        final_tick = stats.final_tick
        for entry in entries:
            t = entry[0]
            inbox.append((t, entry[3]))
            if t > final_tick:
                final_tick = t
        stats.final_tick = final_tick
        entries.clear()

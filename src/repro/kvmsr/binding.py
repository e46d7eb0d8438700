"""Computation binding: mapping KVMSR tasks onto lanes (paper §2.3).

KVMSR decouples *what* runs (kv_map / kv_reduce tasks per key) from *where*
it runs.  The predefined schemes are:

* **Block** — lanes get equal, contiguous portions of the key space
  (default for ``kv_map``);
* **Hash** — each key is hashed to a lane (default for ``kv_reduce``);
* **PBMW** — partial-block + master-worker: lanes get an initial block and
  ask the master for more when they run dry (robust to work skew, used by
  one Triangle Counting variant);
* **KeyToLane** — a user function computes the lane per key directly, the
  paper's ``LaneID = (hash(key) % NRLanes) + 1stLane`` idiom (BFS uses this
  to put one kv_map task on each accelerator).

All hashing uses a seeded splitmix64 so simulations are reproducible across
Python processes (Python's built-in ``hash`` is salted).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.machine.config import MachineConfig

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Deterministic 64-bit mixer (Steele et al.); domain is any int."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_hash(key) -> int:
    """Deterministic hash for ints, strings, and tuples of them (nested
    tuples included).

    Exact ints and tuples — the placement keys of every SHT and reduce
    binding — are tested first, and a tuple's int parts are mixed without
    a recursive call.  ``bool`` and ``IntEnum`` values hash as the ints
    they equal; other types (floats, lists, numpy scalars) raise
    ``TypeError``.
    """
    if key.__class__ is int:
        return splitmix64(key)
    if isinstance(key, tuple):
        h = 0x9E3779B97F4A7C15
        for part in key:
            if part.__class__ is int:
                h = splitmix64(h ^ splitmix64(part))
            else:
                h = splitmix64(h ^ stable_hash(part))
        return h
    if isinstance(key, int):
        return splitmix64(key)
    if isinstance(key, str):
        h = 0xCBF29CE484222325
        for ch in key.encode():
            h = ((h ^ ch) * 0x100000001B3) & _MASK64
        return splitmix64(h)
    raise TypeError(f"unhashable KVMSR key type: {type(key).__name__}")


class LaneSet:
    """An ordered set of lanes targeted by one KVMSR invocation.

    Paper §2.3: "Each KVMSR invocation targets a set of lanes."
    """

    def __init__(self, lanes) -> None:
        self.lanes: List[int] = list(lanes)
        if not self.lanes:
            raise ValueError("a KVMSR lane set cannot be empty")

    @classmethod
    def whole_machine(cls, config: MachineConfig) -> "LaneSet":
        return cls(range(config.total_lanes))

    @classmethod
    def nodes(cls, config: MachineConfig, first: int, count: int) -> "LaneSet":
        lo = config.first_lane_of_node(first)
        hi = config.first_lane_of_node(first + count - 1) + config.lanes_per_node
        return cls(range(lo, hi))

    @classmethod
    def one_per_accel(cls, config: MachineConfig) -> "LaneSet":
        """The first lane of every accelerator (BFS's per-accel masters)."""
        return cls(
            config.first_lane_of_accel(a) for a in range(config.total_accels)
        )

    def __len__(self) -> int:
        return len(self.lanes)

    def __getitem__(self, i: int) -> int:
        return self.lanes[i]

    def __iter__(self):
        return iter(self.lanes)

    def by_node(self, config: MachineConfig) -> List[Tuple[int, List[int]]]:
        """Group lanes by node: ``[(node, [lanes...]), ...]`` in node order."""
        groups: dict[int, List[int]] = {}
        for lane in self.lanes:
            groups.setdefault(config.node_of(lane), []).append(lane)
        return sorted(groups.items())


#: one map assignment: (lane, key_lo, key_hi) — the lane maps keys [lo, hi)
Assignment = Tuple[int, int, int]


class MapBinding:
    """Base: partition ``n_keys`` integer keys across a lane set."""

    def partition(self, n_keys: int, lanes: LaneSet) -> List[Assignment]:
        raise NotImplementedError

    #: keys the master withholds for dynamic distribution (PBMW only)
    def master_pool(self, n_keys: int, lanes: LaneSet) -> Tuple[int, int]:
        return (n_keys, n_keys)  # empty


class BlockBinding(MapBinding):
    """Equal, contiguous blocks (the kv_map default)."""

    def partition(self, n_keys: int, lanes: LaneSet) -> List[Assignment]:
        L = len(lanes)
        out: List[Assignment] = []
        for i, lane in enumerate(lanes):
            lo = (n_keys * i) // L
            hi = (n_keys * (i + 1)) // L
            if lo < hi:
                out.append((lane, lo, hi))
        return out

    def __repr__(self) -> str:
        return "BlockBinding()"


class PBMWBinding(MapBinding):
    """Partial-Block + Master-Worker.

    Lanes receive ``initial_fraction`` of the key space as static blocks;
    the master keeps the rest and grants ``chunk_size``-key slices to lanes
    that finish early.
    """

    def __init__(self, initial_fraction: float = 0.5, chunk_size: int = 32):
        if not (0.0 < initial_fraction <= 1.0):
            raise ValueError("initial fraction must be in (0, 1]")
        if chunk_size < 1:
            raise ValueError("chunk size must be positive")
        self.initial_fraction = initial_fraction
        self.chunk_size = chunk_size

    def partition(self, n_keys: int, lanes: LaneSet) -> List[Assignment]:
        static = int(n_keys * self.initial_fraction)
        return BlockBinding().partition(static, lanes)

    def master_pool(self, n_keys: int, lanes: LaneSet) -> Tuple[int, int]:
        static = int(n_keys * self.initial_fraction)
        return (static, n_keys)

    def __repr__(self) -> str:
        return (
            f"PBMWBinding(initial_fraction={self.initial_fraction}, "
            f"chunk_size={self.chunk_size})"
        )


class KeyToLaneBinding(MapBinding):
    """Each key is its own task, placed by a user function ``fn(key)``."""

    def __init__(self, fn: Callable[[int], int]):
        self.fn = fn

    def partition(self, n_keys: int, lanes: LaneSet) -> List[Assignment]:
        return [(self.fn(k), k, k + 1) for k in range(n_keys)]

    def __repr__(self) -> str:
        return f"KeyToLaneBinding({getattr(self.fn, '__name__', self.fn)!r})"


class ReduceBinding:
    """Base: choose the lane that reduces a given key."""

    def lane_for(self, key, lanes: LaneSet) -> int:
        raise NotImplementedError


class HashBinding(ReduceBinding):
    """Hash keys across the lane set (the kv_reduce default).

    Hashing "ensures good load balance" (paper §4.1.2) even for skewed
    key popularity, because hot keys still land on a fixed owner lane that
    can combine locally.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        #: the seed's mix is key-independent — computed once, not per
        #: emit (lane_for runs on every kv_emit)
        self._seed_mix = splitmix64(seed)

    def lane_for(self, key, lanes: LaneSet) -> int:
        # splitmix64 open-coded for the dominant int-key case: this runs
        # once per emitted tuple machine-wide, and the call fan-out
        # (stable_hash -> splitmix64, __len__, __getitem__) costs more
        # than the mixing arithmetic.  Bit-identical to stable_hash.
        if key.__class__ is int:
            x = (key + 0x9E3779B97F4A7C15) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            h = x ^ (x >> 31)
        else:
            h = stable_hash(key)
        lst = lanes.lanes
        return lst[(h ^ self._seed_mix) % len(lst)]

    def __repr__(self) -> str:
        return f"HashBinding(seed={self.seed})"


class CustomReduceBinding(ReduceBinding):
    """User-supplied key -> lane placement."""

    def __init__(self, fn: Callable[[object], int]):
        self.fn = fn

    def lane_for(self, key, lanes: LaneSet) -> int:
        return self.fn(key)

    def __repr__(self) -> str:
        return (
            f"CustomReduceBinding({getattr(self.fn, '__name__', self.fn)!r})"
        )


class DataDrivenBinding(ReduceBinding):
    """Place each task on the node that owns the key's data (§2.3's
    "Data-driven (future)" scheme).

    The system queries the address translation: ``addr_fn(key)`` names
    the key's primary datum; the swizzle descriptor resolves its physical
    node; the task lands on one of that node's lanes (hashed within the
    node for balance).  Tasks then hit *local* DRAM — the 7:1 latency and
    3:1 bandwidth advantages of §3.2 — at the cost of inheriting the
    data layout's balance.
    """

    def __init__(self, gmem, addr_fn: Callable[[object], int], config):
        self.gmem = gmem
        self.addr_fn = addr_fn
        self.config = config
        self._lanes_by_node: dict[int, List[int]] = {}
        self._lanes_key: Optional[int] = None

    def _node_lanes(self, lanes: LaneSet) -> dict:
        if self._lanes_key != id(lanes):
            groups: dict[int, List[int]] = {}
            for lane in lanes:
                groups.setdefault(self.config.node_of(lane), []).append(lane)
            self._lanes_by_node = groups
            self._lanes_key = id(lanes)
        return self._lanes_by_node

    def lane_for(self, key, lanes: LaneSet) -> int:
        node = self.gmem.node_of(self.addr_fn(key))
        groups = self._node_lanes(lanes)
        node_lanes = groups.get(node)
        if not node_lanes:
            # the owning node has no lanes in this KVMSR set: fall back
            # to hashing over the whole set
            return lanes[stable_hash(key) % len(lanes)]
        return node_lanes[stable_hash(key) % len(node_lanes)]

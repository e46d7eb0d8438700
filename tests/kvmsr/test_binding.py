"""Computation binding schemes: Block, Hash, PBMW, KeyToLane."""

import collections
import enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kvmsr import (
    BlockBinding,
    CustomReduceBinding,
    HashBinding,
    KeyToLaneBinding,
    LaneSet,
    PBMWBinding,
    splitmix64,
    stable_hash,
)
from repro.machine import bench_machine

_MASK64 = (1 << 64) - 1


def reference_stable_hash(key) -> int:
    """The plain recursive ``stable_hash``; the fast path must match it."""
    if isinstance(key, (int,)):
        return splitmix64(key)
    if isinstance(key, str):
        h = 0xCBF29CE484222325
        for ch in key.encode():
            h = ((h ^ ch) * 0x100000001B3) & _MASK64
        return splitmix64(h)
    if isinstance(key, tuple):
        h = 0x9E3779B97F4A7C15
        for part in key:
            h = splitmix64(h ^ reference_stable_hash(part))
        return h
    raise TypeError(f"unhashable KVMSR key type: {type(key).__name__}")


class _Color(enum.IntEnum):
    RED = 3


_Pair = collections.namedtuple("_Pair", "a b")


_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=2**80),
    st.sampled_from([0, -1, True, False, _Color.RED]),
)
_leaves = st.one_of(_ints, st.text())
_keys = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash((1, "a")) == stable_hash((1, "a"))

    def test_distinguishes_values(self):
        assert stable_hash(1) != stable_hash(2)
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_rejects_unhashable(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2])

    @settings(derandomize=True, max_examples=300)
    @given(_keys)
    def test_fast_path_matches_reference(self, key):
        assert stable_hash(key) == reference_stable_hash(key)

    def test_fast_path_matches_reference_on_edge_values(self):
        keys = [
            -5, 0, 2**64, 2**64 + 7, True, False, _Color.RED,
            "", "abc", "ünïcødé ✓", (), (1, "a"), (True, _Color.RED, -1),
            (2**65, ("x", (0, ())), "y"), _Pair(1, "b"), (0, _Pair(2, 3)),
        ]
        for key in keys:
            assert stable_hash(key) == reference_stable_hash(key), key

    @pytest.mark.parametrize(
        "key", [1.0, [1, 2], np.int64(3), (1, 2.5), (1, [2])]
    )
    def test_unsupported_types_raise(self, key):
        with pytest.raises(TypeError):
            stable_hash(key)

    def test_splitmix_is_bijective_sample(self):
        outs = {splitmix64(i) for i in range(10_000)}
        assert len(outs) == 10_000


class TestLaneSet:
    def test_whole_machine(self):
        cfg = bench_machine(nodes=2)
        ls = LaneSet.whole_machine(cfg)
        assert len(ls) == cfg.total_lanes
        assert ls[0] == 0

    def test_nodes_subset(self):
        cfg = bench_machine(nodes=4)
        ls = LaneSet.nodes(cfg, 1, 2)
        assert ls[0] == cfg.first_lane_of_node(1)
        assert len(ls) == 2 * cfg.lanes_per_node

    def test_one_per_accel(self):
        cfg = bench_machine(nodes=2)
        ls = LaneSet.one_per_accel(cfg)
        assert len(ls) == cfg.total_accels
        assert all(l % cfg.lanes_per_accel == 0 for l in ls)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LaneSet([])

    def test_by_node_groups(self):
        cfg = bench_machine(nodes=2)
        groups = LaneSet.whole_machine(cfg).by_node(cfg)
        assert [n for n, _ in groups] == [0, 1]
        assert all(len(lanes) == cfg.lanes_per_node for _, lanes in groups)


class TestBlockBinding:
    def test_covers_keyspace_exactly(self):
        ls = LaneSet(range(7))
        asgs = BlockBinding().partition(100, ls)
        covered = sorted(
            (k for _, lo, hi in asgs for k in range(lo, hi))
        )
        assert covered == list(range(100))

    def test_blocks_are_contiguous_and_balanced(self):
        ls = LaneSet(range(4))
        asgs = BlockBinding().partition(100, ls)
        sizes = [hi - lo for _, lo, hi in asgs]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_keys_than_lanes(self):
        ls = LaneSet(range(10))
        asgs = BlockBinding().partition(3, ls)
        assert len(asgs) == 3  # empty assignments dropped

    def test_zero_keys(self):
        assert BlockBinding().partition(0, LaneSet(range(4))) == []

    def test_no_master_pool(self):
        assert BlockBinding().master_pool(100, LaneSet(range(4))) == (100, 100)


class TestHashBinding:
    def test_stable_per_key(self):
        ls = LaneSet(range(16))
        hb = HashBinding()
        assert hb.lane_for("k", ls) == hb.lane_for("k", ls)

    def test_lanes_within_set(self):
        ls = LaneSet(range(5, 21))
        hb = HashBinding()
        for k in range(200):
            assert hb.lane_for(k, ls) in set(range(5, 21))

    def test_roughly_balanced(self):
        """Hash "ensures good load balance" (§4.1.2)."""
        ls = LaneSet(range(8))
        hb = HashBinding()
        counts = [0] * 8
        for k in range(8000):
            counts[hb.lane_for(k, ls)] += 1
        assert max(counts) < 2 * min(counts)

    def test_seed_changes_mapping(self):
        ls = LaneSet(range(64))
        a = HashBinding(seed=0)
        b = HashBinding(seed=1)
        diffs = sum(a.lane_for(k, ls) != b.lane_for(k, ls) for k in range(100))
        assert diffs > 50


class TestPBMW:
    def test_initial_fraction_static(self):
        ls = LaneSet(range(4))
        b = PBMWBinding(initial_fraction=0.5, chunk_size=8)
        asgs = b.partition(100, ls)
        static_keys = sum(hi - lo for _, lo, hi in asgs)
        assert static_keys == 50
        assert b.master_pool(100, ls) == (50, 100)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PBMWBinding(initial_fraction=0.0)
        with pytest.raises(ValueError):
            PBMWBinding(initial_fraction=1.5)
        with pytest.raises(ValueError):
            PBMWBinding(chunk_size=0)

    def test_full_fraction_degenerates_to_block(self):
        ls = LaneSet(range(4))
        b = PBMWBinding(initial_fraction=1.0)
        assert b.master_pool(100, ls) == (100, 100)


class TestKeyToLane:
    def test_paper_hash_idiom(self):
        """LaneID = (hash(key) % NRLanes) + 1stLane (§2.3)."""
        nr_lanes, first = 16, 32
        binding = KeyToLaneBinding(
            lambda k: (stable_hash(k) % nr_lanes) + first
        )
        asgs = binding.partition(10, LaneSet(range(first, first + nr_lanes)))
        assert len(asgs) == 10
        for lane, lo, hi in asgs:
            assert hi == lo + 1
            assert first <= lane < first + nr_lanes

    def test_custom_reduce_binding(self):
        b = CustomReduceBinding(lambda k: 7)
        assert b.lane_for("anything", LaneSet(range(16))) == 7


@given(
    n_keys=st.integers(0, 5000),
    n_lanes=st.integers(1, 300),
)
def test_block_partition_property(n_keys, n_lanes):
    """Partition is a true partition: disjoint, complete, ordered."""
    asgs = BlockBinding().partition(n_keys, LaneSet(range(n_lanes)))
    total = 0
    prev_hi = 0
    for _, lo, hi in asgs:
        assert lo == prev_hi or prev_hi == 0 and lo == 0
        assert lo < hi
        total += hi - lo
        prev_hi = hi
    assert total == n_keys

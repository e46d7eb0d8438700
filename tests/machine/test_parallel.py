"""Conservative sharded execution: lookahead, partitioning, windowed runs.

The parity of full application runs (sequential vs shards) lives in
``tests/integration/test_parallel_parity.py``; this module covers the
machine-layer mechanics — the lookahead knob, shard validation, bounded
stepping, and the shard scheduler.
"""

import pytest

from repro.machine import (
    MessageRecord,
    SimulationError,
    Simulator,
    bench_machine,
)
from repro.machine.events import NEW_THREAD


def null_dispatcher(cycles=5.0):
    executed = []

    def dispatch(sim, lane, record, start):
        executed.append((lane.network_id, record.label, start))
        return cycles

    dispatch.executed = executed
    return dispatch


class TestLookahead:
    def test_default_lookahead_is_dram_transit(self):
        cfg = bench_machine(nodes=2)
        # min(cross-node message latency, remote DRAM transit): with the
        # paper defaults the DRAM transit (600) undercuts the 1000-cycle
        # message latency
        assert cfg.conservative_lookahead_cycles == min(
            float(cfg.remote_msg_latency_cycles),
            cfg.remote_dram_transit_cycles,
        )
        assert cfg.conservative_lookahead_cycles == 600.0

    def test_message_latency_can_be_the_binding_term(self):
        cfg = bench_machine(nodes=2, remote_msg_latency_cycles=100)
        assert cfg.conservative_lookahead_cycles == 100.0

    def test_ratio_one_means_zero_lookahead(self):
        cfg = bench_machine(nodes=2, remote_dram_latency_ratio=1)
        assert cfg.conservative_lookahead_cycles == 0.0


class TestShardValidation:
    def test_shard_partition_is_contiguous_and_balanced(self):
        sim = Simulator(
            bench_machine(nodes=10),
            dispatcher=null_dispatcher(),
            shards=3,
        )
        part = sim._shard_of_node
        assert part == sorted(part)  # contiguous blocks
        assert set(part) == {0, 1, 2}  # every shard owns nodes
        sizes = [part.count(s) for s in range(3)]
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_sequential_has_no_partition(self):
        sim = Simulator(bench_machine(nodes=4), dispatcher=null_dispatcher())
        assert sim._shard_of_node is None

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(SimulationError, match="exceed"):
            Simulator(
                bench_machine(nodes=2),
                dispatcher=null_dispatcher(),
                shards=4,
            )

    def test_zero_shards_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(
                bench_machine(nodes=2),
                dispatcher=null_dispatcher(),
                shards=0,
            )

    def test_jitter_incompatible_with_shards(self):
        with pytest.raises(SimulationError, match="jitter"):
            Simulator(
                bench_machine(nodes=2),
                dispatcher=null_dispatcher(),
                shards=2,
                latency_jitter_cycles=10.0,
            )

    def test_zero_lookahead_rejected(self):
        with pytest.raises(SimulationError, match="lookahead"):
            Simulator(
                bench_machine(nodes=2, remote_dram_latency_ratio=1),
                dispatcher=null_dispatcher(),
                shards=2,
            )

    def test_in_process_shards_honor_until(self):
        disp = null_dispatcher(cycles=1.0)
        cfg = bench_machine(nodes=2)
        sim = Simulator(cfg, dispatcher=disp, shards=2)
        # one event per shard per tick, so both shard heaps stay populated
        other = cfg.lanes_per_node  # first lane of node 1 (shard 1)
        for i, t in enumerate((10.0, 20.0, 30.0)):
            sim.inject(MessageRecord(0, NEW_THREAD, f"a{i}"), t=t)
            sim.inject(MessageRecord(other, NEW_THREAD, f"b{i}"), t=t)
        sim.run(until=15.0)
        assert sorted(label for _, label, _ in disp.executed) == ["a0", "b0"]
        assert not sim.stats.quiesced  # later events still queued
        sim.run(until=25.0)
        assert sorted(label for _, label, _ in disp.executed) == [
            "a0", "a1", "b0", "b1"
        ]
        sim.run()  # unbounded finishes the rest
        assert len(disp.executed) == 6
        assert sim.stats.quiesced

    def test_cross_shard_blocking_read_rejected(self):
        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=null_dispatcher(),
            shards=2,
        )
        with pytest.raises(SimulationError, match="blocking"):
            sim.dram_transaction(
                MessageRecord(0, NEW_THREAD, "r", src_network_id=0),
                0.0, 0, 1, 64, is_read=True, blocking=True,
            )

    def test_same_shard_blocking_read_allowed(self):
        sim = Simulator(
            bench_machine(nodes=4),
            dispatcher=null_dispatcher(),
            shards=2,
        )
        t_back = sim.dram_transaction(
            MessageRecord(0, NEW_THREAD, "r", src_network_id=0),
            0.0, 0, 1, 64, is_read=True, blocking=True,
        )
        assert t_back > 0.0


class TestBoundedStepping:
    """``run(until=...)`` — the windowed stepper the shard drivers use."""

    def _sim(self):
        disp = null_dispatcher(cycles=1.0)
        sim = Simulator(bench_machine(nodes=1), dispatcher=disp)
        for i, t in enumerate((10.0, 20.0, 30.0)):
            sim.inject(MessageRecord(0, NEW_THREAD, f"e{i}"), t=t)
        return sim, disp

    def test_until_is_exclusive_and_heap_survives(self):
        sim, disp = self._sim()
        sim.run(until=20.0)
        assert [label for _, label, _ in disp.executed] == ["e0"]
        assert len(sim._heap) == 2  # later events still queued
        assert sim.stats.events_executed == 1

    def test_reentry_continues_where_it_stopped(self):
        sim, disp = self._sim()
        sim.run(until=15.0)
        sim.run(until=25.0)
        assert [label for _, label, _ in disp.executed] == ["e0", "e1"]
        sim.run()  # unbounded finishes the rest
        assert [label for _, label, _ in disp.executed] == ["e0", "e1", "e2"]
        assert sim._heap == []

    def test_until_before_first_event_is_a_no_op(self):
        sim, disp = self._sim()
        sim.run(until=5.0)
        assert disp.executed == []
        assert len(sim._heap) == 3

    def test_max_events_is_per_call(self):
        # each bounded run() gets its own budget (the guard trips when
        # the budget-th event executes), so 2-per-call passes across two
        # windows where a single 2-total run over 3 events raises
        sim, disp = self._sim()
        sim.run(until=15.0, max_events=2)
        sim.run(until=25.0, max_events=2)
        assert len(disp.executed) == 2

    def test_max_events_still_guards_within_window(self):
        sim, _ = self._sim()
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=40.0, max_events=2)

    def test_busy_lane_crossing_the_window_finishes_its_event(self):
        # an event started before `until` runs to completion (events are
        # atomic); only *deliveries* at t >= until are deferred
        disp = null_dispatcher(cycles=100.0)
        sim = Simulator(bench_machine(nodes=1), dispatcher=disp)
        sim.inject(MessageRecord(0, NEW_THREAD, "long"), t=10.0)
        sim.run(until=20.0)
        assert sim.stats.final_tick == 110.0


class TestShardScheduler:
    """In-process sharded runs against the sequential reference."""

    def _chain_dispatcher(self, hops):
        """Each delivery forwards to the next lane round-robin until the
        hop budget is spent — a workload that crosses nodes constantly."""
        executed = []

        def dispatch(sim, lane, record, start):
            executed.append((lane.network_id, record.label, start))
            remaining = record.operands[0]
            if remaining > 0:
                dst = (lane.network_id + 1) % sim.config.total_lanes
                sim.send(
                    MessageRecord(
                        dst,
                        NEW_THREAD,
                        record.label,
                        (remaining - 1,),
                        src_network_id=lane.network_id,
                    ),
                    start + 2.0,
                    src_node=sim.config.node_of(lane.network_id),
                )
            return 2.0

        dispatch.executed = executed
        return dispatch

    def _run(self, shards):
        disp = self._chain_dispatcher(hops=40)
        sim = Simulator(
            bench_machine(nodes=4), dispatcher=disp, shards=shards
        )
        for i in range(sim.config.total_lanes):
            sim.inject(MessageRecord(i, NEW_THREAD, f"chain{i}", (40,)), t=0.0)
        stats = sim.run()
        return stats.scalar_snapshot(), disp.executed

    def test_sharded_run_is_bit_identical(self):
        fp1, exec1 = self._run(shards=1)
        for shards in (2, 4):
            fp, ex = self._run(shards=shards)
            assert fp == fp1
            # per-lane execution traces match exactly (order within a
            # lane is the sequential order restricted to that lane)
            for lane in {e[0] for e in exec1}:
                assert [e for e in ex if e[0] == lane] == [
                    e for e in exec1 if e[0] == lane
                ]

    def test_multiple_drains_reuse_the_scheduler(self):
        disp = self._chain_dispatcher(hops=10)
        sim = Simulator(bench_machine(nodes=2), dispatcher=disp, shards=2)
        sim.inject(MessageRecord(0, NEW_THREAD, "a", (10,)), t=0.0)
        sim.run()
        first = sim.stats.events_executed
        assert first == 11
        sched = sim._scheduler
        sim.inject(MessageRecord(1, NEW_THREAD, "b", (10,)), t=0.0)
        sim.run()
        assert sim._scheduler is sched
        assert sim.stats.events_executed == 2 * first

    def test_host_mailbox_matches_sequential(self):
        from repro.machine import HOST_NWID

        def both(shards):
            disp = null_dispatcher()
            sim = Simulator(
                bench_machine(nodes=2), dispatcher=disp, shards=shards
            )
            for i in range(4):
                sim.send(
                    MessageRecord(
                        HOST_NWID, 0, f"done{i}", (i,), src_network_id=i
                    ),
                    float(10 * i),
                    src_node=sim.config.node_of(i),
                )
            sim.run()
            return [(t, r.label) for t, r in sim.host_inbox]

        assert both(shards=2) == both(shards=1)

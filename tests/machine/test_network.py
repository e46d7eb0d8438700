"""Network model: latency constants, injection bandwidth, jitter."""

import pytest

from repro.machine import bench_machine
from repro.machine.network import InjectionChannel, Network
from repro.observe import FlightRecorder


@pytest.fixture
def net():
    return Network(bench_machine(nodes=4))


class TestLatency:
    def test_remote_latency_is_half_microsecond(self, net):
        # 0.5 us at 2 GHz = 1000 cycles (paper §3)
        assert net.latency(0, 1) == 1000.0

    def test_local_latency_much_smaller(self, net):
        assert net.latency(2, 2) < net.latency(2, 3)

    def test_diameter3_distance_independence(self, net):
        # PolarStar is diameter-3: remote latency is pair-independent
        assert net.latency(0, 1) == net.latency(0, 3) == net.latency(2, 0)


class TestInjection:
    def test_intranode_bypasses_injection_port(self, net):
        t = net.deliver_time(0.0, 0, 0, 64)
        assert t == net.latency(0, 0)
        assert net.injected_bytes(0) == 0

    def test_back_to_back_sends_queue(self):
        cfg = bench_machine(nodes=2, node_injection_bytes_per_cycle=32.0)
        net = Network(cfg)
        t1 = net.deliver_time(0.0, 0, 1, 64)
        t2 = net.deliver_time(0.0, 0, 1, 64)
        # second message waits for the first's 2-cycle occupancy
        assert t2 == pytest.approx(t1 + 64 / 32.0)

    def test_injection_tracks_bytes(self):
        net = Network(bench_machine(nodes=2))
        net.deliver_time(0.0, 0, 1, 64)
        net.deliver_time(0.0, 0, 1, 64)
        assert net.injected_bytes(0) == 128

    def test_host_injection_is_free(self, net):
        assert net.deliver_time(5.0, None, 3, 64) == 5.0

    def test_channel_admit_is_monotone(self):
        ch = InjectionChannel()
        d1 = ch.admit(0.0, 2.0, 64)
        d2 = ch.admit(1.0, 2.0, 64)
        assert d2 == d1 + 2.0
        assert ch.bytes_injected == 128

    def test_byte_accounting_is_overflow_safe(self):
        """Long chaos soaks push channel totals past 2**53; the counter
        must stay an exact Python int even when a caller hands a float
        ``nbytes`` (easy to produce from derived byte arithmetic) —
        float accumulation would silently lose whole bytes up there."""
        ch = InjectionChannel()
        ch.bytes_injected = 2**53  # beyond exact float integer range
        ch.admit(0.0, 1.0, 64.0)
        assert isinstance(ch.bytes_injected, int)
        assert ch.bytes_injected == 2**53 + 64
        ch.admit(1.0, 1.0, 1.0)
        assert ch.bytes_injected == 2**53 + 65  # float math would drop it

        # the recorded send paths inline the admit; they must coerce too
        net = Network(bench_machine(nodes=2), recorder=FlightRecorder("histograms"))
        inj, reply = net._channel(0), net._reply_channel(1)
        inj.bytes_injected = reply.bytes_injected = 2**53
        net.deliver_time(0.0, 0, 1, 1.0)
        net.dram_hop(0.0, 0, 1, 1.0, 10.0)
        net.dram_hop(0.0, 1, 0, 1.0, 10.0, reply=True)
        assert isinstance(inj.bytes_injected, int)
        assert isinstance(reply.bytes_injected, int)
        assert inj.bytes_injected == 2**53 + 2
        assert reply.bytes_injected == 2**53 + 1

    def test_occupancy_memo_matches_direct_division(self):
        """deliver_time's per-size occupancy memo must reproduce the
        exact division — same floats, just computed once per size."""
        cfg = bench_machine(nodes=2)
        net = Network(cfg)
        t1 = net.deliver_time(0.0, 0, 1, 64)
        expected = 64 / cfg.node_injection_bytes_per_cycle + 1000.0
        assert t1 == expected
        # memoized second call: queues exactly one occupancy behind
        t2 = net.deliver_time(0.0, 0, 1, 64)
        assert t2 == t1 + 64 / cfg.node_injection_bytes_per_cycle


class TestJitter:
    def test_jitter_is_seeded_and_bounded(self):
        cfg = bench_machine(nodes=2)
        a = Network(cfg, jitter_cycles=50.0, seed=7)
        b = Network(cfg, jitter_cycles=50.0, seed=7)
        seq_a = [a.latency(0, 1) for _ in range(20)]
        seq_b = [b.latency(0, 1) for _ in range(20)]
        assert seq_a == seq_b  # reproducible
        assert all(1000.0 <= v <= 1050.0 for v in seq_a)
        assert len(set(seq_a)) > 1  # actually jittering

    def test_zero_jitter_is_deterministic_constant(self):
        net = Network(bench_machine(nodes=2))
        assert len({net.latency(0, 1) for _ in range(10)}) == 1

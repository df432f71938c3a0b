"""JIT grant kernel tier vs the event-heap oracle and the epoch engine.

``engine="epochs-jit"`` (the flattened grant kernel, numba-compiled
when available and interpreted otherwise) is pinned bit-exactly to the
event-heap oracle and the epoch engine -- completions, latencies, FIFO
tie-breaks (same-cycle requests granted in packet-id order) and every
``LinkTelemetry`` counter -- open loop (infinite buffers) and under
closed-loop flow control, on mesh (SIAM), Kite, SWAP and Floret; every
tier detects the identical credit deadlock on the cyclic-route ring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.experiments import load_sweep_traffic, parse_load_workload
from repro.net.flowcontrol import (
    FlowControlDeadlockError,
    FlowControlParams,
)
from repro.net.grantkernel import NUMBA_AVAILABLE, warmup_kernels
from repro.net.simulator import Message, simulate, simulate_packets
from repro.noi.topology import Chiplet, Link, Topology

TOPOLOGY_FIXTURES = ("small_mesh", "small_kite", "small_swap",
                     "small_floret")

NEW_TIERS = ("epochs-jit",)

FC_CONFIGS = (
    None,
    FlowControlParams(buffer_flits=4, credit_rtt=2),
    FlowControlParams(buffer_flits=8, source_queue=2, credit_rtt=3),
    FlowControlParams(source_queue=1),
)

TELEMETRY_FIELDS = (
    "accepted_packets", "accepted_flits", "busy_cycles", "stall_cycles",
    "credit_stall_cycles", "peak_queue_flits",
)


def _topology(request, fixture):
    topo = request.getfixturevalue(fixture)
    return topo.topology if fixture == "small_floret" else topo


def _fc_id(fc):
    if fc is None:
        return "open"
    return f"B{fc.buffer_flits}Q{fc.source_queue}"


@pytest.fixture(scope="module")
def line():
    chiplets = [Chiplet(i, x=i, y=0) for i in range(8)]
    links = [Link(i, i + 1, length_mm=3.0) for i in range(7)]
    return Topology("line8", chiplets, links)


@pytest.fixture(scope="module")
def ring5():
    chiplets = [Chiplet(i, x=i, y=0) for i in range(5)]
    links = [Link(i, (i + 1) % 5, length_mm=3.0) for i in range(5)]
    return Topology("ring5", chiplets, links)


def run_or_deadlock(topo, table, fc, engine):
    try:
        return simulate_packets(topo, table, engine=engine,
                                flow_control=fc, telemetry=True)
    except FlowControlDeadlockError as error:
        return ("deadlock", error.blocked, error.links)


def assert_sims_identical(a, b):
    assert np.array_equal(a.completion, b.completion)
    assert np.array_equal(a.latency, b.latency)
    assert a.report().message_completion == b.report().message_completion
    if a.telemetry is not None or b.telemetry is not None:
        assert a.telemetry.horizon_cycles == b.telemetry.horizon_cycles
        for field in TELEMETRY_FIELDS:
            assert np.array_equal(getattr(a.telemetry, field),
                                  getattr(b.telemetry, field)), field
        assert np.allclose(a.telemetry.mean_queue_flits,
                           b.telemetry.mean_queue_flits)


class TestTierEquivalence:
    """The JIT tier bit-exact vs the heap oracle on seeded sweeps."""

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fc", FC_CONFIGS, ids=_fc_id)
    def test_random_load_sweep(self, fixture, seed, fc, request):
        # Tiny buffers legitimately deadlock the ring-bearing
        # topologies; the deadlock report is then the result and every
        # tier must agree on it.
        topo = _topology(request, fixture)
        spec = parse_load_workload("uniform@0.08:w64+192")
        table = load_sweep_traffic(spec, topo.num_chiplets, seed)
        oracle = run_or_deadlock(topo, table, fc, "events")
        for tier in NEW_TIERS:
            got = run_or_deadlock(topo, table, fc, tier)
            if isinstance(oracle, tuple) or isinstance(got, tuple):
                assert got == oracle, tier
                continue
            assert_sims_identical(oracle, got)
            assert got.engine == tier

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_hotspot_matches_epoch_engine(self, fixture, request):
        topo = _topology(request, fixture)
        spec = parse_load_workload("hotspot@0.12:w32+96")
        table = load_sweep_traffic(spec, topo.num_chiplets, 7)
        fc = FlowControlParams(buffer_flits=4, credit_rtt=1)
        epochs = run_or_deadlock(topo, table, fc, "epochs")
        for tier in NEW_TIERS:
            got = run_or_deadlock(topo, table, fc, tier)
            if isinstance(epochs, tuple) or isinstance(got, tuple):
                assert got == epochs, tier
                continue
            assert_sims_identical(epochs, got)

    def test_fifo_tie_break_parity(self, line):
        # Same route, same inject cycle: packetisation order must win
        # on every tier, not just the heap.
        msgs = [Message(0, 3, 64, inject_cycle=4, message_id=i)
                for i in range(6)]
        oracle = simulate(line, msgs, engine="events")
        for tier in NEW_TIERS:
            report = simulate(line, msgs, engine=tier)
            assert report.message_completion == oracle.message_completion
            completions = [report.message_completion[i] for i in range(6)]
            assert completions == sorted(completions)

    def test_multi_packet_messages(self, line):
        rng = np.random.default_rng(7)
        msgs = [
            Message(
                src=int(rng.integers(0, 8)),
                dst=int(rng.integers(0, 8)),
                payload_bytes=int(rng.integers(0, 900)),
                inject_cycle=int(rng.integers(0, 64)),
                message_id=i,
            )
            for i in range(60)
        ]
        oracle = simulate(line, msgs, engine="events")
        for tier in NEW_TIERS:
            report = simulate(line, msgs, engine=tier)
            assert report.message_completion == oracle.message_completion
            assert report.makespan_cycles == oracle.makespan_cycles
            assert report.mean_packet_latency == oracle.mean_packet_latency


class TestDeadlockParity:
    FLOWS = [Message(i, (i + 2) % 5, 64, inject_cycle=0, message_id=i)
             for i in range(5)] + \
            [Message(i, (i + 2) % 5, 64, inject_cycle=1,
                     message_id=5 + i) for i in range(5)]
    FC = FlowControlParams(buffer_flits=2, credit_rtt=1)

    def test_all_tiers_detect_same_deadlock(self, ring5):
        errors = []
        for engine in ("events", "epochs") + NEW_TIERS:
            with pytest.raises(FlowControlDeadlockError) as info:
                simulate(ring5, self.FLOWS, engine=engine,
                         flow_control=self.FC)
            errors.append(info.value)
        baseline = errors[0]
        assert baseline.blocked > 0
        for error in errors[1:]:
            assert error.blocked == baseline.blocked
            assert error.links == baseline.links


class TestJitTierFallback:
    def test_jit_tier_runs_without_numba(self, line):
        # With numba absent the kernel runs interpreted but is still
        # selectable and bit-exact; with numba present it compiles.
        msgs = [Message(0, 4, 64, inject_cycle=i % 3, message_id=i)
                for i in range(20)]
        sim = simulate_packets(line, msgs, engine="epochs-jit")
        assert sim.engine == "epochs-jit"
        oracle = simulate_packets(line, msgs, engine="events")
        assert np.array_equal(sim.completion, oracle.completion)

    def test_warmup_reports_availability(self):
        assert warmup_kernels() is NUMBA_AVAILABLE

    def test_auto_prefers_parallel_without_numba(self, line, monkeypatch):
        from repro.net import grantkernel
        from repro.net import simulator

        monkeypatch.setattr(grantkernel, "NUMBA_AVAILABLE", False)
        monkeypatch.setattr(simulator, "_GRANTKERNEL", grantkernel)
        msgs = [Message(0, 1, 64, message_id=i) for i in range(100)]
        sim = simulate_packets(line, msgs, engine="auto")
        assert sim.engine == "epochs"

    def test_auto_prefers_jit_with_numba(self, line, monkeypatch):
        from repro.net import grantkernel
        from repro.net import simulator

        monkeypatch.setattr(grantkernel, "NUMBA_AVAILABLE", True)
        monkeypatch.setattr(simulator, "_GRANTKERNEL", grantkernel)
        msgs = [Message(0, 1, 64, message_id=i) for i in range(100)]
        sim = simulate_packets(line, msgs, engine="auto")
        assert sim.engine == "epochs-jit"


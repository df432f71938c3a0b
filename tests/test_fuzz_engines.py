"""Differential fuzzing of the simulator engines (hypothesis).

Random small topologies (lines, the deadlock-prone 5-ring, a 3x3 mesh,
each with random link lengths), random message tables and random
flow-control knobs -- open loop, finite buffers, a source queue, or
both -- run through the event-heap oracle and every fast tier.  Every
tier must agree with the oracle exactly: completions, latencies, the
whole ``LinkTelemetry`` census and the sorted grant trace, or the same
:class:`FlowControlDeadlockError` (``blocked`` and ``links``).  Open
loop must equal flow control with effectively infinite buffers, and
every packet's journey components must sum to its latency.

The suite is derandomised with a fixed example budget, so tier-1 runs
the same examples every time.  A counterexample the fuzzer shrinks is
committed to ``TestRegressions``, next to hand-picked deadlock and tie
cases.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flowcontrol import FlowControlDeadlockError, FlowControlParams
from repro.net.journey import COMPONENTS, latency_breakdown
from repro.net.simulator import simulate_packets
from repro.noi.mesh import build_mesh
from repro.noi.topology import Chiplet, Link, Topology

#: Every tier that resolves a contended subset; ``events`` is the oracle.
TIERS = ("events", "epochs")

INFINITE = FlowControlParams(buffer_flits=10 ** 6)

TELEMETRY_FIELDS = (
    "horizon_cycles", "accepted_packets", "accepted_flits", "busy_cycles",
    "stall_cycles", "credit_stall_cycles", "peak_queue_flits",
    "mean_queue_flits",
)

LENGTHS_MM = (1.0, 3.0, 7.5)


@lru_cache(maxsize=None)
def _topology(kind: str, lengths: tuple) -> Topology:
    if kind == "mesh9":
        return build_mesh(9)
    n = len(lengths) + (1 if kind == "line" else 0)
    chiplets = [Chiplet(i, x=i, y=0) for i in range(n)]
    links = [Link(i, (i + 1) % n, length_mm=length)
             for i, length in enumerate(lengths)]
    return Topology(f"{kind}{n}", chiplets, links)


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(("line", "ring", "mesh9")))
    if kind == "mesh9":
        return _topology(kind, ())
    # The ring is fixed at five nodes: every 2-hop route runs the same
    # way round, so i -> i+2 flows close a cycle of held buffers.
    count = 5 if kind == "ring" else draw(st.integers(2, 6))
    lengths = tuple(draw(st.lists(st.sampled_from(LENGTHS_MM),
                                  min_size=count, max_size=count)))
    return _topology(kind, lengths)


@st.composite
def message_tables(draw, n: int):
    rows = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, 260), st.integers(0, 24)),
        min_size=1, max_size=24,
    ))
    table = np.array(rows, dtype=np.int64).reshape(-1, 4)
    ids = np.arange(table.shape[0], dtype=np.int64)
    return np.column_stack([table, ids])


flow_controls = st.one_of(
    st.none(),
    st.builds(FlowControlParams, buffer_flits=st.integers(3, 8),
              credit_rtt=st.integers(1, 3)),
    st.builds(FlowControlParams, source_queue=st.integers(1, 3)),
    st.builds(FlowControlParams, buffer_flits=st.integers(3, 8),
              source_queue=st.integers(1, 3),
              credit_rtt=st.integers(1, 3)),
)


def _run(topo, table, fc, engine, packet_bytes, batch):
    """Outcome of one run: the sim, or the deadlock's identity."""
    try:
        return simulate_packets(
            topo, table, engine=engine, flow_control=fc,
            packet_bytes=packet_bytes, batch_uncontended=batch,
            telemetry=True, attribution=True,
        )
    except FlowControlDeadlockError as error:
        return ("deadlock", error.blocked, error.links)


def _assert_same(oracle, got, label):
    if isinstance(oracle, tuple) or isinstance(got, tuple):
        assert got == oracle, label
        return
    assert np.array_equal(got.completion, oracle.completion), label
    assert np.array_equal(got.latency, oracle.latency), label
    for field in TELEMETRY_FIELDS:
        assert np.array_equal(getattr(got.telemetry, field),
                              getattr(oracle.telemetry, field)), (label,
                                                                  field)
    a, b = got.trace.sorted(), oracle.trace.sorted()
    for field in ("packet", "hop", "link", "ready", "start", "flits",
                  "credit_wait"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), (
            label, field)


def check_case(topo, table, fc, packet_bytes=64, batch=True):
    """Every tier (and open loop vs infinite buffers) matches the oracle."""
    oracle = _run(topo, table, fc, "events", packet_bytes, batch)
    for engine in TIERS[1:] + ("auto",):
        _assert_same(oracle, _run(topo, table, fc, engine, packet_bytes,
                                  batch), engine)
    if fc is None:
        for engine in TIERS:
            _assert_same(oracle, _run(topo, table, INFINITE, engine,
                                      packet_bytes, batch),
                         f"infinite-{engine}")
    if isinstance(oracle, tuple):
        return oracle
    breakdown = latency_breakdown(oracle, topo)
    total = sum(breakdown.component(name) for name in COMPONENTS)
    assert np.array_equal(total, oracle.latency)
    assert np.all(breakdown.queue_wait >= 0)
    assert np.all(breakdown.credit_stall >= 0)
    if fc is None or fc.buffer_flits is None:
        assert not breakdown.credit_stall.any()
    return oracle


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), topo=topologies(), fc=flow_controls,
       packet_bytes=st.sampled_from((32, 64, 96)), batch=st.booleans())
def test_tiers_agree_with_oracle(data, topo, fc, packet_bytes, batch):
    table = data.draw(message_tables(topo.num_chiplets))
    check_case(topo, table, fc, packet_bytes, batch)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flows=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 260),
                                st.integers(0, 6)),
                      min_size=5, max_size=20),
       buffer_flits=st.integers(3, 6), credit_rtt=st.integers(1, 3),
       source_queue=st.one_of(st.none(), st.integers(1, 2)))
def test_ring_cycles_agree(flows, buffer_flits, credit_rtt, source_queue):
    # Only clockwise 2-hop flows on the 5-ring: dense enough that tiny
    # buffers often deadlock, so the deadlock reports get compared too.
    topo = _topology("ring", (3.0,) * 5)
    table = np.array([[i, (i + 2) % 5, payload, t, k]
                      for k, (i, payload, t) in enumerate(flows)],
                     dtype=np.int64)
    fc = FlowControlParams(buffer_flits=buffer_flits,
                           source_queue=source_queue,
                           credit_rtt=credit_rtt)
    check_case(topo, table, fc, packet_bytes=96)


class TestRegressions:
    """Explicit cases: shrunk counterexamples and hand-picked edges."""

    def test_ring_deadlock_identical_on_every_tier(self):
        # Five 2-hop clockwise flows twice over with 3-flit buffers
        # and 96 B (3-flit) packets: every buffer fills and the
        # held-buffer cycle never drains.
        topo = _topology("ring", (3.0,) * 5)
        table = np.array(
            [[i, (i + 2) % 5, 96, t, 5 * t + i]
             for t in (0, 1) for i in range(5)], dtype=np.int64,
        )
        outcome = check_case(topo, table,
                             FlowControlParams(buffer_flits=3),
                             packet_bytes=96)
        assert outcome[0] == "deadlock"
        assert outcome[1] > 0

    def test_mixed_flit_tie_on_line(self):
        # A 1-flit remainder packet and a 2-flit packet meet on the same
        # link in the same cycle; the lower packet id is granted first.
        topo = _topology("line", (1.0, 7.5, 3.0))
        table = np.array([[0, 3, 96, 0, 0], [1, 3, 64, 0, 1],
                          [2, 3, 32, 3, 2]], dtype=np.int64)
        for fc in (None, FlowControlParams(buffer_flits=3),
                   FlowControlParams(source_queue=1)):
            sim = check_case(topo, table, fc)
            assert sim.packets == 4

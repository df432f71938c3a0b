"""Closed-loop flow control: params, engines, telemetry, deadlock.

Tentpole coverage: the epoch-synchronous flow-control engine is pinned
bit-exactly to the event-heap oracle -- completions, latencies, FIFO
tie-breaks and every ``LinkTelemetry`` counter -- across seeded
finite-buffer load sweeps on mesh (SIAM), Kite, SWAP and Floret; open
loop (``flow_control=None``) is flow control with infinite buffers,
bit-identical to ``buffer_flits=10**6`` under the one arbitration rule
(same-cycle link requests granted in packet-id order); and both engines
detect the same credit deadlock on a crafted cyclic-route workload.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.eval.experiments import load_sweep_traffic, parse_load_workload
from repro.net.flowcontrol import (
    _INF,
    _NEG,
    FlowControlDeadlockError,
    FlowControlParams,
    GrantTrace,
    _credit_ready_times,
    _link_time_order,
    link_telemetry,
    simulate_fc_epochs,
)
from repro.net.simulator import Message, simulate, simulate_packets
from repro.noi.topology import Chiplet, Link, Topology
from repro.params import NoIParams

TOPOLOGY_FIXTURES = ("small_mesh", "small_kite", "small_swap",
                     "small_floret")

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


@pytest.fixture(scope="module")
def line():
    chiplets = [Chiplet(i, x=i, y=0) for i in range(8)]
    links = [Link(i, i + 1, length_mm=3.0) for i in range(7)]
    return Topology("line8", chiplets, links)


@pytest.fixture(scope="module")
def ring5():
    """5-node ring: every 2-hop route is uniquely clockwise, so flows
    ``i -> i+2`` form a directed cycle of held buffers -- the classic
    store-and-forward deadlock substrate."""
    chiplets = [Chiplet(i, x=i, y=0) for i in range(5)]
    links = [Link(i, (i + 1) % 5, length_mm=3.0) for i in range(5)]
    return Topology("ring5", chiplets, links)


def run_or_deadlock(topo, table, fc, engine, **kwargs):
    """Simulate, or capture the deadlock -- either way comparable."""
    try:
        return simulate_packets(topo, table, engine=engine,
                                flow_control=fc, telemetry=True, **kwargs)
    except FlowControlDeadlockError as error:
        return ("deadlock", error.blocked, error.links)


def assert_fc_identical(a, b):
    assert np.array_equal(a.completion, b.completion)
    assert np.array_equal(a.latency, b.latency)
    if a.telemetry is not None or b.telemetry is not None:
        assert a.telemetry.horizon_cycles == b.telemetry.horizon_cycles
        for field in TELEMETRY_FIELDS:
            assert np.array_equal(getattr(a.telemetry, field),
                                  getattr(b.telemetry, field)), field
        assert np.allclose(a.telemetry.mean_queue_flits,
                           b.telemetry.mean_queue_flits)


class TestFlowControlParams:
    def test_defaults_inactive(self):
        fc = FlowControlParams()
        assert not fc.is_active
        assert fc.credit_rtt == 1

    @pytest.mark.parametrize("kwargs", [
        {"buffer_flits": 0}, {"buffer_flits": -3},
        {"source_queue": 0}, {"source_queue": -1},
        {"credit_rtt": 0}, {"credit_rtt": -2},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowControlParams(**kwargs)

    def test_active_forms(self):
        assert FlowControlParams(buffer_flits=4).is_active
        assert FlowControlParams(source_queue=2).is_active

    def test_noi_params_threading(self):
        params = NoIParams(fc_buffer_flits=8.0, fc_source_queue=2,
                           fc_credit_rtt=3)
        fc = params.flow_control()
        # Sweep overrides arrive as floats; coerced back to ints.
        assert fc == FlowControlParams(buffer_flits=8, source_queue=2,
                                       credit_rtt=3)
        assert not NoIParams().flow_control().is_active

    def test_buffer_capacity_metadata(self, small_mesh):
        index = small_mesh.routing_tables().queue_index()
        assert index.buffer_capacity_flits(None) is None
        assert index.buffer_capacity_flits(FlowControlParams()) is None
        capacity = index.buffer_capacity_flits(
            FlowControlParams(buffer_flits=6)
        )
        assert capacity.shape == (index.num_directed_links,)
        assert np.all(capacity == 6)


class TestEngineEquivalence:
    """FC epoch engine bit-exact vs the FC heap oracle."""

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fc", FC_CONFIGS,
                             ids=lambda fc: "open" if fc is None else
                             f"B{fc.buffer_flits}Q{fc.source_queue}")
    def test_random_load_sweep(self, fixture, seed, fc, request):
        # Tiny buffers legitimately deadlock the ring-bearing
        # topologies (cyclic shortest-path dependencies); a deadlock is
        # then the *result*, and both engines must report the same one.
        topo = _topology(request, fixture)
        spec = parse_load_workload("uniform@0.08:w64+192")
        table = load_sweep_traffic(spec, topo.num_chiplets, seed)
        events = run_or_deadlock(topo, table, fc, "events")
        epochs = run_or_deadlock(topo, table, fc, "epochs")
        if isinstance(events, tuple) or isinstance(epochs, tuple):
            assert events == epochs
            return
        assert_fc_identical(events, epochs)
        assert events.engine == "events" and epochs.engine == "epochs"
        assert epochs.epochs > 0

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_hotspot_backpressure(self, fixture, request):
        topo = _topology(request, fixture)
        spec = parse_load_workload("hotspot@0.12:w32+96")
        table = load_sweep_traffic(spec, topo.num_chiplets, 7)
        fc = FlowControlParams(buffer_flits=4, credit_rtt=1)
        events = run_or_deadlock(topo, table, fc, "events")
        epochs = run_or_deadlock(topo, table, fc, "epochs")
        if isinstance(events, tuple) or isinstance(epochs, tuple):
            assert events == epochs
            return
        assert_fc_identical(events, epochs)

    def test_unbatched_matches_batched(self, small_mesh):
        spec = parse_load_workload("uniform@0.05:w32+96")
        table = load_sweep_traffic(spec, 36, 3)
        fc = FlowControlParams(buffer_flits=6, credit_rtt=2)
        batched = simulate_packets(small_mesh, table, engine="epochs",
                                   flow_control=fc, telemetry=True)
        unbatched = simulate_packets(
            small_mesh, table, engine="epochs", flow_control=fc,
            telemetry=True, batch_uncontended=False,
        )
        assert_fc_identical(batched, unbatched)

    def test_multi_packet_messages(self, line):
        rng = np.random.default_rng(5)
        msgs = [
            Message(int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                    int(rng.integers(1, 700)),
                    inject_cycle=int(rng.integers(0, 40)), message_id=i)
            for i in range(60)
        ]
        fc = FlowControlParams(buffer_flits=5, source_queue=3,
                               credit_rtt=2)
        assert_fc_identical(
            simulate_packets(line, msgs, engine="events",
                             flow_control=fc, telemetry=True),
            simulate_packets(line, msgs, engine="epochs",
                             flow_control=fc, telemetry=True),
        )

    def test_grant_traces_identical(self, small_kite):
        spec = parse_load_workload("uniform@0.1:w16+48")
        table = load_sweep_traffic(spec, 36, 2)
        fc = FlowControlParams(buffer_flits=4, credit_rtt=2)
        tables = small_kite.routing_tables()
        traces = []
        for engine in ("events", "epochs"):
            sim = simulate_packets(small_kite, table, engine=engine,
                                   flow_control=fc, telemetry=True)
            assert sim.telemetry is not None
            traces.append(sim)
        # Telemetry equality already implies trace equality up to
        # ordering; pin it explicitly through the census totals.
        assert (traces[0].telemetry.total_accepted_flits
                == traces[1].telemetry.total_accepted_flits > 0)
        assert tables.num_directed_links == \
            traces[0].telemetry.num_directed_links


class TestOpenLoopCompatibility:
    """``None``, ``FlowControlParams()`` and default params agree."""

    @pytest.mark.parametrize("engine", ["events", "epochs"])
    def test_inactive_fc_is_open_loop(self, small_mesh, engine):
        spec = parse_load_workload("uniform@0.08:w32+96")
        table = load_sweep_traffic(spec, 36, 1)
        plain = simulate_packets(small_mesh, table, engine=engine)
        explicit = simulate_packets(small_mesh, table, engine=engine,
                                    flow_control=FlowControlParams())
        forced_open = simulate_packets(small_mesh, table, engine=engine,
                                       flow_control=None)
        assert np.array_equal(plain.completion, explicit.completion)
        assert np.array_equal(plain.completion, forced_open.completion)
        assert plain.telemetry is None

    def test_params_default_is_open_loop(self, small_mesh):
        # Default NoIParams carry no fc knobs: "params" mode == open.
        assert not small_mesh.params.flow_control().is_active
        spec = parse_load_workload("uniform@0.05:w16+48")
        table = load_sweep_traffic(spec, 36, 0)
        by_params = simulate_packets(small_mesh, table)
        open_loop = simulate_packets(small_mesh, table, flow_control=None)
        assert np.array_equal(by_params.completion, open_loop.completion)

    def test_huge_buffers_never_stall_on_credits(self, small_mesh):
        spec = parse_load_workload("uniform@0.08:w32+96")
        table = load_sweep_traffic(spec, 36, 2)
        sim = simulate_packets(
            small_mesh, table, engine="epochs",
            flow_control=FlowControlParams(buffer_flits=10 ** 6),
            telemetry=True,
        )
        assert sim.telemetry.credit_stall_cycles.sum() == 0

    def test_unknown_flow_control_string_rejected(self, small_mesh):
        with pytest.raises(ValueError, match="unknown flow_control"):
            simulate_packets(small_mesh, [Message(0, 1, 64)],
                             flow_control="warp")


class TestOpenLoopArbitration:
    """Open loop *is* flow control with infinite buffers.

    Every engine queues a request at its event cycle and breaks
    same-cycle ties on a link by packet id, whether or not credits are
    in play, so ``flow_control=None`` and effectively infinite buffers
    give bit-identical results.
    """

    INFINITE = FlowControlParams(buffer_flits=10 ** 6)

    def test_hand_computed_tie(self, line):
        # Stage 2, wire 1, 64 B = 2 flits.  Packet 0 (0 -> 2, inject 0)
        # is granted link 0->1 at 2 and requests link 1->2 at cycle
        # 2 + 2 + 1 + 2 = 7.  Packet 1 (1 -> 2, inject 7) requests link
        # 1->2 at cycle 7 too, ready at 9 after its source stage.
        # Packet 0 wins the tie by id -> starts 7, done 12; packet 1
        # starts 9, done 9 + 2 + 1 + 2 = 14.
        msgs = [Message(0, 2, 64, inject_cycle=0, message_id=0),
                Message(1, 2, 64, inject_cycle=7, message_id=1)]
        for engine in ("events", "epochs"):
            open_loop = simulate_packets(line, msgs, engine=engine,
                                         flow_control=None)
            closed = simulate_packets(line, msgs, engine=engine,
                                      flow_control=self.INFINITE)
            assert open_loop.completion.tolist() == [12, 14], engine
            assert closed.completion.tolist() == [12, 14], engine

    def test_window_boundary_tie(self, line):
        # The open-loop epoch window is [base, base + guard) with guard =
        # min flits + min hop delta = 2 + 3: a request granted at base
        # asks for its next link at base + guard at the earliest, so
        # nothing inside the window can be overtaken.  Packet 0 (0 -> 3)
        # is granted link 1->2 at its request cycle 7 = base and requests
        # link 2->3 at 7 + 5 = 12, exactly one cycle past the window.
        # Packet 1 (2 -> 4, inject 12) requests link 2->3 at 12 too and
        # loses the tie by id: packet 0 starts 12, done 17; packet 1
        # starts at its ready cycle 14, then 3->4 at 19, done 24.  A
        # window one cycle wider would grant packet 1 first.
        index = line.routing_tables().queue_index()
        assert index.min_hop_delta + 2 == 5
        msgs = [Message(0, 3, 64, inject_cycle=0, message_id=0),
                Message(2, 4, 64, inject_cycle=12, message_id=1)]
        events = simulate_packets(line, msgs, engine="events",
                                  flow_control=None, telemetry=True)
        assert events.completion.tolist() == [17, 24]
        epochs = simulate_packets(line, msgs, engine="epochs",
                                  flow_control=None, telemetry=True)
        assert epochs.engine == "epochs"
        assert_fc_identical(events, epochs)

    def test_seeded_equality(self):
        from repro.noi.mesh import build_mesh

        # siam/16 at 0.02 and the README case, siam/100 at 0.1 (12704
        # packets): open loop through the no-credit epoch loop and the
        # heap vs infinite buffers through the credit loop.
        for n, workload, packets, mean in (
            (16, "uniform@0.02", 374, None),
            (100, "uniform@0.1", 12704, 47.56),
        ):
            topo = build_mesh(n)
            table = load_sweep_traffic(parse_load_workload(workload), n, 0)
            closed = simulate_packets(topo, table, engine="epochs",
                                      flow_control=self.INFINITE,
                                      telemetry=True)
            assert closed.packets == packets
            if mean is not None:  # the figure README quotes
                assert closed.latency.mean() == pytest.approx(mean,
                                                              abs=5e-3)
            for engine in ("events", "epochs"):
                open_loop = simulate_packets(topo, table, engine=engine,
                                             flow_control=None,
                                             telemetry=True)
                assert_fc_identical(open_loop, closed)


class TestBackpressurePhysics:
    def test_buffer_too_small_for_packet(self, line):
        # 64 B payload at 32 B flits = 2-flit packets; a 1-flit buffer
        # could never forward them.
        with pytest.raises(ValueError, match="buffer_flits"):
            simulate(line, [Message(0, 3, 64)],
                     flow_control=FlowControlParams(buffer_flits=1))

    def test_finite_buffers_raise_congestion_latency(self, small_mesh):
        spec = parse_load_workload("uniform@0.1:w32+96")
        table = load_sweep_traffic(spec, 36, 3)
        open_loop = simulate_packets(small_mesh, table, engine="epochs",
                                     flow_control=None)
        closed = simulate_packets(
            small_mesh, table, engine="epochs",
            flow_control=FlowControlParams(buffer_flits=2, credit_rtt=2),
            telemetry=True,
        )
        assert closed.latency.mean() > open_loop.latency.mean()
        assert closed.telemetry.credit_stall_cycles.sum() > 0
        # Stall split is consistent: credit stalls are part of stalls.
        assert np.all(closed.telemetry.credit_stall_cycles
                      <= closed.telemetry.stall_cycles)

    def test_source_queue_defers_second_injection(self, line):
        # Two packets from node 1 on *different* first links (1->0 and
        # 1->2): open loop injects both at once; Q=1 gates the second
        # until one cycle after the first starts serialising.
        msgs = [Message(1, 0, 64, inject_cycle=0, message_id=0),
                Message(1, 2, 64, inject_cycle=0, message_id=1)]
        open_loop = simulate(line, msgs, flow_control=None)
        for engine in ("events", "epochs"):
            gated = simulate(
                line, msgs, engine=engine,
                flow_control=FlowControlParams(source_queue=1),
            )
            assert (gated.message_completion[0]
                    == open_loop.message_completion[0])
            assert (gated.message_completion[1]
                    > open_loop.message_completion[1])

    def test_large_source_queue_matches_unbounded(self, small_mesh):
        # A source queue deep enough to never gate leaves the physics
        # open-loop, and the arbitration is the same packet-id FIFO, so
        # the results are identical.
        spec = parse_load_workload("uniform@0.06:w32+96")
        table = load_sweep_traffic(spec, 36, 4)
        bounded = simulate_packets(
            small_mesh, table, engine="events",
            flow_control=FlowControlParams(source_queue=10 ** 6),
            telemetry=True,
        )
        unbounded = simulate_packets(small_mesh, table, engine="events",
                                     flow_control=None, telemetry=True)
        assert bounded.packets == unbounded.packets
        assert bounded.telemetry.credit_stall_cycles.sum() == 0
        assert_fc_identical(bounded, unbounded)

    def test_fc_via_noi_params_overrides(self):
        # The sweep path: fc knobs ride NoIParams into the topology.
        from repro.noi.mesh import build_mesh

        topo = build_mesh(16, params=NoIParams(fc_buffer_flits=4,
                                               fc_credit_rtt=2))
        spec = parse_load_workload("uniform@0.15:w16+48")
        table = load_sweep_traffic(spec, 16, 0)
        by_params = simulate_packets(topo, table, telemetry=True)
        explicit = simulate_packets(
            topo, table,
            flow_control=FlowControlParams(buffer_flits=4, credit_rtt=2),
            telemetry=True,
        )
        assert_fc_identical(by_params, explicit)


class TestDeadlock:
    FLOWS = [Message(i, (i + 2) % 5, 64, inject_cycle=0, message_id=i)
             for i in range(5)] + \
            [Message(i, (i + 2) % 5, 64, inject_cycle=1,
                     message_id=5 + i) for i in range(5)]
    FC = FlowControlParams(buffer_flits=2, credit_rtt=1)

    def _check_cyclic_routes(self, ring5):
        tables = ring5.routing_tables()
        for i in range(5):
            assert tables.hops[i, (i + 2) % 5] == 2

    def test_both_engines_detect_same_deadlock(self, ring5):
        self._check_cyclic_routes(ring5)
        errors = []
        for engine in ("events", "epochs"):
            with pytest.raises(FlowControlDeadlockError) as info:
                simulate(ring5, self.FLOWS, engine=engine,
                         flow_control=self.FC)
            errors.append(info.value)
        assert errors[0].blocked == errors[1].blocked > 0
        assert errors[0].links == errors[1].links
        assert "credit deadlock" in str(errors[0])

    def test_larger_buffers_break_the_cycle(self, ring5):
        report = simulate(
            ring5, self.FLOWS,
            flow_control=FlowControlParams(buffer_flits=8, credit_rtt=1),
        )
        assert report.packets_delivered == 10


class TestTelemetry:
    def test_off_by_default(self, small_mesh):
        sim = simulate_packets(small_mesh, [Message(0, 5, 64)])
        assert sim.telemetry is None

    def test_totals_conserved(self, small_mesh):
        spec = parse_load_workload("uniform@0.08:w32+96")
        table = load_sweep_traffic(spec, 36, 5)
        sim = simulate_packets(small_mesh, table, telemetry=True)
        tables = small_mesh.routing_tables()
        pair = sim.src * tables.num_nodes + sim.dst
        hops = (tables.route_indptr[pair + 1]
                - tables.route_indptr[pair])
        assert sim.telemetry.total_accepted_flits == int(
            (sim.flits * hops).sum()
        )
        assert sim.telemetry.accepted_packets.sum() == int(hops.sum())
        assert sim.telemetry.horizon_cycles == int(sim.completion.max())

    def test_engines_and_fast_path_agree(self, small_mesh):
        # Mixed fast-path/contended run vs everything-contended run:
        # telemetry must be identical either way, on either engine.
        spec = parse_load_workload("uniform@0.008:w32+96")
        table = load_sweep_traffic(spec, 36, 0)
        runs = [
            simulate_packets(small_mesh, table, engine="events",
                             telemetry=True),
            simulate_packets(small_mesh, table, engine="epochs",
                             telemetry=True),
            simulate_packets(small_mesh, table, engine="epochs",
                             telemetry=True, batch_uncontended=False),
        ]
        assert runs[0].packets > runs[0].contended_packets
        assert runs[2].contended_packets == runs[2].packets
        for other in runs[1:]:
            assert_fc_identical(runs[0], other)

    def test_lone_packet_never_stalls(self, line):
        sim = simulate_packets(line, [Message(0, 4, 64)], telemetry=True)
        assert sim.telemetry.total_stall_cycles == 0
        assert sim.telemetry.peak_queue_flits.max() == 0
        assert sim.telemetry.utilization().max() <= 1.0

    def test_queue_depth_under_single_link_saturation(self, line):
        # 10 packets at once into one link: peak waiting depth is the
        # 9 packets behind the head (the head starts immediately).
        flits = line.params.flits_per_packet
        msgs = [Message(0, 1, 64, inject_cycle=0, message_id=i)
                for i in range(10)]
        sim = simulate_packets(line, msgs, telemetry=True,
                               batch_uncontended=False, engine="events")
        first = line.routing_tables().link_index[(0, 1)]
        assert sim.telemetry.peak_queue_flits[first] == 9 * flits
        assert sim.telemetry.accepted_flits[first] == 10 * flits

    def test_empty_run_covers_all_links(self, line):
        sim = simulate_packets(line, [], telemetry=True)
        assert sim.telemetry.horizon_cycles == 0
        assert (sim.telemetry.num_directed_links
                == line.routing_tables().num_directed_links)
        assert sim.telemetry.total_accepted_flits == 0

    def test_report_carries_telemetry(self, line):
        report = simulate(line, [Message(0, 4, 64)], telemetry=True)
        assert report.telemetry is not None
        assert report.telemetry.total_accepted_flits > 0
        assert simulate(line, [Message(0, 4, 64)]).telemetry is None

    def test_trace_sorted_helper(self):
        trace = GrantTrace(
            packet=np.array([2, 1]), hop=np.array([0, 0]),
            link=np.array([3, 4]), ready=np.array([5, 6]),
            start=np.array([5, 6]), flits=np.array([2, 2]),
            credit_wait=np.array([0, 0]),
        )
        assert trace.sorted().packet.tolist() == [1, 2]
        census = link_telemetry(trace, 6, 10)
        assert census.accepted_packets.sum() == 2


def _lexsort_credit_ready_times(e_s, deficit, rel_link, rel_time, rel_amt):
    """The credit search before needy-link filtering: a lexsort of the
    whole release schedule per call.  Kept as the oracle."""
    c = np.full(e_s.shape[0], _NEG, dtype=np.int64)
    needy = deficit > 0
    if not needy.any():
        return c
    c[needy] = _INF
    if rel_time.size == 0:
        return c
    order = np.lexsort((rel_time, rel_link))
    rl, rt, ra = rel_link[order], rel_time[order], rel_amt[order]
    head = np.empty(rl.shape[0], dtype=bool)
    head[0] = True
    head[1:] = rl[1:] != rl[:-1]
    cum = np.cumsum(ra)
    block_first = np.flatnonzero(head)[np.cumsum(head) - 1]
    cum_in = cum - (cum[block_first] - ra[block_first])
    band = int(cum_in.max()) + 1
    keys = rl * band + cum_in
    query = e_s[needy] * band + deficit[needy]
    pos = np.searchsorted(keys, query, side="left")
    covered = pos < keys.shape[0]
    covered[covered] &= rl[pos[covered]] == e_s[needy][covered]
    times = np.full(query.shape[0], _INF, dtype=np.int64)
    times[covered] = rt[pos[covered]]
    c[needy] = times
    return c


class TestCreditSearch:
    """``_credit_ready_times`` against the whole-schedule lexsort oracle."""

    @staticmethod
    def _check(e_s, deficit, rel_link, rel_time, rel_amt, num_links):
        args = [np.asarray(a, dtype=np.int64)
                for a in (e_s, deficit, rel_link, rel_time, rel_amt)]
        got = _credit_ready_times(*args, num_links)
        want = _lexsort_credit_ready_times(*args)
        np.testing.assert_array_equal(got, want)
        return got

    def test_seeded_random_schedules(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            num_links = int(rng.integers(1, 10))
            r = int(rng.integers(0, 40))
            rel_link = rng.integers(0, num_links, r)
            # Few distinct cycles, so (link, time) duplicates are common.
            rel_time = rng.integers(0, 6, r) + int(rng.integers(0, 1000))
            rel_amt = rng.integers(1, 9, r)
            n = int(rng.integers(1, 30))
            e_s = np.sort(rng.integers(0, num_links, n))
            totals = np.bincount(rel_link, weights=rel_amt,
                                 minlength=num_links).astype(np.int64)
            deficit = rng.integers(-3, totals[e_s] + 4)
            self._check(e_s, deficit, rel_link, rel_time, rel_amt,
                        num_links)

    def test_empty_schedule(self):
        got = self._check([0, 1, 1], [2, 0, -1], [], [], [], 2)
        assert got.tolist() == [_INF, _NEG, _NEG]

    def test_no_needy_request(self):
        got = self._check([0, 1], [0, -4], [0, 1], [5, 6], [4, 4], 2)
        assert got.tolist() == [_NEG, _NEG]

    def test_needy_link_without_releases(self):
        # Link 2 needs credits, but only links 0 and 1 release any.
        got = self._check([0, 2], [1, 1], [0, 1, 1], [3, 4, 5], [2, 2, 2],
                          3)
        assert got.tolist() == [3, _INF]

    def test_duplicate_link_time_releases(self):
        rel_link = [1, 1, 1, 1, 0]
        rel_time = [7, 7, 7, 9, 7]
        rel_amt = [2, 3, 1, 4, 5]
        got = self._check([1] * 8, [1, 2, 3, 5, 6, 7, 10, 11],
                          rel_link, rel_time, rel_amt, 2)
        assert got.tolist() == [7, 7, 7, 7, 7, 9, 9, _INF]

    def test_deficits_at_cumulative_boundaries(self):
        rel_link = [0, 0, 0, 1, 1]
        rel_time = [4, 2, 8, 3, 3]
        rel_amt = [3, 2, 4, 1, 1]
        # Link 0 in time order: cumulative 2 @2, 5 @4, 9 @8.
        deficit = [2, 3, 5, 6, 9, 10, 2, 3]
        e_s = [0, 0, 0, 0, 0, 0, 1, 1]
        got = self._check(e_s, deficit, rel_link, rel_time, rel_amt, 2)
        assert got.tolist() == [2, 4, 4, 8, 8, _INF, 3, _INF]

    def test_key_overflow_falls_back_to_lexsort(self):
        # Release cycles 2**61 apart: link * span would leave int64.
        rel_link = [1, 0, 1, 0]
        rel_time = [2 ** 61, 5, 3, 2 ** 61 + 1]
        rel_amt = [1, 2, 3, 4]
        got = self._check([0, 0, 1, 1], [2, 3, 3, 4], rel_link, rel_time,
                          rel_amt, 4)
        assert got.tolist() == [5, 2 ** 61 + 1, 3, 2 ** 61]


class TestLinkTimeOrder:
    def _lexsorted(self, link, time, tie):
        return np.lexsort((tie, time, link))

    def test_composite_key_matches_lexsort(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 60))
            link = rng.integers(0, 7, m)
            time = rng.integers(-5, 40, m) + 1000
            tie = rng.permutation(m)
            order = _link_time_order(link, time, 7, tie, m)
            np.testing.assert_array_equal(order,
                                          self._lexsorted(link, time, tie))

    def test_overflow_guard(self):
        link = np.array([2, 0, 2, 1, 0])
        time = np.array([2 ** 60, 0, 7, -(2 ** 60), 0])
        tie = np.array([4, 1, 0, 3, 2])
        # 3 links x 2**61 cycles x 5 ties leaves int64: lexsort path.
        order = _link_time_order(link, time, 3, tie, 5)
        np.testing.assert_array_equal(order,
                                      self._lexsorted(link, time, tie))
        # Without a tie column the key fits; rows equal on (link, time)
        # may come out in either order.
        order = _link_time_order(link, time, 3)
        assert order.tolist() in ([1, 4, 3, 2, 0], [4, 1, 3, 2, 0])

    def test_key_near_int64_top(self):
        # A narrow span of huge cycles: link * span + time passes 2**63
        # on the way, the final key does not, so no fallback is needed.
        rng = np.random.default_rng(8)
        link = rng.integers(0, 1000, 200)
        time = (2 ** 63 - 40) + rng.integers(0, 30, 200)
        tie = rng.permutation(200)
        np.testing.assert_array_equal(
            _link_time_order(link, time, 1000, tie, 200),
            self._lexsorted(link, time, tie),
        )

    def test_epoch_engine_requires_ascending_ids(self, line):
        table = line.routing_tables()
        ids = np.array([1, 0])
        z = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="ascending"):
            simulate_fc_epochs(table, FlowControlParams(buffer_flits=8),
                               z, z, z + 1, z, z + 1, ids, z.copy(),
                               z.copy())


#: Benchmark-scale epoch runs: (arch, size, workload, overrides).  Seed 1
#: traffic; the swap/100 designs are two of ``cold_sweep``'s fc DSE.
PINNED_RUNS = {
    "kite256-b16": ("kite", 256, "uniform@0.05",
                    (("fc_buffer_flits", 16),)),
    "swap100-b16-rtt1": ("swap", 100, "uniform@0.05:w64+256",
                         (("fc_buffer_flits", 16), ("fc_credit_rtt", 1))),
    "swap100-b48-rtt4": ("swap", 100, "uniform@0.05:w64+256",
                         (("fc_buffer_flits", 48), ("fc_credit_rtt", 4))),
    "floret100-open": ("floret", 100, "neighbor@0.1", ()),
    "swap100-b16-q2-rtt2": ("swap", 100, "uniform@0.05:w64+256",
                            (("fc_buffer_flits", 16),
                             ("fc_source_queue", 2),
                             ("fc_credit_rtt", 2))),
}

#: (epochs, sha256 prefix of completion, latency and the sorted grant
#: trace), recorded from the epoch engine before its pending set became
#: one masked time array.
PINNED_EPOCHS = {
    "kite256-b16": (230, "03f1ef532bec4bf2"),
    "swap100-b16-rtt1": (296, "e4c19cef3153aee4"),
    "swap100-b48-rtt4": (107, "33490121d4cc683d"),
    "floret100-open": (272, "69490b04bdf1fc6b"),
    "swap100-b16-q2-rtt2": (464, "938aed4ffc1dbd89"),
}


def _pinned_run(name, engine, monkeypatch=None):
    """Simulate one :data:`PINNED_RUNS` entry with its grant trace.

    With ``monkeypatch``, also returns how many epochs finalised
    anything (each one hands a chunk to ``_trace_from_chunks``).
    """
    import repro.net.flowcontrol as flowcontrol
    from repro.eval import SweepCase
    from repro.eval.sweeps import case_topology

    arch, n, workload, overrides = PINNED_RUNS[name]
    topo = case_topology(SweepCase(arch, n, workload, 1, overrides))
    table = load_sweep_traffic(parse_load_workload(workload), n, 1)
    chunks = []
    if monkeypatch is not None:
        real = flowcontrol._trace_from_chunks

        def spy(parts):
            chunks.append(len(parts))
            return real(parts)

        monkeypatch.setattr(flowcontrol, "_trace_from_chunks", spy)
    sim = simulate_packets(topo, table, engine=engine, attribution=True)
    return sim, (chunks[0] if chunks else None)


def _sim_digest(sim):
    h = hashlib.sha256(sim.completion.tobytes())
    h.update(sim.latency.tobytes())
    trace = sim.trace.sorted()
    for field in ("packet", "hop", "link", "ready", "start", "flits",
                  "credit_wait"):
        h.update(getattr(trace, field).tobytes())
    return h.hexdigest()[:16]


class TestPinnedEpochs:
    """The epoch engine at benchmark scale: epoch counts and outputs.

    perfbench's ``outputs`` digests cover ``sim_epochs`` only through
    whole runs; these pin each engine run on its own, and check the
    working-set paths the small fuzz rarely reaches against the oracle.
    """

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_epochs_and_outputs_pinned(self, name):
        sim, _ = _pinned_run(name, "epochs")
        assert sim.engine == "epochs"
        assert (sim.epochs, _sim_digest(sim)) == PINNED_EPOCHS[name]

    @pytest.mark.parametrize("name", ["swap100-b16-rtt1",
                                      "swap100-b16-q2-rtt2"])
    def test_truncated_working_set_matches_events(self, name,
                                                  monkeypatch):
        epochs, progress = _pinned_run(name, "epochs", monkeypatch)
        # Epochs that finalised nothing: the binding head lay outside
        # the working set, so the span doubled (needs > 64 pending).
        assert progress < epochs.epochs
        assert epochs.contended_packets > 64
        queue = dict(PINNED_RUNS[name][3]).get("fc_source_queue")
        if queue is not None:
            # Sources with more packets than queue slots withhold some,
            # and each withheld packet spawns when a slot frees.
            assert np.bincount(epochs.src).max() > queue
        events, _ = _pinned_run(name, "events")
        assert_fc_identical(events, epochs)
        assert _sim_digest(events) == _sim_digest(epochs)

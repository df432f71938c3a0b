"""Packet-journey latency attribution: exact splits, engine identity.

Tentpole coverage: the per-packet decomposition (injection wait, queue
wait, credit stall, serialization, pipeline) sums *exactly* to
``PacketSim.latency``; the aggregated :class:`LatencyBreakdown` is
bit-identical across every engine tier (events / epochs, plus the
contention-free fast path) on mesh, Kite, SWAP and
Floret in open and closed loop; a hand-computed 3-hop contended example
pins the exact cycle splits; the ``sim_attribution`` knob ships the
arrays through sweep results and their npz store payloads; and
:func:`attribute_task` returns the same :class:`TaskPerf` as
:func:`evaluate_task` with a per-layer critical-path table that sums
back to the folded totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (
    ResultStore,
    SweepRunner,
    evaluate_load_sweep_case,
    sweep_grid,
)
from repro.eval.experiments import load_sweep_traffic, parse_load_workload
from repro.net.flowcontrol import FlowControlParams
from repro.net.journey import (
    COMPONENTS,
    latency_breakdown,
    packet_journeys,
)
from repro.net.perf import attribute_task, evaluate_task
from repro.net.simulator import Message, message_array, simulate_packets
from repro.core.mapping import ContiguousMapper
from repro.noi.mesh import build_mesh
from repro.pim.allocation import plan_allocation
from repro.pim.chiplet import ChipletSpec

from helpers import make_toy_model
from test_perf import assert_taskperf_equal

ENGINES = ("events", "epochs")
TOPOLOGY_FIXTURES = ("small_mesh", "small_kite", "small_swap",
                     "small_floret")

#: ``None`` = open loop; otherwise a closed-loop config whose finite
#: buffers and source queues produce non-zero credit stalls and
#: injection waits.
FC_CONFIGS = (None, FlowControlParams(buffer_flits=8, source_queue=2,
                                      credit_rtt=3))


def _topology(request, fixture):
    topo = request.getfixturevalue(fixture)
    return topo.topology if fixture == "small_floret" else topo


def _split_sum(bd) -> np.ndarray:
    return sum(bd.component(name) for name in COMPONENTS)


class TestHandComputed:
    """Three same-route packets on a 4x4 mesh: exact cycle accounting.

    Packets 0..2 all travel 0 -> 3 (three hops along the mesh row),
    injected at cycle 0.  FIFO order follows packet index, so packet 0
    never waits; with uniform packet length ``F`` the pipeline is
    perfect after the first hop -- each follower's grant request
    reaches every downstream link exactly when its predecessor frees
    it -- so packet 1 queues ``F`` cycles and packet 2 queues ``2F``
    cycles, all of it on the first link.
    """

    #: One default-size packet per message (``packet_bytes=64`` /
    #: ``flit_bytes=32``).
    FLITS = 2

    @pytest.fixture(scope="class")
    def mesh16(self):
        return build_mesh(16)

    def _simulate(self, topo, engine):
        params = topo.params
        messages = [
            Message(src=0, dst=3,
                    payload_bytes=self.FLITS * params.flit_bytes,
                    inject_cycle=0, message_id=i)
            for i in range(3)
        ]
        return simulate_packets(topo, message_array(messages),
                                engine=engine, attribution=True)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exact_splits(self, mesh16, engine):
        topo = mesh16
        tables = topo.routing_tables()
        assert int(tables.hops[0, 3]) == 3
        route = tables.route_link_ids(0, 3)
        hop_delta = tables.queue_index().hop_delta
        src_stage = int(tables.stage_cycles[0])
        F = self.FLITS

        sim = self._simulate(topo, engine)
        bd = latency_breakdown(sim, topo)

        pipeline = src_stage + int(hop_delta[route].sum())
        assert bd.injection_wait.tolist() == [0, 0, 0]
        assert bd.credit_stall.tolist() == [0, 0, 0]
        assert bd.queue_wait.tolist() == [0, F, 2 * F]
        assert bd.serialization.tolist() == [3 * F] * 3
        assert bd.pipeline.tolist() == [pipeline] * 3
        assert bd.latency.tolist() == [
            pipeline + 3 * F + w for w in (0, F, 2 * F)
        ]
        assert np.array_equal(_split_sum(bd), sim.latency)

        # All queueing lands on the first link of the shared route.
        expected_queue = np.zeros(bd.num_directed_links, dtype=np.int64)
        expected_queue[route[0]] = 3 * F
        assert np.array_equal(bd.link_queue_wait, expected_queue)
        assert bd.link_grants[route].tolist() == [3, 3, 3]
        assert bd.link_serialization[route].tolist() == [3 * F] * 3
        assert int(bd.link_credit_stall.sum()) == 0

    def test_hotspot_ranking(self, mesh16):
        topo = mesh16
        route = topo.routing_tables().route_link_ids(0, 3)
        bd = latency_breakdown(self._simulate(topo, "events"), topo)
        hot = bd.hotspot_links(top=2)
        assert hot[0]["link"] == int(route[0])
        assert hot[0]["queue_wait"] == 3 * self.FLITS
        # Remaining route links tie at zero stall; id breaks the tie.
        assert hot[1]["link"] == min(int(e) for e in route[1:])

    def test_journeys(self, mesh16):
        topo = mesh16
        tables = topo.routing_tables()
        route = tables.route_link_ids(0, 3)
        hop_delta = tables.queue_index().hop_delta
        F = self.FLITS

        journeys = packet_journeys(self._simulate(topo, "events"), topo)
        assert len(journeys) == 3
        for pkt, journey in enumerate(journeys):
            assert journey.hops == 3
            assert journey.links.tolist() == route.tolist()
            assert journey.queue_wait.tolist() == [pkt * F, 0, 0]
            assert journey.credit_wait.tolist() == [0, 0, 0]
            assert journey.serialization.tolist() == [F] * 3
            assert journey.forward.tolist() == hop_delta[route].tolist()
            assert journey.injection_wait == 0
            # The hop narrative telescopes to the packet's latency.
            assert journey.latency == (
                int(tables.stage_cycles[0]) + journey.injection_wait
                + int(journey.queue_wait.sum())
                + int(journey.credit_wait.sum())
                + int(journey.serialization.sum())
                + int(journey.forward.sum())
            )

    def test_format_smoke(self, mesh16):
        bd = latency_breakdown(self._simulate(mesh16, "events"), mesh16)
        text = bd.format(top=3)
        assert "latency attribution" in text
        assert "hotspot links" in text
        pct = bd.percentiles()
        assert set(pct) == set(COMPONENTS) | {"latency"}
        assert pct["queue_wait"][0] == self.FLITS  # p50 of [0, F, 2F]


class TestEngineIdentity:
    """Every tier reduces to the same breakdown, open and closed loop."""

    @pytest.mark.parametrize("fc", FC_CONFIGS,
                             ids=("open-loop", "closed-loop"))
    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_identical_across_tiers(self, request, fixture, fc):
        topo = _topology(request, fixture)
        spec = parse_load_workload("uniform@0.06")
        table = load_sweep_traffic(spec, topo.num_chiplets, seed=0)

        reference = None
        for engine in ENGINES:
            sim = simulate_packets(topo, table, engine=engine,
                                   flow_control=fc, attribution=True)
            bd = latency_breakdown(sim, topo)
            assert np.array_equal(_split_sum(bd), sim.latency), engine
            arrays = bd.arrays()
            if reference is None:
                reference = arrays
                continue
            assert sorted(arrays) == sorted(reference)
            for key, value in reference.items():
                assert value.dtype == arrays[key].dtype, (engine, key)
                assert np.array_equal(arrays[key], value), (engine, key)

    def test_closed_loop_attributes_backpressure(self, small_mesh):
        """The closed-loop run actually exercises the new components."""
        spec = parse_load_workload("uniform@0.08")
        table = load_sweep_traffic(spec, 36, seed=0)
        fc = FlowControlParams(buffer_flits=8, source_queue=1,
                               credit_rtt=3)
        sim = simulate_packets(small_mesh, table, engine="events",
                               flow_control=fc, attribution=True)
        bd = latency_breakdown(sim, small_mesh)
        assert int(bd.credit_stall.sum()) > 0
        assert int(bd.injection_wait.sum()) > 0
        assert np.array_equal(_split_sum(bd), sim.latency)

    def test_fast_path_single_packet(self, small_mesh):
        """An uncontended packet resolves closed-form, trace included."""
        table = message_array([Message(src=0, dst=7, payload_bytes=64)])
        sim = simulate_packets(small_mesh, table, attribution=True)
        assert sim.trace is not None
        bd = latency_breakdown(sim, small_mesh)
        assert int(bd.queue_wait.sum()) == 0
        assert np.array_equal(_split_sum(bd), sim.latency)


class TestKnobAndErrors:
    def test_requires_attribution(self, small_mesh):
        table = message_array([Message(src=0, dst=7, payload_bytes=256)])
        sim = simulate_packets(small_mesh, table)
        assert sim.trace is None
        with pytest.raises(ValueError, match="attribution"):
            latency_breakdown(sim, small_mesh)
        with pytest.raises(ValueError, match="attribution"):
            packet_journeys(sim, small_mesh)

    def test_telemetry_alone_keeps_trace_private(self, small_mesh):
        """``telemetry=True`` uses the trace internally but ships none."""
        spec = parse_load_workload("uniform@0.04")
        table = load_sweep_traffic(spec, 36, seed=0)
        sim = simulate_packets(small_mesh, table, telemetry=True)
        assert sim.telemetry is not None
        assert sim.trace is None

    def test_sweep_ships_arrays_through_store(self, tmp_path):
        cases = sweep_grid(
            archs=("siam",), sizes=(36,), workloads=("uniform@0.06",),
            seeds=(0,), overrides=((("sim_attribution", 1.0),),),
            tag="attr",
        )
        store = ResultStore(tmp_path / "store")
        outcome = SweepRunner(evaluate_load_sweep_case, workers=0,
                              store=store).run(cases)
        assert not outcome.failures
        result = outcome.ok[0]
        assert result.metrics["attr_latency_cycles"] > 0
        components = result.arrays["attr_components"]
        assert components.shape[0] == len(COMPONENTS)
        assert np.array_equal(components.sum(axis=0),
                              result.arrays["attr_latency"])

        # Cached round-trip: the npz payload restores every array.
        cached = SweepRunner(evaluate_load_sweep_case, workers=0,
                             store=ResultStore(tmp_path / "store")
                             ).run(cases).ok[0]
        assert sorted(cached.arrays) == sorted(result.arrays)
        for key, value in result.arrays.items():
            assert np.array_equal(cached.arrays[key], value), key

    def test_plain_sweep_stays_scalar(self, tmp_path):
        """Without the knob no arrays are shipped and no attr metrics."""
        cases = sweep_grid(archs=("siam",), sizes=(36,),
                           workloads=("uniform@0.06",), seeds=(0,))
        outcome = SweepRunner(evaluate_load_sweep_case, workers=0).run(
            cases
        )
        result = outcome.ok[0]
        assert not result.arrays
        assert not any(k.startswith("attr_") for k in result.metrics)


class TestAttributeTask:
    @pytest.fixture(scope="class")
    def setup(self, request):
        floret = request.getfixturevalue("small_floret")
        model = make_toy_model()
        spec = ChipletSpec.from_params()
        plan = plan_allocation(model, spec)
        mapper = ContiguousMapper(floret.allocation_order,
                                  floret.topology)
        placement = mapper.map_task("t", model, plan,
                                    frozenset(range(36)))
        return floret.topology, model, plan, placement, spec

    def test_same_taskperf(self, setup):
        topo, model, plan, placement, spec = setup
        perf = evaluate_task(topo, model, plan, placement.chiplet_ids,
                             task_id="t", spec=spec)
        attr_perf, attribution = attribute_task(
            topo, model, plan, placement.chiplet_ids, task_id="t",
            spec=spec,
        )
        assert_taskperf_equal(attr_perf, perf)
        assert attribution.task_id == "t"
        assert len(attribution) == len(attribution.layer_names)
        assert attribution.comm_cycles.shape == (len(attribution),)

    def test_critical_path_folds_back(self, setup):
        topo, model, plan, placement, spec = setup
        perf, attribution = attribute_task(
            topo, model, plan, placement.chiplet_ids, spec=spec
        )
        assert int(attribution.comm_cycles.sum()) == \
            perf.noi_latency_cycles
        assert int(attribution.compute_cycles.sum()) == \
            perf.compute_latency_cycles
        assert int(attribution.critical_cycles.sum()) == \
            perf.latency_cycles
        assert np.array_equal(
            attribution.critical_cycles - attribution.slack_cycles,
            np.minimum(attribution.comm_cycles,
                       attribution.compute_cycles),
        )

    def test_rows_and_format(self, setup):
        topo, model, plan, placement, spec = setup
        _, attribution = attribute_task(
            topo, model, plan, placement.chiplet_ids, spec=spec
        )
        rows = attribution.rows()
        assert len(rows) == len(attribution) + 1
        assert rows[-1][0] == "TOTAL"
        assert rows[-1][1] == int(attribution.comm_cycles.sum())
        text = attribution.format()
        assert "task attribution" in text
        for name in attribution.layer_names:
            assert name in text

"""Unit tests: end-to-end task performance evaluation."""

from __future__ import annotations

import pytest

from repro.core.mapping import ContiguousMapper, GreedyMapper
from repro.net.perf import evaluate_task, evaluate_task_perlayer
from repro.pim.allocation import plan_allocation
from repro.pim.chiplet import ChipletSpec
from repro.workloads.dnn import DNNModel
from repro.workloads.layers import LayerGraphBuilder
from repro.workloads.tasks import TABLE2_MIXES
from repro.workloads.zoo import table1_model

from helpers import make_toy_model

TOPOLOGY_FIXTURES = ("small_mesh", "small_kite", "small_swap",
                     "small_floret")

INT_FIELDS = (
    "latency_cycles", "noi_latency_cycles", "compute_latency_cycles",
    "num_chiplets", "packet_count", "packet_latency_sum",
)
FLOAT_FIELDS = ("noi_energy_pj", "compute_energy_pj", "weighted_hops")


def assert_taskperf_equal(batched, perlayer):
    """The tentpole pin: ints bit-exact, floats to 1e-9 relative."""
    assert batched.task_id == perlayer.task_id
    assert batched.model_name == perlayer.model_name
    for field in INT_FIELDS:
        assert getattr(batched, field) == getattr(perlayer, field), field
    for field in FLOAT_FIELDS:
        assert getattr(batched, field) == pytest.approx(
            getattr(perlayer, field), rel=1e-9
        ), field


def _mapped(request, fixture, model, spec):
    """(topology, plan, placement) of ``model`` on a 36-chiplet fixture."""
    obj = request.getfixturevalue(fixture)
    if fixture == "small_floret":
        topo = obj.topology
        mapper = ContiguousMapper(obj.allocation_order, topo)
    else:
        topo = obj
        mapper = GreedyMapper(topo)
    plan = plan_allocation(model, spec)
    if plan.num_chiplets > topo.num_chiplets:
        return topo, plan, None
    placement = mapper.map_task(
        "t", model, plan, frozenset(range(topo.num_chiplets))
    )
    return topo, plan, placement


@pytest.fixture(scope="module")
def setup(small_floret):
    model = make_toy_model()
    spec = ChipletSpec.from_params()
    plan = plan_allocation(model, spec)
    mapper = ContiguousMapper(
        small_floret.allocation_order, small_floret.topology
    )
    placement = mapper.map_task("t", model, plan, frozenset(range(36)))
    return small_floret.topology, model, plan, placement, spec


class TestEvaluateTask:
    def test_basic_fields(self, setup):
        topo, model, plan, placement, spec = setup
        perf = evaluate_task(
            topo, model, plan, placement.chiplet_ids, task_id="t", spec=spec
        )
        assert perf.task_id == "t"
        assert perf.latency_cycles > 0
        assert perf.compute_latency_cycles > 0
        assert perf.compute_energy_pj > 0
        assert perf.num_chiplets == plan.num_chiplets

    def test_latency_at_least_components_max(self, setup):
        topo, model, plan, placement, spec = setup
        perf = evaluate_task(topo, model, plan, placement.chiplet_ids,
                             spec=spec)
        assert perf.latency_cycles >= perf.compute_latency_cycles
        assert perf.latency_cycles >= perf.noi_latency_cycles
        assert perf.latency_cycles <= (
            perf.compute_latency_cycles + perf.noi_latency_cycles
        )

    def test_edp(self, setup):
        topo, model, plan, placement, spec = setup
        perf = evaluate_task(topo, model, plan, placement.chiplet_ids,
                             spec=spec)
        assert perf.edp == pytest.approx(
            perf.total_energy_pj * perf.latency_cycles
        )

    def test_mean_packet_latency(self, setup):
        topo, model, plan, placement, spec = setup
        perf = evaluate_task(topo, model, plan, placement.chiplet_ids,
                             spec=spec)
        assert perf.packet_count > 0
        assert perf.mean_packet_latency > 0

    def test_placement_size_mismatch(self, setup):
        topo, model, plan, placement, spec = setup
        with pytest.raises(ValueError, match="placement"):
            evaluate_task(topo, model, plan, placement.chiplet_ids[:-1],
                          spec=spec)

    def test_contiguous_beats_scattered(self, setup):
        topo, model, plan, placement, spec = setup
        contiguous = evaluate_task(topo, model, plan,
                                   placement.chiplet_ids, spec=spec)
        # Scatter the same task across distant chiplets.
        n = plan.num_chiplets
        stride = 36 // n
        scattered_ids = tuple(i * stride for i in range(n))
        scattered = evaluate_task(topo, model, plan, scattered_ids,
                                  spec=spec)
        assert scattered.noi_energy_pj > contiguous.noi_energy_pj
        assert (
            scattered.mean_packet_latency > contiguous.mean_packet_latency
        )

    def test_compute_invariant_to_placement(self, setup):
        topo, model, plan, placement, spec = setup
        a = evaluate_task(topo, model, plan, placement.chiplet_ids,
                          spec=spec)
        n = plan.num_chiplets
        other_ids = tuple(35 - i for i in range(n))
        b = evaluate_task(topo, model, plan, other_ids, spec=spec)
        assert a.compute_latency_cycles == b.compute_latency_cycles
        assert a.compute_energy_pj == b.compute_energy_pj


@pytest.fixture(scope="module")
def mix_models():
    """Distinct Table II mix models that fit the 36-chiplet fixtures."""
    spec = ChipletSpec.from_params()
    models, seen = [], set()
    for mix in TABLE2_MIXES:
        for dnn_id, _count in mix.spec:
            if dnn_id in seen:
                continue
            seen.add(dnn_id)
            model = table1_model(dnn_id)
            if plan_allocation(model, spec).num_chiplets <= 36:
                models.append(model)
    assert models, "no Table II model fits 36 chiplets"
    return models, spec


class TestBatchedEngineEquivalence:
    """evaluate_task (cross-layer batched) vs evaluate_task_perlayer."""

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_toy_model_all_topologies(self, fixture, request):
        spec = ChipletSpec.from_params()
        model = make_toy_model()
        topo, plan, placement = _mapped(request, fixture, model, spec)
        assert placement is not None
        assert_taskperf_equal(
            evaluate_task(topo, model, plan, placement.chiplet_ids,
                          task_id="t", spec=spec),
            evaluate_task_perlayer(topo, model, plan,
                                   placement.chiplet_ids,
                                   task_id="t", spec=spec),
        )

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_table2_mix_models_all_topologies(self, fixture, request,
                                              mix_models):
        models, spec = mix_models
        covered = 0
        for model in models:
            topo, plan, placement = _mapped(request, fixture, model, spec)
            if placement is None:
                continue
            covered += 1
            assert_taskperf_equal(
                evaluate_task(topo, model, plan, placement.chiplet_ids,
                              spec=spec),
                evaluate_task_perlayer(topo, model, plan,
                                       placement.chiplet_ids, spec=spec),
            )
        assert covered > 0

    def test_single_layer_model(self, small_floret):
        spec = ChipletSpec.from_params()
        b = LayerGraphBuilder("single", (3, 16, 16))
        b.add_conv(b.input_index, 16, kernel=3, padding=1, name="only")
        model = DNNModel("single", "toy", b.build())
        assert len(model.weight_layers()) == 1
        topo = small_floret.topology
        plan = plan_allocation(model, spec)
        mapper = ContiguousMapper(small_floret.allocation_order, topo)
        placement = mapper.map_task("s", model, plan, frozenset(range(36)))
        batched = evaluate_task(topo, model, plan, placement.chiplet_ids,
                                spec=spec)
        assert_taskperf_equal(
            batched,
            evaluate_task_perlayer(topo, model, plan,
                                   placement.chiplet_ids, spec=spec),
        )
        # A single weighted layer has no weighted producers -> no NoI
        # traffic at all.
        assert batched.noi_latency_cycles == 0
        assert batched.packet_count == 0

    def test_colocated_placement_drops_traffic(self, small_floret):
        # Mapping every plan position onto one physical chiplet leaves
        # only self-destinations: all groups vanish (the zero-payload /
        # empty-step edge case at the evaluate_task level).
        spec = ChipletSpec.from_params()
        model = make_toy_model()
        topo = small_floret.topology
        plan = plan_allocation(model, spec)
        ids = (7,) * plan.num_chiplets
        batched = evaluate_task(topo, model, plan, ids, spec=spec)
        assert_taskperf_equal(
            batched,
            evaluate_task_perlayer(topo, model, plan, ids, spec=spec),
        )
        assert batched.noi_latency_cycles == 0
        assert batched.weighted_hops == 0.0
        assert batched.compute_latency_cycles > 0

    def test_perlayer_validates_placement(self, setup):
        topo, model, plan, placement, spec = setup
        with pytest.raises(ValueError, match="placement"):
            evaluate_task_perlayer(topo, model, plan,
                                   placement.chiplet_ids[:-1], spec=spec)

    def test_two_batched_calls(self, setup, monkeypatch):
        # One multicast_step_cost_steps and one layer_compute_vec call
        # per task, whatever the layer count.
        import repro.net.perf as perf

        topo, model, plan, placement, spec = setup
        assert len(model.weight_layers()) > 1
        calls = []
        for name in ("multicast_step_cost_steps", "layer_compute_vec"):
            def counted(*args, _real=getattr(perf, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(perf, name, counted)
        evaluate_task(topo, model, plan, placement.chiplet_ids, spec=spec)
        assert sorted(calls) == ["layer_compute_vec",
                                 "multicast_step_cost_steps"]

    def test_plan_derivations_memoized(self, setup, monkeypatch):
        # A plan's multicast groups and crossbar shares are computed
        # once: a repeat evaluation never re-derives them.
        import repro.pim.allocation as allocation
        import repro.pim.reram as reram

        topo, model, plan, placement, spec = setup
        first = evaluate_task(topo, model, plan, placement.chiplet_ids,
                              spec=spec)
        assert "weighted_site_edges" in model.__dict__  # cached_property

        def recomputed(*args, **kwargs):
            raise AssertionError("plan derivation recomputed")

        monkeypatch.setattr(allocation, "interlayer_traffic", recomputed)
        monkeypatch.setattr(reram, "mvms_for_layer", recomputed)
        assert evaluate_task(topo, model, plan, placement.chiplet_ids,
                             spec=spec) == first


class TestWeightedHopsRecombination:
    """Regression for the hop-weight recombination fix.

    The task-level ``weighted_hops`` must be the payload-weighted mean
    hop count over every (destination, payload) of the whole task --
    pinned against a direct scalar recomputation from the multicast
    groups.  (The old code re-weighted per-layer means by *flit* counts,
    which skews the mean whenever layers' payloads straddle flit
    rounding differently.)
    """

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_matches_direct_definition(self, fixture, request):
        spec = ChipletSpec.from_params()
        model = make_toy_model()
        topo, plan, placement = _mapped(request, fixture, model, spec)
        assert placement is not None
        ids = placement.chiplet_ids
        hop_weight = 0.0
        volume = 0
        for group in plan.multicast_groups(model, 1):
            src = ids[group.src]
            for d in group.dsts:
                dst = ids[d]
                if dst == src or group.payload_bytes <= 0:
                    continue
                hop_weight += topo.hops(src, dst) * group.payload_bytes
                volume += group.payload_bytes
        expected = (hop_weight / volume) if volume else 0.0
        for engine in (evaluate_task, evaluate_task_perlayer):
            perf = engine(topo, model, plan, ids, spec=spec)
            assert perf.weighted_hops == pytest.approx(expected, rel=1e-9)

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

    def test_warm_task_one_multicast_call(self, setup, monkeypatch):
        # A task whose template is built costs one array-core multicast
        # call and no compute call, whatever the layer count; building
        # the template makes the one layer_compute_vec call.
        import repro.net.perf as perf

        topo, _model, _plan, placement, spec = setup
        model = make_toy_model()  # a fresh object: no template yet
        plan = plan_allocation(model, spec)
        assert len(model.weight_layers()) > 1
        calls = []
        for name in ("multicast_step_cost_arrays", "layer_compute_vec"):
            def counted(*args, _real=getattr(perf, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(perf, name, counted)
        evaluate_task(topo, model, plan, placement.chiplet_ids, spec=spec)
        assert sorted(calls) == ["layer_compute_vec",
                                 "multicast_step_cost_arrays"]
        del calls[:]
        evaluate_task(topo, model, plan, placement.chiplet_ids[::-1],
                      spec=spec)
        assert calls == ["multicast_step_cost_arrays"]

    def test_plan_derivations_memoized(self, setup, monkeypatch):
        # One template per (plan, model, spec, bytes_per_element): a
        # repeat evaluation never re-derives the groups, the crossbar
        # shares or the compute, and plan_allocation hands back the
        # plan that holds the template.
        import dataclasses

        import repro.net.perf as perf
        import repro.pim.allocation as allocation
        import repro.pim.reram as reram

        topo, _model, _plan, placement, spec = setup
        ids = placement.chiplet_ids
        model = make_toy_model()
        plan = plan_allocation(model, spec)
        wide = dataclasses.replace(spec, crossbars=2 * spec.crossbars)
        builds = []

        def counted(*args, _real=perf._build_template):
            builds.append(args[2:])
            return _real(*args)

        monkeypatch.setattr(perf, "_build_template", counted)
        keys = [(spec, 1), (spec, 2), (wide, 1)]
        first = [
            evaluate_task(topo, model, plan, ids, spec=s,
                          bytes_per_element=bpe)
            for s, bpe in keys
        ]
        assert builds == keys
        assert "weighted_site_edges" in model.__dict__  # cached_property

        def recomputed(*args, **kwargs):
            raise AssertionError("plan derivation recomputed")

        monkeypatch.setattr(allocation, "interlayer_traffic", recomputed)
        monkeypatch.setattr(reram, "mvms_for_layer", recomputed)
        assert plan_allocation(model, spec) is plan
        assert [
            evaluate_task(topo, model, plan_allocation(model, spec), ids,
                          spec=s, bytes_per_element=bpe)
            for s, bpe in keys
        ] == first
        assert builds == keys


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


#: Architectures the differential fuzz draws from at 100 chiplets (the
#: paper's size), next to the 36-chiplet fixtures.
FUZZ_ARCHS = ("floret", "kite", "siam", "swap")
FUZZ_DATASETS = ("imagenet", "cifar10")


@pytest.fixture(scope="module")
def fuzz_topologies(request):
    """(name, topology) of every fuzzed NoI: 36-chiplet fixtures first,
    then each architecture at 100 chiplets (siam is the mesh)."""
    from repro.eval.experiments import topology_for

    out = []
    for fixture in TOPOLOGY_FIXTURES:
        obj = request.getfixturevalue(fixture)
        out.append((fixture, getattr(obj, "topology", obj)))
    for arch in FUZZ_ARCHS:
        out.append((f"{arch}/100", topology_for(arch, 100)))
    return out


def _fuzz_draws(topologies, seed, count):
    """Seeded ``(topology, model, plan, ids, bytes_per_element)`` draws.

    Models come from the zoo (both datasets) or the toy model.  Each
    placement is either a permutation of distinct chiplets or a draw
    with replacement, so co-located plan positions (whose traffic stays
    on-chip) occur; a task larger than the system only draws the
    latter.
    """
    import numpy as np

    from repro.workloads.zoo import available_models, build_model

    rng = np.random.default_rng(seed)
    spec = ChipletSpec.from_params()
    names = available_models()
    toy = make_toy_model()
    for _ in range(count):
        _name, topo = topologies[int(rng.integers(len(topologies)))]
        pick = int(rng.integers(len(names) + 1))
        model = toy if pick == len(names) else build_model(
            names[pick], FUZZ_DATASETS[int(rng.integers(2))]
        )
        plan = plan_allocation(model, spec)
        n, k = topo.num_chiplets, plan.num_chiplets
        if k <= n and rng.random() < 0.5:
            ids = rng.permutation(n)[:k]
        else:
            ids = rng.integers(0, max(1, min(n, k // 2 + 2)), k)
            ids = rng.permutation(n)[ids]
        yield topo, model, plan, tuple(int(i) for i in ids), int(
            rng.integers(1, 3)
        )


class TestDifferentialFuzz:
    """evaluate_task / attribute_task vs the per-layer oracle on random
    placements, and the memoising scheduler vs cold evaluation."""

    @pytest.mark.parametrize("seed", range(3))
    def test_batched_matches_perlayer(self, fuzz_topologies, seed):
        from repro.net.perf import attribute_task

        spec = ChipletSpec.from_params()
        for topo, model, plan, ids, bpe in _fuzz_draws(
            fuzz_topologies, seed, 30
        ):
            kwargs = dict(task_id="f", spec=spec, bytes_per_element=bpe)
            batched = evaluate_task(topo, model, plan, ids, **kwargs)
            assert_taskperf_equal(
                batched,
                evaluate_task_perlayer(topo, model, plan, ids, **kwargs),
            )
            perf, attribution = attribute_task(
                topo, model, plan, ids, **kwargs
            )
            assert perf == batched
            assert int(attribution.comm_cycles.sum()) == (
                batched.noi_latency_cycles
            )
            assert int(attribution.compute_cycles.sum()) == (
                batched.compute_latency_cycles
            )
            assert int(attribution.critical_cycles.sum()) == (
                batched.latency_cycles
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_memoised_scheduler_matches_cold(self, seed):
        import numpy as np

        from repro.core.scheduler import SystemScheduler
        from repro.eval.experiments import mapper_for, topology_for
        from repro.workloads.tasks import DNNTask
        from repro.workloads.zoo import TABLE1_SPEC

        rng = np.random.default_rng(seed)
        spec = ChipletSpec.from_params()
        fitting = [
            row[0] for row in TABLE1_SPEC
            if plan_allocation(table1_model(row[0]), spec).num_chiplets
            <= 40
        ]
        for arch in FUZZ_ARCHS:
            pool = rng.choice(fitting, size=3, replace=False)
            tasks = [
                DNNTask(f"q{i:02d}", str(dnn), table1_model(str(dnn)))
                for i, dnn in enumerate(
                    rng.choice(pool, size=int(rng.integers(6, 13)))
                )
            ]
            topo = topology_for(arch, 100)
            results = [
                SystemScheduler(
                    topo, mapper_for(arch, 100), memoize=memoize
                ).run(tasks)
                for memoize in (True, False)
            ]
            assert results[0] == results[1]


#: sha256 prefix of the ``TaskPerf`` reprs of
#: :func:`_digest_placements`, recorded from the per-placement engine
#: before task templates: ``repr`` prints every float's shortest
#: round-trip form, so this pins the batched engine bit for bit.
TASKPERF_DIGEST = "488ba800072e41d9"


def _digest_placements(topologies):
    spec = ChipletSpec.from_params()
    for topo, model, plan, ids, bpe in _fuzz_draws(topologies, 2024, 160):
        yield evaluate_task(topo, model, plan, ids, task_id="d",
                            spec=spec, bytes_per_element=bpe)


def test_taskperf_digest_pinned(fuzz_topologies):
    import hashlib

    text = "\n".join(repr(p) for p in _digest_placements(fuzz_topologies))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == TASKPERF_DIGEST


def test_mix_case_does_not_import_numpy_ma():
    # numpy's plain ``np.unique`` imports numpy.ma on its first call
    # (~17 ms per fresh interpreter); the multicast tree dedup (Floret
    # is the multicast-capable NoI) sorts instead, so a cold mix case
    # never pays that import.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.eval import SweepCase, evaluate_mix_case; "
         "evaluate_mix_case(SweepCase('floret', 100, 'WL1', 0)); "
         "print('numpy.ma' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

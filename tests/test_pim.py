"""Unit tests: ReRAM crossbar, chiplet and allocation models."""

from __future__ import annotations

import pytest

from repro.params import PIMParams
from repro.pim.allocation import (
    layer_crossbar_allocation,
    plan_allocation,
)
from repro.pim.chiplet import (
    ChipletSpec,
    chiplets_required,
    layer_compute,
    layer_compute_vec,
    spec_for_budget,
)
from repro.pim.reram import (
    CrossbarSpec,
    conductance_window,
    crossbars_for_weights,
    mvms_for_layer,
    weight_noise_sigma,
)
from repro.workloads.zoo import build_model

from helpers import make_toy_model


class TestCrossbar:
    def test_cells_per_weight(self):
        assert PIMParams(weight_bits=8, bits_per_cell=2).cells_per_weight == 4
        assert PIMParams(weight_bits=8, bits_per_cell=3).cells_per_weight == 3

    def test_weights_capacity(self):
        spec = CrossbarSpec.from_params(PIMParams())
        assert spec.weights_capacity == 128 * 32

    def test_crossbars_for_weights(self):
        spec = CrossbarSpec.from_params()
        assert crossbars_for_weights(0, spec) == 0
        assert crossbars_for_weights(1, spec) == 1
        assert crossbars_for_weights(spec.weights_capacity, spec) == 1
        assert crossbars_for_weights(spec.weights_capacity + 1, spec) == 2

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            crossbars_for_weights(-1, CrossbarSpec.from_params())

    def test_mvms_for_layer(self):
        spec = CrossbarSpec.from_params()
        assert mvms_for_layer(0, 10, spec) == 0
        assert mvms_for_layer(spec.macs_per_mvm, 10, spec) == 1
        assert mvms_for_layer(spec.macs_per_mvm + 1, 10, spec) == 2


class TestThermalBehaviour:
    def test_window_full_below_knee(self):
        assert conductance_window(300.0) == 1.0
        assert conductance_window(330.0) == 1.0

    def test_window_shrinks_above_knee(self):
        assert conductance_window(340.0) < conductance_window(335.0) < 1.0

    def test_noise_complementary(self):
        t = 345.0
        assert weight_noise_sigma(t) == pytest.approx(
            1.0 - conductance_window(t)
        )

    def test_noise_zero_when_cool(self):
        assert weight_noise_sigma(310.0) == 0.0


class TestChipletSpec:
    def test_capacity_scales_with_tiles(self):
        small = ChipletSpec.from_params(PIMParams(tiles_per_chiplet=4))
        large = ChipletSpec.from_params(PIMParams(tiles_per_chiplet=8))
        assert large.weight_capacity == 2 * small.weight_capacity

    def test_chiplets_required(self, spec):
        assert chiplets_required(0, spec) == 0
        assert chiplets_required(1, spec) == 1
        assert chiplets_required(spec.weight_capacity + 1, spec) == 2

    def test_spec_for_budget_picks_smallest(self):
        spec = spec_for_budget(1_000_000, max_chiplets=100)
        needed = -(-1_000_000 // spec.weight_capacity)
        assert needed <= 100
        # The next smaller PE would not fit... or this is already tiles=1.
        assert spec.crossbars >= 16

    def test_spec_for_budget_infeasible(self):
        with pytest.raises(ValueError):
            spec_for_budget(10**12, max_chiplets=1)


class TestLayerCompute:
    def test_weightless_layer_free(self, toy_model, spec):
        gap = toy_model.layer_by_name("b0/add")
        result = layer_compute(gap, 1, spec)
        assert result.latency_cycles == 0
        assert result.energy_pj == 0.0

    def test_energy_conserved_under_replication(self, toy_model, spec):
        stem = toy_model.layer_by_name("stem")
        lean = layer_compute(stem, 1, spec, crossbars_available=1)
        fat = layer_compute(stem, 1, spec, crossbars_available=64)
        assert lean.energy_pj == fat.energy_pj
        assert fat.latency_cycles <= lean.latency_cycles

    def test_replication_speeds_up(self, toy_model, spec):
        stem = toy_model.layer_by_name("stem")
        slow = layer_compute(stem, 1, spec, crossbars_available=1)
        fast = layer_compute(stem, 1, spec, crossbars_available=16)
        assert fast.latency_cycles < slow.latency_cycles

    def test_no_chiplets_rejected(self, toy_model, spec):
        stem = toy_model.layer_by_name("stem")
        with pytest.raises(ValueError, match="no chiplets"):
            layer_compute(stem, 0, spec)

    def test_overflow_rejected(self, spec):
        big = build_model("vgg19", "imagenet").layer_by_name("fc1")
        with pytest.raises(ValueError, match="crossbars"):
            layer_compute(big, 1, spec)


class TestAllocationPlan:
    def test_plan_respects_capacity(self, spec):
        model = build_model("resnet18", "cifar10")
        plan = plan_allocation(model, spec)
        for load in plan.loads:
            assert load.total_weights <= spec.weight_capacity

    def test_plan_covers_all_weights(self, spec):
        model = build_model("resnet18", "cifar10")
        plan = plan_allocation(model, spec)
        packed = sum(load.total_weights for load in plan.loads)
        assert packed == model.total_params

    def test_fractions_sum_to_one_per_layer(self, spec):
        model = build_model("resnet50", "imagenet")
        plan = plan_allocation(model, spec)
        for layer in model.weight_layers():
            places = plan.layer_chiplets[layer.index]
            assert sum(f for _pos, f in places) == pytest.approx(1.0)

    def test_no_packing_gives_one_layer_per_chiplet_min(self, spec):
        model = make_toy_model("nopack")
        packed = plan_allocation(model, spec, pack_layers=True)
        loose = plan_allocation(model, spec, pack_layers=False)
        assert loose.num_chiplets >= packed.num_chiplets
        assert loose.num_chiplets >= len(model.weight_layers())

    def test_plans_shared_and_cache_bounded(self, spec):
        # One plan per (model, spec, pack_layers) while it is cached;
        # a stream of distinct models evicts the oldest plans, and an
        # evicted model is no longer kept alive by the cache.
        import gc
        import weakref

        import repro.pim.allocation as allocation

        model = make_toy_model("shared")
        plan = plan_allocation(model, spec)
        assert plan_allocation(model, spec) is plan
        assert plan_allocation(model, spec, pack_layers=False) is not plan
        first = weakref.ref(model)
        del model, plan
        bound = allocation._PLAN_CACHE_SIZE
        for i in range(bound + 8):
            plan_allocation(make_toy_model(f"stream{i}", blocks=1), spec)
            assert len(allocation._plans) <= bound
        gc.collect()
        assert first() is None

    def test_plan_cache_under_threads(self, spec):
        # Service threads plan concurrently: with more threads than
        # cores, a fast switch interval and more models than the cache
        # holds, every plan still equals a fresh packing, and the cache
        # is back within its bound once the threads are done.
        import sys
        import threading

        import repro.pim.allocation as allocation

        models = [make_toy_model(f"thread{i}", blocks=1)
                  for i in range(allocation._PLAN_CACHE_SIZE + 16)]
        want = [allocation._pack(m, spec, True) for m in models]
        errors = []

        def work(offset):
            try:
                for i in range(len(models)):
                    j = (i + offset) % len(models)
                    assert plan_allocation(models[j], spec) == want[j]
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * k,))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(allocation._plans) <= allocation._PLAN_CACHE_SIZE

    def test_multicast_groups_skip_input_edges(self, spec, toy_model):
        plan = plan_allocation(toy_model, spec)
        for group in plan.multicast_groups(toy_model):
            assert group.src >= 0
            assert all(d != group.src for d in group.dsts)

    def test_multicast_model_mismatch(self, spec, toy_model):
        plan = plan_allocation(toy_model, spec)
        other = build_model("vgg11", "cifar10")
        with pytest.raises(ValueError, match="plan is for"):
            plan.multicast_groups(other)

    def test_pairwise_expansion(self, spec, toy_model):
        plan = plan_allocation(toy_model, spec)
        groups = plan.multicast_groups(toy_model)
        pairs = plan.chiplet_traffic(toy_model)
        assert len(pairs) == sum(len(g.dsts) for g in groups)

    def test_crossbar_allocation_covers_all_layers(self, spec):
        model = build_model("resnet18", "cifar10")
        plan = plan_allocation(model, spec)
        shares = layer_crossbar_allocation(model, plan, spec)
        for layer in model.weight_layers():
            assert shares[layer.index] >= 1

    def test_crossbar_allocation_bounded_per_chiplet(self, spec):
        model = build_model("resnet18", "cifar10")
        plan = plan_allocation(model, spec)
        shares = layer_crossbar_allocation(model, plan, spec)
        # Shares within one chiplet cannot exceed its crossbar count
        # (demand-proportional split, integer-floored).
        layers = {l.index: l for l in model.layers}
        for load in plan.loads:
            if len(load.slices) > 1:
                total = sum(
                    shares[s.layer_index] for s in load.slices
                    if len(plan.layer_chiplets[s.layer_index]) == 1
                )
                assert total <= spec.crossbars + len(load.slices)


class TestLayerComputeVec:
    """Batched layer compute vs the scalar model, row by row."""

    @staticmethod
    def _assert_rows_match(layers, allocs, spec, avail=None):
        batch = layer_compute_vec(
            layers, allocs, spec, crossbars_available=avail
        )
        assert len(batch) == len(layers)
        for i, layer in enumerate(layers):
            scalar = layer_compute(
                layer, allocs[i], spec,
                crossbars_available=avail[i] if avail else None,
            )
            row = batch[i]
            assert row == scalar  # LayerCompute is a plain dataclass

    def test_matches_scalar_on_toy_model(self):
        spec = ChipletSpec.from_params()
        model = make_toy_model()
        plan = plan_allocation(model, spec)
        shares = layer_crossbar_allocation(model, plan, spec)
        layers = list(model.weight_layers())
        allocs = [
            max(1, len(plan.layer_chiplets.get(l.index, ())))
            for l in layers
        ]
        avail = [shares.get(l.index) for l in layers]
        self._assert_rows_match(layers, allocs, spec, avail)
        # And with the default (full-allocation) crossbar budget.
        self._assert_rows_match(layers, allocs, spec)

    def test_matches_scalar_on_real_model(self):
        spec = ChipletSpec.from_params()
        model = build_model("resnet18", "cifar10")
        plan = plan_allocation(model, spec)
        layers = list(model.weight_layers())
        allocs = [
            max(1, len(plan.layer_chiplets.get(l.index, ())))
            for l in layers
        ]
        self._assert_rows_match(layers, allocs, spec)

    def test_zero_weight_layer_is_all_zero(self):
        from repro.workloads.layers import Layer, LayerKind

        spec = ChipletSpec.from_params()
        weighted = make_toy_model().weight_layers()[0]
        unweighted = Layer(
            index=0, name="relu", kind=LayerKind.ADD,
            out_shape=(4, 4, 4), weights=0, macs=100, inputs=(),
        )
        batch = layer_compute_vec([unweighted, weighted], [0, 2], spec)
        assert batch[0] == layer_compute(unweighted, 0, spec)
        assert batch[0].latency_cycles == 0
        assert batch[0].crossbars_used == 0
        assert batch[1] == layer_compute(weighted, 2, spec)

    def test_error_parity_no_chiplets(self):
        spec = ChipletSpec.from_params()
        layer = make_toy_model().weight_layers()[0]
        with pytest.raises(ValueError, match="no chiplets allocated"):
            layer_compute_vec([layer], [0], spec)

    def test_error_parity_overflow(self):
        spec = ChipletSpec.from_params()
        layers = make_toy_model().weight_layers()
        big = max(layers, key=lambda l: l.weights)
        with pytest.raises(ValueError) as vec_err:
            layer_compute_vec([big], [1], spec)
        with pytest.raises(ValueError) as scalar_err:
            layer_compute(big, 1, spec)
        if "crossbars" in str(scalar_err.value):
            assert str(vec_err.value) == str(scalar_err.value)

    def test_first_offending_layer_wins(self):
        spec = ChipletSpec.from_params()
        layers = make_toy_model().weight_layers()[:2]
        # Layer 0 lacks chiplets AND layer 1 overflows: the scalar loop
        # would trip on layer 0 first.
        with pytest.raises(ValueError, match="no chiplets allocated"):
            layer_compute_vec(list(layers), [0, 0], spec)

    def test_length_mismatch(self):
        spec = ChipletSpec.from_params()
        layers = make_toy_model().weight_layers()
        with pytest.raises(ValueError, match="chiplets_allocated"):
            layer_compute_vec(list(layers), [1], spec)
        with pytest.raises(ValueError, match="crossbars_available"):
            layer_compute_vec(
                list(layers), [1] * len(layers), spec,
                crossbars_available=[None],
            )

    def test_empty_batch(self):
        spec = ChipletSpec.from_params()
        batch = layer_compute_vec([], [], spec)
        assert len(batch) == 0

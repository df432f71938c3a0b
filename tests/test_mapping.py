"""Unit tests: contiguous (Floret) and greedy (baseline) mappers."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.mapping import ContiguousMapper, GreedyMapper, TaskPlacement
from repro.core.scheduler import SystemScheduler
from repro.eval.experiments import ALL_ARCHS, topology_for
from repro.noi.topology import Link, NoPathError, Topology, grid_chiplets
from repro.pim.allocation import plan_allocation
from repro.workloads.tasks import mix_by_name
from repro.pim.chiplet import ChipletSpec

from helpers import make_toy_model


@pytest.fixture(scope="module")
def toy():
    return make_toy_model()


@pytest.fixture(scope="module")
def toy_plan(toy):
    return plan_allocation(toy, ChipletSpec.from_params())


class TestTaskPlacement:
    def test_size_mismatch_rejected(self, toy, toy_plan):
        with pytest.raises(ValueError, match="placement size"):
            TaskPlacement("t", toy.name, toy_plan, (0, 1, 2, 3, 4, 5, 6))

    def test_duplicate_chiplets_rejected(self, toy, toy_plan):
        need = toy_plan.num_chiplets
        if need >= 2:
            ids = tuple([0] * need)
            with pytest.raises(ValueError, match="duplicate"):
                TaskPlacement("t", toy.name, toy_plan, ids)

    def test_max_adjacent_hops(self, small_floret, toy, toy_plan):
        order = small_floret.allocation_order
        ids = tuple(order[: toy_plan.num_chiplets])
        p = TaskPlacement("t", toy.name, toy_plan, ids)
        assert p.max_adjacent_hops(small_floret.topology) >= 1


class TestContiguousMapper:
    def test_empty_system_takes_prefix_run(self, small_floret, toy, toy_plan):
        mapper = ContiguousMapper(
            small_floret.allocation_order, small_floret.topology
        )
        placement = mapper.map_task(
            "t", toy, toy_plan, frozenset(range(36))
        )
        assert placement is not None
        # Best fit on an empty system: a contiguous run somewhere on the
        # curve -> every consecutive pair is adjacent.
        assert placement.max_adjacent_hops(small_floret.topology) == 1

    def test_insufficient_free_returns_none(self, small_floret, toy, toy_plan):
        mapper = ContiguousMapper(small_floret.allocation_order)
        free = frozenset(list(range(toy_plan.num_chiplets - 1)))
        assert mapper.map_task("t", toy, toy_plan, free) is None

    def test_best_fit_prefers_smallest_run(self):
        order = list(range(20))
        mapper = ContiguousMapper(order)
        model = make_toy_model("bf")
        plan = plan_allocation(model, ChipletSpec.from_params())
        need = plan.num_chiplets
        # Two runs: a large one [0..9] and an exact-fit one [15..15+need).
        free = set(range(10)) | set(range(15, 15 + need))
        placement = mapper.map_task("t", model, plan, frozenset(free))
        assert placement is not None
        assert set(placement.chiplet_ids) == set(range(15, 15 + need))

    def test_spill_over_uses_multiple_runs(self):
        order = list(range(12))
        mapper = ContiguousMapper(order)
        model = make_toy_model("sp")
        plan = plan_allocation(model, ChipletSpec.from_params())
        need = plan.num_chiplets
        assert need >= 2
        # Fragment the free set so no single run fits.
        free = set()
        i = 0
        while len(free) < need:
            free.add(i)
            i += 2
        placement = mapper.map_task("t", model, plan, frozenset(free))
        assert placement is not None
        assert set(placement.chiplet_ids) <= free

    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            ContiguousMapper([0, 1, 1])

    def test_zero_chiplet_plan(self, small_floret):
        from repro.workloads.dnn import DNNModel
        from repro.workloads.layers import LayerGraphBuilder

        b = LayerGraphBuilder("empty", (1, 2, 2))
        b.add_pool(b.input_index, kernel=2)
        model = DNNModel("empty", "toy", b.build())
        plan = plan_allocation(model, ChipletSpec.from_params())
        mapper = ContiguousMapper(small_floret.allocation_order)
        placement = mapper.map_task("t", model, plan, frozenset(range(36)))
        assert placement is not None
        assert placement.chiplet_ids == ()


class TestGreedyMapper:
    def test_empty_system_near_adjacent(self, small_mesh, toy, toy_plan):
        mapper = GreedyMapper(small_mesh)
        placement = mapper.map_task("t", toy, toy_plan, frozenset(range(36)))
        assert placement is not None
        assert placement.max_adjacent_hops(small_mesh) <= 2

    def test_insufficient_free(self, small_mesh, toy, toy_plan):
        mapper = GreedyMapper(small_mesh)
        free = frozenset(range(toy_plan.num_chiplets - 1))
        assert mapper.map_task("t", toy, toy_plan, free) is None

    def test_strict_hop_budget_rejects_fragmented(self, small_mesh, toy,
                                                  toy_plan):
        mapper = GreedyMapper(small_mesh, max_hops=1)
        # Free chiplets scattered on a diagonal: pairwise hops >= 2.
        free = frozenset(
            y * 6 + x for x, y in
            [(0, 0), (2, 2), (4, 4), (0, 4), (4, 0), (2, 0), (0, 2), (5, 5)]
        )
        if len(free) >= toy_plan.num_chiplets:
            assert mapper.map_task("t", toy, toy_plan, free) is None

    def test_unconstrained_accepts_fragmented(self, small_mesh, toy,
                                              toy_plan):
        mapper = GreedyMapper(small_mesh)
        free = frozenset(
            y * 6 + x for x, y in
            [(0, 0), (2, 2), (4, 4), (0, 4), (4, 0), (2, 0), (0, 2), (5, 5)]
        )
        if len(free) >= toy_plan.num_chiplets:
            placement = mapper.map_task("t", toy, toy_plan, free)
            assert placement is not None

    def test_uses_only_free_chiplets(self, small_mesh, toy, toy_plan):
        mapper = GreedyMapper(small_mesh)
        free = frozenset(range(10, 36))
        placement = mapper.map_task("t", toy, toy_plan, free)
        assert placement is not None
        assert set(placement.chiplet_ids) <= set(free)


def _set_start_chiplet(topology, free):
    """``GreedyMapper._start_chiplet`` before the link bincount: the
    sorted free set's maximum by free-neighbour count.  The oracle."""

    def free_neighbours(c):
        return sum(1 for n in topology.adj[c] if n in free)

    return max(sorted(free), key=free_neighbours)


def _set_greedy_map_task(mapper, task_id, model, plan, free):
    """``GreedyMapper.map_task`` before the hop-row argmin: a per-step
    ``min`` over the sorted free set keyed on (hops, id).  The oracle."""
    need = plan.num_chiplets
    if need > len(free):
        return None
    if need == 0:
        return TaskPlacement(task_id, model.name, plan, ())
    available = set(free)
    start = _set_start_chiplet(mapper.topology, free)
    chosen = [start]
    available.discard(start)
    prev = start
    for _ in range(need - 1):
        best = min(
            sorted(available),
            key=lambda c: (mapper.topology.hops(prev, c), c),
        )
        if (
            mapper.max_hops is not None
            and mapper.topology.hops(prev, best) > mapper.max_hops
        ):
            return None
        chosen.append(best)
        available.discard(best)
        prev = best
    return TaskPlacement(task_id, model.name, plan, tuple(chosen))


class _CheckedGreedyMapper(GreedyMapper):
    """Answers with the array mapper after checking it against the oracle."""

    calls = 0

    def map_task(self, task_id, model, plan, free):
        got = super().map_task(task_id, model, plan, free)
        want = _set_greedy_map_task(self, task_id, model, plan, free)
        assert got == want, (task_id, sorted(free))
        type(self).calls += 1
        return got


def _stub(need):
    return (SimpleNamespace(name="stub"),
            SimpleNamespace(num_chiplets=need))


class TestGreedyMatchesOracle:
    """The hop-row argmin places exactly as the per-step set minimum."""

    @pytest.mark.parametrize("mix", ["WL1", "WL2", "WL3", "WL4", "WL5"])
    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_table2_mixes_at_100(self, arch, mix):
        topo = topology_for(arch, 100)
        before = _CheckedGreedyMapper.calls
        SystemScheduler(topo, _CheckedGreedyMapper(topo)).run(
            mix_by_name(mix).tasks()
        )
        assert _CheckedGreedyMapper.calls > before

    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_seeded_random_free_sets(self, arch):
        topo = topology_for(arch, 100)
        mapper = GreedyMapper(topo)
        rng = random.Random(arch)
        for _ in range(25):
            free = frozenset(rng.sample(range(100), rng.randint(1, 100)))
            model, plan = _stub(rng.randint(0, len(free)))
            assert (mapper.map_task("t", model, plan, free)
                    == _set_greedy_map_task(mapper, "t", model, plan, free))

    @pytest.mark.parametrize("arch", ALL_ARCHS + ("mesh/36",))
    def test_start_chiplet_random_free_sets(self, arch, small_mesh):
        topo = small_mesh if arch == "mesh/36" else topology_for(arch, 100)
        mapper = GreedyMapper(topo)
        rng = random.Random(arch)
        n = topo.num_chiplets
        for _ in range(60):
            free = frozenset(rng.sample(range(n), rng.randint(1, n)))
            assert (mapper._start_chiplet(free)
                    == _set_start_chiplet(topo, free))

    @pytest.mark.parametrize("max_hops", [1, 2, 3])
    def test_strict_budget_on_swap(self, max_hops):
        topo = topology_for("swap", 100)
        mapper = GreedyMapper(topo, max_hops=max_hops)
        rng = random.Random(max_hops)
        outcomes = set()
        for _ in range(40):
            free = frozenset(rng.sample(range(100), rng.randint(2, 60)))
            model, plan = _stub(rng.randint(2, len(free)))
            got = mapper.map_task("t", model, plan, free)
            assert got == _set_greedy_map_task(mapper, "t", model, plan,
                                                free)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_disconnected_topology_raises(self):
        chiplets = grid_chiplets(8)
        links = [Link(a, b, 1.0) for a, b in
                 [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]]
        topo = Topology("split", chiplets, links)
        model, plan = _stub(6)
        with pytest.raises(NoPathError):
            _set_greedy_map_task(GreedyMapper(topo), "t", model, plan,
                                 frozenset(range(8)))
        with pytest.raises(NoPathError):
            GreedyMapper(topo).map_task("t", model, plan,
                                        frozenset(range(8)))
        # Within one component the placement still succeeds.
        placed = GreedyMapper(topo).map_task("t", *_stub(4),
                                             frozenset(range(4)))
        assert placed is not None
        assert sorted(placed.chiplet_ids) == [0, 1, 2, 3]

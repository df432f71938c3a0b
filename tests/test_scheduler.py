"""Unit tests: the FIFO multi-task scheduler."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.mapping import ContiguousMapper, GreedyMapper
from repro.core.scheduler import SystemScheduler
from repro.workloads.tasks import DNNTask

from helpers import make_toy_model


def toy_tasks(n: int):
    model = make_toy_model()
    return [DNNTask(f"t{i:02d}", "TOY", model) for i in range(n)]


@pytest.fixture(scope="module")
def floret_scheduler(small_floret):
    return SystemScheduler(
        small_floret.topology,
        ContiguousMapper(
            small_floret.allocation_order, small_floret.topology
        ),
    )


class TestBasicScheduling:
    def test_all_tasks_complete(self, floret_scheduler):
        result = floret_scheduler.run(toy_tasks(5))
        assert len(result.completed) == 5

    def test_empty_queue(self, floret_scheduler):
        result = floret_scheduler.run([])
        assert result.completed == ()
        assert result.makespan_cycles == 0
        assert result.utilization == 0.0

    def test_single_task_makespan(self, floret_scheduler):
        result = floret_scheduler.run(toy_tasks(1))
        task = result.completed[0]
        assert result.makespan_cycles == task.perf.latency_cycles
        assert task.start_cycle == 0

    def test_parallel_tasks_share_time(self, floret_scheduler):
        serial = floret_scheduler.run(toy_tasks(1)).makespan_cycles
        many = floret_scheduler.run(toy_tasks(4)).makespan_cycles
        # Four small tasks fit simultaneously on 36 chiplets; placements
        # differ slightly, so allow a small communication-latency spread.
        assert many <= serial * 1.2

    def test_oversubscription_serialises(self, floret_scheduler):
        one = floret_scheduler.run(toy_tasks(1)).makespan_cycles
        result = floret_scheduler.run(toy_tasks(30))
        # 30 tasks cannot all fit -> makespan grows beyond one round.
        assert result.makespan_cycles > one
        assert len(result.completed) == 30

    def test_utilization_bounds(self, floret_scheduler):
        result = floret_scheduler.run(toy_tasks(12))
        assert 0.0 < result.utilization <= 1.0

    def test_busy_integral_consistent(self, floret_scheduler):
        result = floret_scheduler.run(toy_tasks(3))
        expected = sum(
            t.placement.num_chiplets * t.duration for t in result.completed
        )
        assert result.busy_integral == expected

    def test_task_too_big_raises(self, small_floret):
        from repro.workloads.zoo import build_model

        scheduler = SystemScheduler(
            small_floret.topology,
            ContiguousMapper(small_floret.allocation_order),
        )
        big = build_model("vgg19", "imagenet")  # needs ~69 chiplets > 36
        with pytest.raises(ValueError, match="needs"):
            scheduler.run([DNNTask("big", "DNN7", big)])


class TestConstraintAccounting:
    def test_strict_budget_counts_failures(self, small_mesh):
        scheduler = SystemScheduler(
            small_mesh,
            GreedyMapper(small_mesh, max_hops=1),
            fallback_mapper=GreedyMapper(small_mesh),
        )
        result = scheduler.run(toy_tasks(20))
        assert len(result.completed) == 20
        # With churn, the strict budget must reject at least once.
        assert result.constraint_failures >= 0

    def test_fifo_start_order(self, floret_scheduler):
        result = floret_scheduler.run(toy_tasks(8))
        starts = {t.perf.task_id: t.start_cycle for t in result.completed}
        ordered = [starts[f"t{i:02d}"] for i in range(8)]
        assert ordered == sorted(ordered)

    def test_mean_metrics_nonzero(self, floret_scheduler):
        result = floret_scheduler.run(toy_tasks(4))
        assert result.mean_noi_latency > 0
        assert result.mean_packet_latency > 0
        assert result.total_noi_energy_pj > 0
        assert result.mean_task_latency > 0


class TestTaskPerfMemoization:
    """Schedule-level TaskPerf memo: bit-identical results, counted."""

    @staticmethod
    def _scheduler(small_floret, memoize):
        return SystemScheduler(
            small_floret.topology,
            ContiguousMapper(
                small_floret.allocation_order, small_floret.topology
            ),
            memoize=memoize,
        )

    def test_memoized_bit_identical_to_cold(self, small_floret):
        tasks = toy_tasks(12)
        cold = self._scheduler(small_floret, memoize=False).run(tasks)
        warm = self._scheduler(small_floret, memoize=True).run(tasks)
        assert cold.makespan_cycles == warm.makespan_cycles
        assert cold.busy_integral == warm.busy_integral
        assert cold.num_chiplets == warm.num_chiplets
        assert len(cold.completed) == len(warm.completed)
        for c, w in zip(cold.completed, warm.completed):
            assert c.perf == w.perf  # frozen dataclass: field-exact
            assert c.placement.chiplet_ids == w.placement.chiplet_ids
            assert (c.start_cycle, c.finish_cycle) == (
                w.start_cycle, w.finish_cycle
            )

    def test_hits_and_misses_counted(self, small_floret):
        from repro.obs.metrics import REGISTRY

        hits = REGISTRY.counter("sched_taskperf_cache_hits")
        misses = REGISTRY.counter("sched_taskperf_cache_misses")
        h0, m0 = hits.value, misses.value
        self._scheduler(small_floret, memoize=True).run(toy_tasks(10))
        # 10 identical tasks recycle a handful of footprints: at least
        # one cold evaluation and at least one memo hit.
        assert misses.value > m0
        assert hits.value > h0
        assert (hits.value - h0) + (misses.value - m0) == 10

    def test_hit_keeps_each_tasks_id(self, small_floret):
        result = self._scheduler(small_floret, memoize=True).run(
            toy_tasks(8)
        )
        ids = sorted(t.perf.task_id for t in result.completed)
        assert ids == sorted(f"t{i:02d}" for i in range(8))

    def test_memo_persists_across_runs(self, small_floret):
        from repro.obs.metrics import REGISTRY

        scheduler = self._scheduler(small_floret, memoize=True)
        misses = REGISTRY.counter("sched_taskperf_cache_misses")
        scheduler.run(toy_tasks(4))
        m1 = misses.value
        scheduler.run(toy_tasks(4))
        # Second run re-uses the first run's entries: no new misses.
        assert misses.value == m1

    def test_memo_dropped_when_spec_reassigned(self, small_floret):
        scheduler = self._scheduler(small_floret, memoize=True)
        before = scheduler.run(toy_tasks(6))
        spec = scheduler.spec
        slower = replace(spec, crossbar=replace(
            spec.crossbar, latency_cycles=2 * spec.crossbar.latency_cycles))
        scheduler.spec = slower
        after = scheduler.run(toy_tasks(6))
        cold = self._scheduler(small_floret, memoize=False)
        cold.spec = slower
        expected = cold.run(toy_tasks(6))
        assert [t.perf for t in after.completed] == [
            t.perf for t in expected.completed]
        assert after.makespan_cycles > before.makespan_cycles

    def test_memoize_disabled_never_caches(self, small_floret):
        from repro.obs.metrics import REGISTRY

        hits = REGISTRY.counter("sched_taskperf_cache_hits")
        misses = REGISTRY.counter("sched_taskperf_cache_misses")
        h0, m0 = hits.value, misses.value
        scheduler = self._scheduler(small_floret, memoize=False)
        scheduler.run(toy_tasks(6))
        assert (hits.value, misses.value) == (h0, m0)
        assert scheduler._perf_memo == {}

"""Queue-based multi-task scheduler for concurrent DNN inference.

The paper maps each Table II mix as a FIFO queue: "the mapping algorithm
treats the list of tasks (W) as a queue, assigning one DNN task at a
time" -- which rules out deadlock (no cyclic waits, no concurrent
mapping threads).  This scheduler reproduces that policy as an
event-driven simulation: map the queue head whenever it fits, advance
time to the next task completion otherwise, release chiplets on
completion, and account utilisation over time.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, fields
from typing import (
    Callable, Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from ..net.perf import TaskPerf, evaluate_task
from ..noi.topology import Topology
from ..obs.metrics import REGISTRY
from ..pim.allocation import AllocationPlan, plan_allocation
from ..pim.chiplet import ChipletSpec
from ..workloads.tasks import DNNTask
from .mapping import Mapper, TaskPlacement


@dataclass(frozen=True)
class ScheduledTask:
    """One completed task with its placement, timing and performance."""

    placement: TaskPlacement
    perf: TaskPerf
    start_cycle: int
    finish_cycle: int

    @property
    def duration(self) -> int:
        return self.finish_cycle - self.start_cycle


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one task mix on one NoI.

    Attributes:
        completed: All tasks in completion order.
        makespan_cycles: Time until the last task finished.
        num_chiplets: System size.
        busy_integral: Sum over tasks of (chiplets x duration) -- the
            chiplet-time actually used.
        constraint_failures: Mapping attempts rejected by the mapper's
            admission rule (hop budget) even though enough chiplets were
            free -- the paper's "unmapped chiplets" symptom (Fig. 4).
        relaxed_mappings: Tasks that could only be mapped after dropping
            the admission constraint (progress guarantee).
    """

    completed: Tuple[ScheduledTask, ...]
    makespan_cycles: int
    num_chiplets: int
    busy_integral: int
    constraint_failures: int
    relaxed_mappings: int

    @property
    def utilization(self) -> float:
        """Time-averaged fraction of chiplets doing useful work."""
        denom = self.num_chiplets * self.makespan_cycles
        return (self.busy_integral / denom) if denom else 0.0

    @property
    def mean_noi_latency(self) -> float:
        """Mean per-task NoI (communication) latency in cycles."""
        if not self.completed:
            return 0.0
        return sum(
            t.perf.noi_latency_cycles for t in self.completed
        ) / len(self.completed)

    @property
    def mean_packet_latency(self) -> float:
        """Packet-weighted average NoI packet latency (Fig. 3 metric)."""
        packets = sum(t.perf.packet_count for t in self.completed)
        if packets == 0:
            return 0.0
        return sum(
            t.perf.packet_latency_sum for t in self.completed
        ) / packets

    @property
    def total_noi_energy_pj(self) -> float:
        """Total NoI energy over the mix (Fig. 5 metric)."""
        return sum(t.perf.noi_energy_pj for t in self.completed)

    @property
    def mean_task_latency(self) -> float:
        if not self.completed:
            return 0.0
        return sum(
            t.perf.latency_cycles for t in self.completed
        ) / len(self.completed)


class SystemScheduler:
    """Event-driven FIFO scheduler over one NoI and one mapper.

    Args:
        topology: The NoI.
        mapper: Placement strategy (contiguous or greedy).
        spec: Chiplet hardware spec (capacity, MVM model).
        fallback_mapper: Used when ``mapper`` rejects a task that cannot
            otherwise ever be placed (e.g. strict hop budget with an
            empty system).  ``None`` re-uses ``mapper`` without change,
            meaning such tasks raise.
        memoize: Reuse :class:`TaskPerf` results across tasks that share
            (model, placement).  Table II mixes repeat each DNN many
            times and the mapper recycles footprints as chiplets free
            up, so the Nth identical task becomes a dict lookup.  Safe
            because ``evaluate_task`` is a pure function of the key and
            ``spec``: the memo lives for the scheduler's lifetime,
            spanning ``run`` calls, and is dropped when ``spec`` is
            reassigned.  Disable to force a cold evaluation per task.
    """

    def __init__(
        self,
        topology: Topology,
        mapper: Mapper,
        *,
        spec: Optional[ChipletSpec] = None,
        fallback_mapper: Optional[Mapper] = None,
        memoize: bool = True,
    ) -> None:
        self.topology = topology
        self.mapper = mapper
        self.spec = spec or ChipletSpec.from_params()
        self.fallback_mapper = fallback_mapper
        self.memoize = memoize
        #: (model name, dataset, chiplet ids) -> the ``TaskPerf`` fields
        #: after ``task_id``, valid for ``_memo_spec`` only.
        self._perf_memo: Dict[Tuple[str, str, Tuple[int, ...]], tuple] = {}
        self._memo_spec = self.spec

    def _evaluate(
        self,
        task: DNNTask,
        plan: AllocationPlan,
        placement: TaskPlacement,
    ) -> TaskPerf:
        """Evaluate (or recall) the task's performance on its placement."""
        if not self.memoize:
            return evaluate_task(
                self.topology, task.model, plan, placement.chiplet_ids,
                task_id=task.task_id, spec=self.spec,
            )
        if self._memo_spec is not self.spec:
            self._perf_memo.clear()
            self._memo_spec = self.spec
        key = (
            task.model.name, task.model.dataset,
            tuple(placement.chiplet_ids),
        )
        rest = self._perf_memo.get(key)
        if rest is None:
            REGISTRY.counter("sched_taskperf_cache_misses").inc()
            perf = evaluate_task(
                self.topology, task.model, plan, placement.chiplet_ids,
                task_id=task.task_id, spec=self.spec,
            )
            self._perf_memo[key] = tuple(
                getattr(perf, f.name) for f in fields(TaskPerf)[1:]
            )
            return perf
        REGISTRY.counter("sched_taskperf_cache_hits").inc()
        # ``task_id`` is TaskPerf's first field; positional construction
        # costs less than half of ``dataclasses.replace``.
        return TaskPerf(task.task_id, *rest)

    def run(self, tasks: Sequence[DNNTask]) -> ScheduleResult:
        """Schedule ``tasks`` FIFO until all complete.

        Raises:
            ValueError: If a task needs more chiplets than the system has.
        """
        queue: Deque[Tuple[DNNTask, AllocationPlan]] = deque(
            (task, plan_allocation(task.model, self.spec)) for task in tasks
        )
        n = self.topology.num_chiplets
        for task, plan in queue:
            if plan.num_chiplets > n:
                raise ValueError(
                    f"task {task.task_id} needs {plan.num_chiplets} chiplets; "
                    f"system has {n}"
                )

        free: Set[int] = set(range(n))
        #: (finish_cycle, seq, ScheduledTask)
        active: List[Tuple[int, int, ScheduledTask]] = []
        completed: List[ScheduledTask] = []
        now = 0
        seq = 0
        busy_integral = 0
        constraint_failures = 0
        relaxed = 0

        while queue or active:
            progressed = True
            while queue and progressed:
                progressed = False
                task, plan = queue[0]
                placement = self.mapper.map_task(
                    task.task_id, task.model, plan, frozenset(free)
                )
                if placement is None and len(free) >= plan.num_chiplets:
                    constraint_failures += 1
                    if not active and self.fallback_mapper is not None:
                        placement = self.fallback_mapper.map_task(
                            task.task_id, task.model, plan, frozenset(free)
                        )
                        if placement is not None:
                            relaxed += 1
                if placement is None:
                    if not active:
                        raise ValueError(
                            f"task {task.task_id} cannot be mapped on an "
                            f"idle system (needs {plan.num_chiplets} of {n})"
                        )
                    break
                queue.popleft()
                perf = self._evaluate(task, plan, placement)
                duration = max(1, perf.latency_cycles)
                scheduled = ScheduledTask(
                    placement=placement,
                    perf=perf,
                    start_cycle=now,
                    finish_cycle=now + duration,
                )
                free.difference_update(placement.chiplet_ids)
                busy_integral += placement.num_chiplets * duration
                heapq.heappush(active, (scheduled.finish_cycle, seq, scheduled))
                seq += 1
                progressed = True
            if active:
                finish, _s, scheduled = heapq.heappop(active)
                now = max(now, finish)
                free.update(scheduled.placement.chiplet_ids)
                completed.append(scheduled)

        return ScheduleResult(
            completed=tuple(completed),
            makespan_cycles=now,
            num_chiplets=n,
            busy_integral=busy_integral,
            constraint_failures=constraint_failures,
            relaxed_mappings=relaxed,
        )

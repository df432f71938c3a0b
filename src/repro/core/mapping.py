"""Layer-to-chiplet mapping strategies.

Two mappers reproduce the paper's comparison:

* :class:`ContiguousMapper` -- the Floret strategy: consume chiplets in
  the global SFC allocation order, so consecutive neural layers always
  land on physically adjacent chiplets, and tasks that outgrow one petal
  spill over to the next petal's head via the top-level network.
* :class:`GreedyMapper` -- the baseline strategy the paper applies to
  Kite/SIAM/SWAP: map each successive chiplet-load to the free chiplet
  with the fewest hops from the previous one.  On multi-hop topologies
  this fragments the free set; with a hop-budget admission constraint it
  leaves chiplets unmapped (the paper's Fig. 4), without it it pays
  multi-hop transfers (Figs. 3 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..noi.topology import NoPathError, Topology
from ..pim.allocation import AllocationPlan
from ..workloads.dnn import DNNModel


@dataclass(frozen=True)
class TaskPlacement:
    """A task's physical footprint on the NoI.

    Attributes:
        task_id: Task identifier.
        model_name: Workload name.
        plan: The chiplet allocation plan being placed.
        chiplet_ids: Physical chiplet for each plan position, in dataflow
            order.
    """

    task_id: str
    model_name: str
    plan: AllocationPlan
    chiplet_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.chiplet_ids) != self.plan.num_chiplets:
            raise ValueError(
                f"task {self.task_id!r}: placement size "
                f"{len(self.chiplet_ids)} != plan size {self.plan.num_chiplets}"
            )
        if len(set(self.chiplet_ids)) != len(self.chiplet_ids):
            raise ValueError(f"task {self.task_id!r}: duplicate chiplets")

    @property
    def num_chiplets(self) -> int:
        return len(self.chiplet_ids)

    def max_adjacent_hops(self, topology: Topology) -> int:
        """Largest hop distance between consecutive plan positions."""
        return max(
            (
                topology.hops(a, b)
                for a, b in zip(self.chiplet_ids, self.chiplet_ids[1:])
            ),
            default=0,
        )


class Mapper(Protocol):
    """Strategy interface: place one task onto the free chiplet set."""

    def map_task(
        self,
        task_id: str,
        model: DNNModel,
        plan: AllocationPlan,
        free: FrozenSet[int],
    ) -> Optional[TaskPlacement]:
        """Return a placement using only ``free`` chiplets, or None."""
        ...  # pragma: no cover


class ContiguousMapper:
    """Dataflow-aware mapping along a linear chiplet order (Floret).

    Args:
        allocation_order: Global SFC visit order of chiplet ids (from
            :class:`~repro.core.floret.FloretDesign.allocation_order`, or
            any linear order for ablations).
        topology: When given, spill-over placements are jump-optimised
            with real hop distances (runs are chained end-to-start and may
            be walked in either direction); without it, distance along
            the allocation order is used as a proxy.
    """

    def __init__(
        self,
        allocation_order: Sequence[int],
        topology: Optional[Topology] = None,
    ) -> None:
        if len(set(allocation_order)) != len(allocation_order):
            raise ValueError("allocation order repeats chiplets")
        self.allocation_order: Tuple[int, ...] = tuple(allocation_order)
        self.topology = topology
        self._order_pos = {c: i for i, c in enumerate(self.allocation_order)}

    def _jump_hops(self, a: int, b: int) -> int:
        """Hop distance used to score run-to-run jumps."""
        if self.topology is not None:
            return self.topology.hops(a, b)
        return abs(self._order_pos[a] - self._order_pos[b])

    def _free_runs(self, free: FrozenSet[int]) -> List[List[int]]:
        """Maximal runs of consecutive free positions along the order."""
        runs: List[List[int]] = []
        current: List[int] = []
        for chiplet in self.allocation_order:
            if chiplet in free:
                current.append(chiplet)
            elif current:
                runs.append(current)
                current = []
        if current:
            runs.append(current)
        return runs

    def map_task(
        self,
        task_id: str,
        model: DNNModel,
        plan: AllocationPlan,
        free: FrozenSet[int],
    ) -> Optional[TaskPlacement]:
        """Best-fit contiguous allocation along the SFC order.

        Preference order, mirroring the paper's mapping discussion:

        1. A single contiguous free run that fits the whole task -- the
           *smallest* adequate run is chosen (best fit), which preserves
           large runs for large future tasks and keeps every consecutive
           layer pair on physically adjacent chiplets.
        2. Otherwise, spill over: take the largest free runs until the
           demand is met (fewest fragments), then chain the runs so every
           run-to-run jump is as short as possible -- the runtime analogue
           of the paper's Eq. (1) head/tail optimisation.  Runs may be
           walked in either direction (chain links are undirected), which
           lets a jump land on whichever run end is nearest.
        """
        need = plan.num_chiplets
        if need == 0:
            return TaskPlacement(task_id, model.name, plan, ())
        runs = self._free_runs(free)
        if sum(len(r) for r in runs) < need:
            return None
        fitting = [r for r in runs if len(r) >= need]
        if fitting:
            chosen = min(fitting, key=len)[:need]
        else:
            chosen = self._spill_over(runs, need)
        return TaskPlacement(
            task_id=task_id,
            model_name=model.name,
            plan=plan,
            chiplet_ids=tuple(chosen),
        )

    def _spill_over(self, runs: List[List[int]], need: int) -> List[int]:
        """Select and chain free runs for a task larger than any run."""
        pool = sorted(runs, key=len, reverse=True)
        selected: List[List[int]] = []
        total = 0
        for run in pool:
            selected.append(run)
            total += len(run)
            if total >= need:
                break
        # Chain runs: start with the longest, then repeatedly append the
        # run whose nearest end is cheapest to jump to; orient each run
        # so the jump lands on its start.
        ordered: List[int] = list(selected[0])
        pending = selected[1:]
        while pending:
            tail = ordered[-1]
            best_cost = None
            best_index = 0
            best_reversed = False
            for i, run in enumerate(pending):
                for reverse in (False, True):
                    endpoint = run[-1] if reverse else run[0]
                    cost = self._jump_hops(tail, endpoint)
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best_index = i
                        best_reversed = reverse
            run = pending.pop(best_index)
            ordered.extend(reversed(run) if best_reversed else run)
        return ordered[:need]


class GreedyMapper:
    """Least-hop greedy mapping for arbitrary topologies (baselines).

    Args:
        topology: The NoI to map onto (used for hop queries).
        max_hops: Optional admission constraint: if the best free chiplet
            for the next load is farther than this many hops from the
            previous one, the mapping attempt *fails* (strict mode) --
            which is how design-time-optimised NoIs end up with unmapped
            chiplets at runtime (paper Fig. 4).  ``None`` accepts any
            distance and instead pays the multi-hop latency/energy.
    """

    def __init__(self, topology: Topology, max_hops: Optional[int] = None) -> None:
        self.topology = topology
        self.max_hops = max_hops

    def _start_chiplet(self, free: FrozenSet[int]) -> int:
        """Free chiplet with the most free neighbours (ties: lowest id)."""

        def free_neighbours(c: int) -> int:
            return sum(
                1 for n in self.topology.adj[c] if n in free
            )

        return max(sorted(free), key=free_neighbours)

    def map_task(
        self,
        task_id: str,
        model: DNNModel,
        plan: AllocationPlan,
        free: FrozenSet[int],
    ) -> Optional[TaskPlacement]:
        """Greedy least-hop chain placement (the paper's baseline)."""
        need = plan.num_chiplets
        if need > len(free):
            return None
        if need == 0:
            return TaskPlacement(task_id, model.name, plan, ())
        start = self._start_chiplet(free)
        # Each step takes the first minimum of the previous chiplet's
        # hop row over the still-free chiplets: fewest hops, then lowest
        # id.  An unreachable free chiplet (-1) would win the minimum,
        # so it surfaces as NoPathError, as a hop query raises.
        hops = self.topology.routing_tables().hops
        available = np.zeros(hops.shape[0], dtype=bool)
        available[list(free)] = True
        available[start] = False
        unavailable = np.iinfo(hops.dtype).max
        chosen = [start]
        prev = start
        for _ in range(need - 1):
            row = np.where(available, hops[prev], unavailable)
            best = int(row.argmin())
            if row[best] < 0:
                raise NoPathError(
                    f"{self.topology.name}: no path {prev}->{best}"
                )
            if self.max_hops is not None and row[best] > self.max_hops:
                return None
            chosen.append(best)
            available[best] = False
            prev = best
        return TaskPlacement(
            task_id=task_id,
            model_name=model.name,
            plan=plan,
            chiplet_ids=tuple(chosen),
        )

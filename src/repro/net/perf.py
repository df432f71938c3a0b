"""End-to-end task performance: compute + communication composition.

Evaluates one mapped DNN task on one NoI: per weighted layer, the layer's
input activations stream in from the chiplets of its producer layers
(communication step) while its crossbars replay MVMs (compute step); the
two overlap, so a layer costs ``max(comm, compute)`` and the task is the
sum over layers.  The NoI-only components (what the paper's Figs. 3 and
5 plot) are reported separately from compute.

Two engines, per the repo's oracle convention:

* :func:`evaluate_task` -- the production path, in two parts.  The
  :class:`TaskTemplate` holds everything that does not depend on where
  the task sits: the weighted layers, their compute
  (:func:`~repro.pim.chiplet.layer_compute_vec`, one call) and the
  multicast group table as plan-position arrays.  It is built once per
  ``(plan, model, spec, bytes_per_element)`` and cached on the plan;
  :func:`~repro.pim.allocation.plan_allocation` shares plans within a
  process, so every task of a model shares one template.  Per placement
  the table's positions become chiplet ids by two gathers, co-located
  destinations are masked out, and one
  :func:`~repro.net.vectorized.multicast_step_cost_arrays` call costs
  every layer's communication step; the :class:`TaskPerf` is folded
  from its per-step arrays.
* :func:`evaluate_task_perlayer` -- the pinned reference: the original
  per-layer loop over tuple groups.  ``tests/test_perf.py`` asserts the
  batched path matches it bit-exactly on integer fields and to 1e-9 on
  floats, on fixtures and on a differential fuzz
  (``TestDifferentialFuzz``), and pins the batched reprs to a digest
  recorded before templates (``test_taskperf_digest_pinned``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..noi.topology import Topology
from ..obs.metrics import REGISTRY
from ..pim.allocation import AllocationPlan, layer_crossbar_allocation
from ..pim.chiplet import (
    ChipletSpec, LayerComputeBatch, layer_compute, layer_compute_vec,
)
from ..workloads.dnn import DNNModel
from ..workloads.layers import Layer
from .analytic import CommReport
from .vectorized import (
    StepCosts, multicast_step_cost_arrays, multicast_step_cost_vec,
)


@dataclass(frozen=True)
class TaskPerf:
    """Performance of one task instance on one NoI.

    Attributes:
        task_id: Task identifier.
        model_name: Workload name.
        latency_cycles: End-to-end inference latency (compute and
            communication overlapped per layer).
        noi_latency_cycles: Communication-only latency (Fig. 3 metric).
        compute_latency_cycles: Compute-only latency.
        noi_energy_pj: Communication energy (Fig. 5 metric).
        compute_energy_pj: MVM energy.
        weighted_hops: Traffic-weighted mean hop count.
        num_chiplets: Chiplets occupied by the task.
        packet_count: NoI packets injected per inference.
        packet_latency_sum: Sum of per-packet latencies; divide by
            ``packet_count`` for the average packet latency (Fig. 3).
    """

    task_id: str
    model_name: str
    latency_cycles: int
    noi_latency_cycles: int
    compute_latency_cycles: int
    noi_energy_pj: float
    compute_energy_pj: float
    weighted_hops: float
    num_chiplets: int
    packet_count: int = 0
    packet_latency_sum: int = 0

    @property
    def mean_packet_latency(self) -> float:
        """Average NoI packet latency in cycles (Fig. 3 metric)."""
        if self.packet_count == 0:
            return 0.0
        return self.packet_latency_sum / self.packet_count

    @property
    def total_energy_pj(self) -> float:
        return self.noi_energy_pj + self.compute_energy_pj

    @property
    def edp(self) -> float:
        """Energy-delay product in pJ * cycles (Fig. 6(a) metric)."""
        return self.total_energy_pj * self.latency_cycles


def _incoming_groups(
    model: DNNModel,
    plan: AllocationPlan,
    chiplet_ids: Sequence[int],
    bytes_per_element: int,
) -> Dict[int, List[Tuple[int, Tuple[int, ...], int]]]:
    """Incoming multicasts per consumer layer, in physical chiplet ids.

    Destinations co-located with the source chiplet are dropped (no NoI
    traffic); groups whose destinations all vanish are dropped entirely.
    Only :func:`evaluate_task_perlayer` reads groups this way.
    """
    incoming: Dict[int, List[Tuple[int, Tuple[int, ...], int]]] = {}
    for group in plan.multicast_groups(model, bytes_per_element):
        src_chip = chiplet_ids[group.src]
        dst_chips = tuple(
            chiplet_ids[d] for d in group.dsts
            if chiplet_ids[d] != src_chip
        )
        if dst_chips:
            incoming.setdefault(group.dst_layer, []).append(
                (src_chip, dst_chips, group.payload_bytes)
            )
    return incoming


def _validate_placement(
    plan: AllocationPlan, chiplet_ids: Sequence[int]
) -> None:
    if len(chiplet_ids) != plan.num_chiplets:
        raise ValueError(
            f"placement has {len(chiplet_ids)} chiplets, plan needs "
            f"{plan.num_chiplets}"
        )


@dataclass(frozen=True, eq=False)
class TaskAttribution:
    """Per-layer comm-vs-compute critical path of one evaluated task.

    Arrays are ``(n,)`` over the model's weighted layers in step order.
    A layer's cost is ``max(comm, compute)`` (the two overlap); the
    *critical* resource is whichever bound it, with the tie awarded to
    communication (the NoI is the paper's subject, and a tied layer's
    latency cannot be improved by compute alone).  ``slack_cycles`` is
    what the non-critical resource could grow by for free.
    """

    task_id: str
    model_name: str
    layer_names: Tuple[str, ...]
    comm_cycles: np.ndarray
    compute_cycles: np.ndarray

    def __len__(self) -> int:
        return len(self.layer_names)

    @property
    def comm_bound(self) -> np.ndarray:
        """Boolean per layer: communication on the critical path."""
        return self.comm_cycles >= self.compute_cycles

    @property
    def critical_cycles(self) -> np.ndarray:
        return np.maximum(self.comm_cycles, self.compute_cycles)

    @property
    def slack_cycles(self) -> np.ndarray:
        return self.critical_cycles - np.minimum(
            self.comm_cycles, self.compute_cycles
        )

    def rows(self) -> List[Tuple[object, ...]]:
        """Display rows: one per layer plus a ``TOTAL`` line."""
        bound = self.comm_bound
        critical = self.critical_cycles
        total = max(1, int(critical.sum()))
        out: List[Tuple[object, ...]] = [
            (
                name,
                int(self.comm_cycles[i]),
                int(self.compute_cycles[i]),
                "comm" if bound[i] else "compute",
                int(self.slack_cycles[i]),
                f"{int(critical[i]) / total:.1%}",
            )
            for i, name in enumerate(self.layer_names)
        ]
        out.append((
            "TOTAL",
            int(self.comm_cycles.sum()),
            int(self.compute_cycles.sum()),
            f"comm x{int(bound.sum())}",
            int(self.slack_cycles.sum()),
            "100.0%",
        ))
        return out

    def format(self) -> str:
        from ..eval.report import format_table

        return format_table(
            ("layer", "comm_cycles", "compute_cycles", "critical",
             "slack_cycles", "share"),
            self.rows(),
            title=(
                f"task attribution: {self.task_id} "
                f"({int(self.comm_bound.sum())}/{len(self)} layers "
                f"comm-bound)"
            ),
        )


@dataclass(frozen=True, eq=False)
class TaskTemplate:
    """The placement-independent part of evaluating one task.

    Built by :func:`task_template`.  The group table lists the plan's
    multicast groups whose consumer is a weighted layer, stable-sorted
    by that layer's step, so its rows come in the order the per-layer
    engine visits them.  Every array is read-only.

    Attributes:
        layers: Weighted layers in step order.
        compute: Their compute, placement-independent.
        src_pos: ``(G,)`` plan position of each group's source.
        payload: ``(G,)`` bytes each destination of a group receives.
        step: ``(G,)`` step (consumer layer position) of each group.
        dst_group: ``(D,)`` group of each flattened destination.
        dst_pos: ``(D,)`` plan position of each flattened destination.
    """

    layers: Tuple[Layer, ...]
    compute: LayerComputeBatch
    src_pos: np.ndarray
    payload: np.ndarray
    step: np.ndarray
    dst_group: np.ndarray
    dst_pos: np.ndarray


def _build_template(
    model: DNNModel,
    plan: AllocationPlan,
    spec: ChipletSpec,
    bytes_per_element: int,
) -> TaskTemplate:
    layers = tuple(model.weight_layers())
    step_of = {layer.index: s for s, layer in enumerate(layers)}
    groups = sorted(
        (
            g for g in plan.multicast_groups(model, bytes_per_element)
            if g.dst_layer in step_of
        ),
        key=lambda g: step_of[g.dst_layer],
    )
    counts = [len(g.dsts) for g in groups]
    crossbar_shares = layer_crossbar_allocation(model, plan, spec)
    compute = layer_compute_vec(
        layers,
        [
            max(1, len(plan.layer_chiplets.get(layer.index, ())))
            for layer in layers
        ],
        spec,
        crossbars_available=[
            crossbar_shares.get(layer.index) for layer in layers
        ],
    )
    template = TaskTemplate(
        layers=layers,
        compute=compute,
        src_pos=np.array([g.src for g in groups], dtype=np.int64),
        payload=np.array(
            [g.payload_bytes for g in groups], dtype=np.int64
        ),
        step=np.array(
            [step_of[g.dst_layer] for g in groups], dtype=np.int64
        ),
        dst_group=np.repeat(np.arange(len(groups), dtype=np.int64), counts),
        dst_pos=np.fromiter(
            chain.from_iterable(g.dsts for g in groups), dtype=np.int64,
            count=sum(counts),
        ),
    )
    for array in (
        template.src_pos, template.payload, template.step,
        template.dst_group, template.dst_pos, compute.chiplets_used,
        compute.crossbars_used, compute.mvm_count, compute.latency_cycles,
        compute.energy_pj,
    ):
        array.flags.writeable = False
    return template


def task_template(
    plan: AllocationPlan,
    model: DNNModel,
    spec: ChipletSpec,
    bytes_per_element: int = 1,
) -> TaskTemplate:
    """The :class:`TaskTemplate` of ``model`` under ``plan``.

    Built once per ``(plan, model, spec, bytes_per_element)`` and cached
    on the plan instance, identity-keyed on ``model`` (the entry keeps
    the model alive, so its id cannot be recycled).

    Raises:
        ValueError: If ``model`` does not match the plan.
    """
    cache = plan.__dict__.setdefault("_templates", {})
    key = (id(model), spec, bytes_per_element)
    hit = cache.get(key)
    if hit is not None and hit[0] is model:
        return hit[1]
    template = _build_template(model, plan, spec, bytes_per_element)
    cache[key] = (model, template)
    return template


def _task_costs(
    topology: Topology,
    template: TaskTemplate,
    chiplet_ids: Sequence[int],
) -> StepCosts:
    """Per-layer communication costs of the template at one placement."""
    ids = np.asarray(chiplet_ids, dtype=np.int64)
    src = ids[template.src_pos]
    dst = ids[template.dst_pos]
    keep = dst != src[template.dst_group]
    return multicast_step_cost_arrays(
        topology, src, template.payload, template.dst_group[keep],
        dst[keep], template.step, len(template.layers),
    )


def _fold_task_perf(
    model: DNNModel,
    plan: AllocationPlan,
    task_id: str,
    costs: StepCosts,
    compute: LayerComputeBatch,
) -> TaskPerf:
    """Reduce the per-layer arrays into one :class:`TaskPerf`.

    The float fields repeat the per-layer engine's operations in its
    order: each step's ``weighted_hops * payload_volume`` and energy,
    summed left to right as Python floats.

    Also feeds the critical-path fleet counters: how many layers each
    resource bounded and how many cycles it contributed to the task's
    end-to-end latency -- the trace report's "attribution" section
    reads these, so every traced ``evaluate_task`` run is attributed
    for free.
    """
    volume = costs.volume
    step_hops = np.divide(
        costs.hop_weight, volume, out=np.zeros(volume.shape[0]),
        where=volume > 0,
    ) * volume
    hop_weight = sum(step_hops.tolist())
    volume_total = int(volume.sum())
    comm_latency = costs.latency
    comm_bound = comm_latency >= compute.latency_cycles
    critical = np.maximum(compute.latency_cycles, comm_latency)
    REGISTRY.counter("task_eval_batched").inc()
    REGISTRY.counter("task_layers_comm_bound").inc(int(comm_bound.sum()))
    REGISTRY.counter("task_layers_compute_bound").inc(
        int((~comm_bound).sum())
    )
    REGISTRY.counter("task_comm_critical_cycles").inc(
        int(critical[comm_bound].sum())
    )
    REGISTRY.counter("task_compute_critical_cycles").inc(
        int(critical[~comm_bound].sum())
    )
    return TaskPerf(
        task_id=task_id or model.name,
        model_name=model.name,
        latency_cycles=int(critical.sum()),
        noi_latency_cycles=int(comm_latency.sum()),
        compute_latency_cycles=int(compute.latency_cycles.sum()),
        noi_energy_pj=float(sum(costs.energy.tolist())),
        compute_energy_pj=float(compute.energy_pj.sum()),
        weighted_hops=(hop_weight / volume_total) if volume_total else 0.0,
        num_chiplets=plan.num_chiplets,
        packet_count=int(costs.packets.sum()),
        packet_latency_sum=int(costs.packet_latency.sum()),
    )


def evaluate_task(
    topology: Topology,
    model: DNNModel,
    plan: AllocationPlan,
    chiplet_ids: Sequence[int],
    *,
    task_id: str = "",
    spec: Optional[ChipletSpec] = None,
    bytes_per_element: int = 1,
) -> TaskPerf:
    """Evaluate one mapped task (cross-layer batched engine).

    The model's :class:`TaskTemplate` (built on first use, then read
    from the plan) supplies the compute and the group table; at this
    placement every layer's incoming multicasts, tagged with the
    consumer layer's step, go through one
    :func:`multicast_step_cost_arrays` call, and the per-layer
    ``max(comm, compute)`` composition reduces over arrays.
    :func:`evaluate_task_perlayer` is the pinned per-layer reference;
    :func:`attribute_task` additionally returns the per-layer
    critical-path table.

    Args:
        topology: The NoI the task runs on.
        model: The workload.
        plan: Its chiplet allocation plan.
        chiplet_ids: Physical chiplet id for each plan position
            (``len(chiplet_ids) == plan.num_chiplets``).
        task_id: Identifier for the report.
        spec: Chiplet hardware spec.
        bytes_per_element: Activation precision in bytes.

    Raises:
        ValueError: On plan/placement size mismatch.
    """
    _validate_placement(plan, chiplet_ids)
    spec = spec or ChipletSpec.from_params()
    template = task_template(plan, model, spec, bytes_per_element)
    return _fold_task_perf(
        model, plan, task_id, _task_costs(topology, template, chiplet_ids),
        template.compute,
    )


def attribute_task(
    topology: Topology,
    model: DNNModel,
    plan: AllocationPlan,
    chiplet_ids: Sequence[int],
    *,
    task_id: str = "",
    spec: Optional[ChipletSpec] = None,
    bytes_per_element: int = 1,
) -> Tuple[TaskPerf, TaskAttribution]:
    """:func:`evaluate_task` plus the per-layer critical-path split.

    One batched evaluation serves both results: the returned
    :class:`TaskPerf` is identical to :func:`evaluate_task`'s, and the
    :class:`TaskAttribution` keeps the per-layer comm/compute arrays
    the fold would otherwise discard.
    """
    _validate_placement(plan, chiplet_ids)
    spec = spec or ChipletSpec.from_params()
    template = task_template(plan, model, spec, bytes_per_element)
    costs = _task_costs(topology, template, chiplet_ids)
    perf = _fold_task_perf(model, plan, task_id, costs, template.compute)
    attribution = TaskAttribution(
        task_id=task_id or model.name,
        model_name=model.name,
        layer_names=template.compute.layer_names,
        comm_cycles=costs.latency,
        compute_cycles=template.compute.latency_cycles.astype(np.int64),
    )
    return perf, attribution


def evaluate_task_perlayer(
    topology: Topology,
    model: DNNModel,
    plan: AllocationPlan,
    chiplet_ids: Sequence[int],
    *,
    task_id: str = "",
    spec: Optional[ChipletSpec] = None,
    bytes_per_element: int = 1,
) -> TaskPerf:
    """Per-layer reference engine for :func:`evaluate_task`.

    One :func:`multicast_step_cost_vec` / :func:`layer_compute` call per
    weighted layer -- the original evaluation loop, kept as the pinned
    oracle (integer fields bit-exact, floats to 1e-9).
    """
    _validate_placement(plan, chiplet_ids)
    spec = spec or ChipletSpec.from_params()
    incoming = _incoming_groups(model, plan, chiplet_ids, bytes_per_element)
    crossbar_shares = layer_crossbar_allocation(model, plan, spec)
    total = noi_total = compute_total = 0
    noi_energy = compute_energy = 0.0
    hop_weight = 0.0
    volume_total = 0
    packet_count = 0
    packet_latency_sum = 0
    for layer in model.weight_layers():
        allocated = len(plan.layer_chiplets.get(layer.index, ()))
        compute = layer_compute(
            layer, max(1, allocated), spec,
            crossbars_available=crossbar_shares.get(layer.index),
        )
        comm: CommReport = multicast_step_cost_vec(
            topology, incoming.get(layer.index, ())
        )
        total += max(compute.latency_cycles, comm.latency_cycles)
        noi_total += comm.latency_cycles
        compute_total += compute.latency_cycles
        noi_energy += comm.energy_pj
        compute_energy += compute.energy_pj
        # Recombine the per-step payload-weighted means over their own
        # denominator (payload volume); weighting by flits would mix
        # bases and skew the task-level mean.
        hop_weight += comm.weighted_hops * comm.payload_volume
        volume_total += comm.payload_volume
        packet_count += comm.packet_count
        packet_latency_sum += comm.packet_latency_sum

    REGISTRY.counter("task_eval_fallback").inc()
    return TaskPerf(
        task_id=task_id or model.name,
        model_name=model.name,
        latency_cycles=total,
        noi_latency_cycles=noi_total,
        compute_latency_cycles=compute_total,
        noi_energy_pj=noi_energy,
        compute_energy_pj=compute_energy,
        weighted_hops=(hop_weight / volume_total) if volume_total else 0.0,
        num_chiplets=plan.num_chiplets,
        packet_count=packet_count,
        packet_latency_sum=packet_latency_sum,
    )

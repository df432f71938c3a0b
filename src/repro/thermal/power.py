"""Per-PE power extraction from a mapped workload.

The Section III evaluation runs one DNN in steady-state streaming on the
3D stack: every layer's PEs compute continuously at the pipeline's
bottleneck interval, so a PE's dynamic power is the energy of its resident
layer slices per inference divided by the bottleneck interval.  PEs that
execute the activation-heavy early layers burn the most power -- exactly
the PEs the paper says must not be stacked in one column far from the
heat sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..net.perf import TaskPerf, evaluate_task, task_template
from ..noi.topology import Topology
from ..pim.allocation import AllocationPlan
from ..pim.chiplet import ChipletSpec
from ..workloads.dnn import DNNModel


@dataclass(frozen=True)
class PowerProfile:
    """Power assignment for one mapped task on a PE array."""

    power_w: np.ndarray
    bottleneck_cycles: int
    perf: TaskPerf

    @property
    def total_w(self) -> float:
        return float(self.power_w.sum())


def streaming_power(
    topology: Topology,
    model: DNNModel,
    plan: AllocationPlan,
    chiplet_ids: Sequence[int],
    *,
    spec: Optional[ChipletSpec] = None,
    include_static: bool = True,
    include_noi: bool = True,
) -> PowerProfile:
    """Per-PE power for steady-state streaming inference.

    Power composition per PE:

    * compute: resident layer slices' MVM energy per inference divided by
      the pipeline bottleneck interval (the slowest layer step);
    * NoI: the task's communication energy per inference, split over the
      task's PEs (routers sit with the PEs), divided by the same interval;
    * static: chiplet leakage, always on.

    Returns power for every PE of ``topology`` (PEs outside the task get
    only static power if ``include_static``).
    """
    spec = spec or ChipletSpec.from_params()
    perf = evaluate_task(
        topology, model, plan, chiplet_ids, spec=spec
    )
    # Bottleneck interval: the slowest per-layer step bounds streaming
    # throughput.  The compute is the one evaluate_task just read.
    template = task_template(plan, model, spec)
    compute = template.compute
    bottleneck = max([1] + compute.latency_cycles.tolist())
    layer_energies: Dict[int, float] = {
        layer.index: energy_pj
        for layer, energy_pj in zip(
            template.layers, compute.energy_pj.tolist()
        )
    }

    n = topology.num_chiplets
    power = np.zeros(n)
    clock_hz = topology.params.clock_ghz * 1e9
    interval_s = bottleneck / clock_hz
    # Compute power: split each layer's energy over its PEs by slice
    # fraction.
    for layer_index, energy_pj in layer_energies.items():
        for pos, fraction in plan.layer_chiplets.get(layer_index, ()):
            pe = chiplet_ids[pos]
            power[pe] += energy_pj * 1e-12 * fraction / interval_s
    if include_noi and perf.noi_energy_pj > 0 and chiplet_ids:
        share = perf.noi_energy_pj * 1e-12 / interval_s / len(chiplet_ids)
        for pe in chiplet_ids:
            power[pe] += share
    if include_static:
        power += spec.static_power_w
    return PowerProfile(
        power_w=power, bottleneck_cycles=bottleneck, perf=perf
    )


def weight_fractions_per_pe(
    n_pes: int, plan: AllocationPlan, chiplet_ids: Sequence[int]
) -> List[float]:
    """Fraction of the task's weights resident on each PE.

    Used by the accuracy model to weight per-PE thermal noise by how many
    of the model's weights each PE actually stores.
    """
    weights = np.zeros(n_pes)
    for pos, load in enumerate(plan.loads):
        weights[chiplet_ids[pos]] += load.total_weights
    total = weights.sum()
    if total == 0:
        return [0.0] * n_pes
    return list(weights / total)

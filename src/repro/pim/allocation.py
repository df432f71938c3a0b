"""Layer-to-chiplet allocation planning.

Before a task can be mapped onto the NoI, its weighted layers must be
packed into chiplet-sized loads: a large layer spans several chiplets,
and several small consecutive layers share one chiplet.  The resulting
:class:`AllocationPlan` is a *linear sequence* of chiplet loads in
dataflow order -- exactly the thing the Floret mapper lays contiguously
along the SFC, and the greedy mapper scatters over a mesh/torus.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..workloads.dnn import DNNModel
from ..workloads.traffic import interlayer_traffic
from .chiplet import ChipletSpec


@dataclass(frozen=True)
class LayerSlice:
    """Portion of one layer's weights resident on one chiplet.

    Attributes:
        layer_index: Index of the layer in the model graph.
        weights: Weights of the layer stored in this slice.
        fraction: ``weights / layer.weights`` (in (0, 1]).
    """

    layer_index: int
    weights: int
    fraction: float


@dataclass(frozen=True)
class MulticastGroup:
    """One producer slice fanned out to a consumer layer's chiplets.

    Attributes:
        src: Plan-relative source position.
        dsts: Plan-relative destination positions (source excluded).
        payload_bytes: Bytes each destination must receive.
        dst_layer: Consumer layer index (for per-layer step grouping).
    """

    src: int
    dsts: Tuple[int, ...]
    payload_bytes: int
    dst_layer: int


@dataclass(frozen=True)
class ChipletLoad:
    """The content of one chiplet: slices of one or more layers."""

    slices: Tuple[LayerSlice, ...]

    @property
    def total_weights(self) -> int:
        return sum(s.weights for s in self.slices)

    @property
    def layer_indices(self) -> Tuple[int, ...]:
        return tuple(s.layer_index for s in self.slices)


@dataclass(frozen=True)
class AllocationPlan:
    """Chiplet loads for one task, in dataflow order.

    Attributes:
        model_name: Workload the plan belongs to.
        loads: One entry per chiplet the task requires.
        layer_chiplets: layer index -> (chiplet position, fraction) pairs
            within this plan (positions are plan-relative, 0-based).
    """

    model_name: str
    loads: Tuple[ChipletLoad, ...]
    layer_chiplets: Dict[int, Tuple[Tuple[int, float], ...]]

    @property
    def num_chiplets(self) -> int:
        return len(self.loads)

    def multicast_groups(
        self, model: DNNModel, bytes_per_element: int = 1
    ) -> List["MulticastGroup"]:
        """Plan-relative multicast traffic for one inference.

        PIM chiplets split layers over their *output channels* (column
        split), so a chiplet holding ``src_frac`` of a producer layer
        emits ``volume * src_frac`` bytes, and **every** chiplet of the
        consumer layer needs that slice -- one multicast per (producer
        chiplet, consumer layer) pair.  Destinations co-located with the
        source stay on-chip and are dropped, as are edges whose producer
        is the network input (boundary injection is identical for every
        NoI and cancels in comparisons).

        Task evaluation reads these groups once per model, through the
        :class:`~repro.net.perf.TaskTemplate` cached on the plan.

        Raises:
            ValueError: If ``model`` does not match the plan.
        """
        if model.name != self.model_name:
            raise ValueError(
                f"plan is for {self.model_name!r}, got model {model.name!r}"
            )
        out: List[MulticastGroup] = []
        for src_layer, dst_layer, volume in interlayer_traffic(
            model, bytes_per_element
        ):
            if src_layer == 0:
                continue
            src_places = self.layer_chiplets.get(src_layer, ())
            dst_positions = tuple(
                pos for pos, _f in self.layer_chiplets.get(dst_layer, ())
            )
            for src_pos, src_frac in src_places:
                payload = int(round(volume * src_frac))
                targets = tuple(d for d in dst_positions if d != src_pos)
                if payload > 0 and targets:
                    out.append(
                        MulticastGroup(
                            src=src_pos,
                            dsts=targets,
                            payload_bytes=payload,
                            dst_layer=dst_layer,
                        )
                    )
        return out

    def chiplet_traffic(
        self, model: DNNModel, bytes_per_element: int = 1
    ) -> List[Tuple[int, int, int]]:
        """Pairwise view of :meth:`multicast_groups`.

        Each multicast is expanded into per-destination unicasts carrying
        the full slice payload -- an upper bound used by tools that do
        not model multicast trees.  Returns ``(src_pos, dst_pos, bytes)``.
        """
        out: List[Tuple[int, int, int]] = []
        for group in self.multicast_groups(model, bytes_per_element):
            for dst in group.dsts:
                out.append((group.src, dst, group.payload_bytes))
        return out


def layer_crossbar_allocation(
    model: DNNModel,
    plan: AllocationPlan,
    spec: Optional[ChipletSpec] = None,
) -> Dict[int, int]:
    """Demand-proportional crossbar shares per layer.

    Each chiplet's crossbars are divided among its resident layer slices
    in proportion to their MVM demand, modelling SIAM-style weight
    replication: activation-heavy layers receive the chiplet's idle
    crossbars so the inference pipeline stays balanced.  Returns
    layer index -> crossbars available to that layer (>= 1).
    """
    from .reram import mvms_for_layer

    spec = spec or ChipletSpec.from_params()
    layers = {layer.index: layer for layer in model.layers}
    shares: Dict[int, float] = {}
    for load in plan.loads:
        demands = []
        for s in load.slices:
            layer = layers[s.layer_index]
            mvms = mvms_for_layer(layer.macs, layer.weights, spec.crossbar)
            demands.append((s.layer_index, max(1.0, mvms * s.fraction)))
        total = sum(d for _, d in demands)
        for layer_index, demand in demands:
            shares[layer_index] = shares.get(layer_index, 0.0) + (
                spec.crossbars * demand / total
            )
    return {k: max(1, int(v)) for k, v in shares.items()}


#: Most plans :func:`plan_allocation` keeps; the oldest goes first.
_PLAN_CACHE_SIZE = 64
#: ``(id(model), spec, pack_layers)`` -> ``(model, plan)``, oldest first.
_plans: "OrderedDict[tuple, Tuple[DNNModel, AllocationPlan]]" = OrderedDict()


def plan_allocation(
    model: DNNModel,
    spec: Optional[ChipletSpec] = None,
    *,
    pack_layers: bool = True,
) -> AllocationPlan:
    """Pack a model's weighted layers into a linear chiplet sequence.

    Greedy first-fit in dataflow order: the current chiplet keeps
    accepting (slices of) consecutive layers until full.  With
    ``pack_layers=False`` every layer starts on a fresh chiplet (one
    knob of the packing ablation).

    The plan is a pure function of its arguments, so a process shares
    one plan per ``(model, spec, pack_layers)``, and with it the task
    templates cached on the plan.  The cache is identity-keyed on
    ``model`` (an entry keeps its model alive, so ids cannot be
    recycled) and holds at most ``_PLAN_CACHE_SIZE`` plans.
    """
    spec = spec or ChipletSpec.from_params()
    key = (id(model), spec, pack_layers)
    hit = _plans.get(key)
    if hit is not None and hit[0] is model:
        return hit[1]
    plan = _pack(model, spec, pack_layers)
    _plans[key] = (model, plan)
    while len(_plans) > _PLAN_CACHE_SIZE:
        _plans.popitem(last=False)
    return plan


def _pack(
    model: DNNModel, spec: ChipletSpec, pack_layers: bool
) -> AllocationPlan:
    capacity = spec.weight_capacity
    loads: List[List[LayerSlice]] = [[]]
    remaining = capacity
    layer_chiplets: Dict[int, List[Tuple[int, float]]] = {}

    def current_position() -> int:
        return len(loads) - 1

    for layer in model.weight_layers():
        left = layer.weights
        if not pack_layers and loads[-1]:
            loads.append([])
            remaining = capacity
        while left > 0:
            if remaining == 0:
                loads.append([])
                remaining = capacity
            take = min(left, remaining)
            fraction = take / layer.weights
            loads[-1].append(LayerSlice(layer.index, take, fraction))
            layer_chiplets.setdefault(layer.index, []).append(
                (current_position(), fraction)
            )
            remaining -= take
            left -= take
    if loads and not loads[-1]:
        loads.pop()
    return AllocationPlan(
        model_name=model.name,
        loads=tuple(ChipletLoad(tuple(slices)) for slices in loads),
        layer_chiplets={
            k: tuple(v) for k, v in layer_chiplets.items()
        },
    )

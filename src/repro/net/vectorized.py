"""Vectorized NoI evaluation engine (batched analytic model).

Drop-in batched counterparts of the scalar models in
:mod:`repro.net.analytic`: whole transfer sets and traffic matrices are
evaluated with NumPy gathers over the precomputed
:class:`~repro.net.routing.RoutingTables` instead of per-flow Python
loops.  The scalar functions remain the *reference oracles* --
``tests/test_vectorized.py`` asserts agreement to 1e-9 relative
tolerance across every architecture -- while this module is the
production hot path used by :mod:`repro.net.perf` and the sweep runner.

Integer quantities (latencies, flit/packet counts) are computed in
``int64`` and match the oracles exactly; energies are float sums whose
accumulation order differs from the scalar loop, hence the tolerance.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from ..noi.topology import Topology
from .analytic import CommReport
from .routing import concat_ranges

TransferArray = Union[
    Sequence[Tuple[int, int, int]], np.ndarray
]

_EMPTY_REPORT = CommReport(
    latency_cycles=0,
    serial_latency_cycles=0,
    energy_pj=0.0,
    total_flits=0,
    weighted_hops=0.0,
    packet_count=0,
    packet_latency_sum=0,
    payload_volume=0,
)


def transfers_to_arrays(
    transfers: TransferArray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalise ``[(src, dst, bytes), ...]`` into filtered int64 arrays.

    Self-transfers and non-positive payloads are dropped, mirroring the
    scalar models' ``if src == dst or payload <= 0: continue``.
    """
    arr = np.asarray(transfers, dtype=np.int64)
    if arr.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    arr = arr.reshape(-1, 3)
    src, dst, payload = arr[:, 0], arr[:, 1], arr[:, 2]
    keep = (src != dst) & (payload > 0)
    return src[keep], dst[keep], payload[keep]


def traffic_matrix_to_transfers(matrix: np.ndarray) -> np.ndarray:
    """Flatten an ``(n, n)`` bytes matrix into a transfer array.

    Entry ``matrix[s, d]`` is the payload from chiplet ``s`` to ``d``;
    the diagonal and zero entries are ignored.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"traffic matrix must be square, got {matrix.shape}")
    src, dst = np.nonzero(matrix)
    payload = matrix[src, dst].astype(np.int64)
    return np.stack([src.astype(np.int64), dst.astype(np.int64), payload],
                    axis=1)


def _flits(payload: np.ndarray, flit_bytes: int) -> np.ndarray:
    return -(-payload // flit_bytes)


def _packets(payload: np.ndarray, packet_bytes: int) -> np.ndarray:
    return -(-payload // packet_bytes)


def communication_cost_vec(
    topology: Topology, transfers: TransferArray
) -> CommReport:
    """Batched :func:`repro.net.analytic.communication_cost`.

    Latency composition is identical to the scalar oracle: transfers
    grouped by destination serialise at the ejection port (sum), groups
    overlap (max).
    """
    src, dst, payload = transfers_to_arrays(transfers)
    if src.size == 0:
        return _EMPTY_REPORT
    t = topology.routing_tables()
    t.check_reachable(src, dst, topology.name)
    params = topology.params

    flits = _flits(payload, params.flit_bytes)
    pipeline = t.pipeline_cycles[src, dst]
    latency = pipeline + flits
    by_dst = np.zeros(t.num_nodes, dtype=np.int64)
    np.add.at(by_dst, dst, latency)

    energy = float((flits * t.energy_pj_per_flit(src, dst)).sum())
    hops = t.hops[src, dst]
    volume = int(payload.sum())
    packets = _packets(payload, params.packet_bytes)
    packet_latency = pipeline + params.flits_per_packet
    return CommReport(
        latency_cycles=int(by_dst.max()),
        serial_latency_cycles=int(latency.sum()),
        energy_pj=energy,
        total_flits=int(flits.sum()),
        weighted_hops=(
            float((hops * payload).sum()) / volume if volume else 0.0
        ),
        packet_count=int(packets.sum()),
        packet_latency_sum=int((packets * packet_latency).sum()),
        payload_volume=volume,
    )


def traffic_matrix_cost(topology: Topology, matrix: np.ndarray) -> CommReport:
    """Evaluate a whole ``(n, n)`` traffic matrix in one batched pass."""
    return communication_cost_vec(
        topology, traffic_matrix_to_transfers(matrix)
    )


def unicast_step_cost_vec(
    topology: Topology, transfers: TransferArray
) -> CommReport:
    """Batched unicast step cost (bandwidth-bound latency composition).

    One step of :func:`_unicast_step_costs`; matches the scalar
    ``_unicast_step_cost``: the step's latency is the most loaded link's
    flit count plus the deepest pipeline.
    """
    src, dst, payload = transfers_to_arrays(transfers)
    step = np.zeros(src.shape[0], dtype=np.int64)
    return _step_reports(
        _unicast_step_costs(topology, src, dst, payload, step, 1)
    )[0]


def _groups_to_arrays(
    groups: Sequence[Tuple[int, Sequence[int], int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten multicast groups into ``(src, payload, group-of-dst, dst)``.

    ``src`` and ``payload`` are per-group; ``pg``/``pdst`` are the
    flattened ``(group id, destination)`` pairs with self-destinations
    and non-positive payloads already filtered, mirroring the scalar
    model's ``d != src`` / ``payload <= 0`` skips.
    """
    num = len(groups)
    src = np.empty(num, dtype=np.int64)
    payload = np.empty(num, dtype=np.int64)
    counts = np.empty(num, dtype=np.int64)
    dst_parts = []
    for g, (g_src, g_dsts, g_payload) in enumerate(groups):
        src[g] = g_src
        payload[g] = g_payload
        part = np.asarray(g_dsts, dtype=np.int64)
        counts[g] = part.shape[0]
        dst_parts.append(part)
    pdst = (
        np.concatenate(dst_parts) if dst_parts
        else np.empty(0, dtype=np.int64)
    )
    pg = np.repeat(np.arange(num, dtype=np.int64), counts)
    keep = (pdst != src[pg]) & (payload[pg] > 0)
    return src, payload, pg[keep], pdst[keep]


class StepCosts(NamedTuple):
    """Per-step cost arrays of one batched evaluation (``(num_steps,)``).

    Entry ``s`` of each array is the matching :class:`CommReport` field
    of step ``s`` before division: ``hop_weight`` is the payload-weighted
    hop sum, so ``weighted_hops == hop_weight / volume``.  A step with
    no effective traffic has ``has`` False and zeros everywhere.
    """

    has: np.ndarray
    latency: np.ndarray
    serial: np.ndarray
    energy: np.ndarray
    flits: np.ndarray
    hop_weight: np.ndarray
    volume: np.ndarray
    packets: np.ndarray
    packet_latency: np.ndarray


def _no_costs(num_steps: int) -> StepCosts:
    zeros = np.zeros(num_steps, dtype=np.int64)
    fzeros = np.zeros(num_steps, dtype=np.float64)
    return StepCosts(
        np.zeros(num_steps, dtype=bool), zeros, zeros, fzeros, zeros,
        fzeros, zeros, zeros, zeros,
    )


def multicast_step_cost_vec(
    topology: Topology,
    groups: Sequence[Tuple[int, Sequence[int], int]],
) -> CommReport:
    """Batched :func:`repro.net.analytic.multicast_step_cost`.

    One step of :func:`multicast_step_cost_steps`: every group's tree is
    built in one cross-group pass.
    """
    return multicast_step_cost_steps(topology, groups, [0] * len(groups), 1)[0]


def _segment_max_link_load(
    seg: np.ndarray,
    link: np.ndarray,
    flits: np.ndarray,
    num_links: int,
    num_segments: int,
) -> np.ndarray:
    """Per-segment max link load from (segment, link, flits) triples.

    Sums flits per distinct ``(segment, link)`` pair, then maxes within
    each segment -- without materialising the dense
    ``num_segments * num_links`` load matrix.
    """
    out = np.zeros(num_segments, dtype=np.int64)
    if seg.size == 0:
        return out
    key, inv = np.unique(seg * num_links + link, return_inverse=True)
    load = np.zeros(key.shape[0], dtype=np.int64)
    np.add.at(load, inv, flits)
    np.maximum.at(out, key // num_links, load)
    return out


def _step_reports(costs: StepCosts) -> List[CommReport]:
    """Assemble per-step ``CommReport``s from segment-reduced arrays."""
    reports: List[CommReport] = []
    for s in range(costs.has.shape[0]):
        if not costs.has[s]:
            reports.append(_EMPTY_REPORT)
            continue
        vol = int(costs.volume[s])
        reports.append(CommReport(
            latency_cycles=int(costs.latency[s]),
            serial_latency_cycles=int(costs.serial[s]),
            energy_pj=float(costs.energy[s]),
            total_flits=int(costs.flits[s]),
            weighted_hops=(float(costs.hop_weight[s]) / vol) if vol else 0.0,
            packet_count=int(costs.packets[s]),
            packet_latency_sum=int(costs.packet_latency[s]),
            payload_volume=vol,
        ))
    return reports


def _unicast_step_costs(
    topology: Topology,
    src: np.ndarray,
    dst: np.ndarray,
    payload: np.ndarray,
    step: np.ndarray,
    num_steps: int,
) -> StepCosts:
    """Per-step unicast step costs of filtered transfer arrays.

    ``step[i]`` assigns transfer ``i`` to a step in ``range(num_steps)``;
    each step's report is the scalar ``_unicast_step_cost`` of that
    step's transfers alone.
    """
    t = topology.routing_tables()
    t.check_reachable(src, dst, topology.name)
    params = topology.params
    num_links = t.num_directed_links

    flits = _flits(payload, params.flit_bytes)
    pair = src * t.num_nodes + dst
    counts = t.route_indptr[pair + 1] - t.route_indptr[pair]
    entries = t.route_links[concat_ranges(t.route_indptr[pair], counts)]
    max_load = _segment_max_link_load(
        np.repeat(step, counts), entries, np.repeat(flits, counts),
        num_links, num_steps,
    )

    pipeline = t.pipeline_cycles[src, dst]
    step_pipeline = np.zeros(num_steps, dtype=np.int64)
    np.maximum.at(step_pipeline, step, pipeline)
    has = np.zeros(num_steps, dtype=bool)
    has[step] = True

    step_serial = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_serial, step, pipeline + flits)
    step_flits = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_flits, step, flits)
    packets = _packets(payload, params.packet_bytes)
    step_packets = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_packets, step, packets)
    step_packet_latency = np.zeros(num_steps, dtype=np.int64)
    np.add.at(
        step_packet_latency, step,
        packets * (pipeline + params.flits_per_packet),
    )
    step_volume = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_volume, step, payload)
    step_energy = np.bincount(
        step, weights=flits * t.energy_pj_per_flit(src, dst),
        minlength=num_steps,
    )
    step_hop_weight = np.bincount(
        step, weights=(t.hops[src, dst] * payload).astype(np.float64),
        minlength=num_steps,
    )
    return StepCosts(
        has, max_load + step_pipeline, step_serial, step_energy,
        step_flits, step_hop_weight, step_volume, step_packets,
        step_packet_latency,
    )


def multicast_step_cost_steps(
    topology: Topology,
    groups: Sequence[Tuple[int, Sequence[int], int]],
    step_of_group: Sequence[int],
    num_steps: int,
) -> List[CommReport]:
    """Evaluate many dataflow steps' multicast groups in one batched pass.

    ``groups`` concatenates every step's ``(src, dsts, payload_bytes)``
    groups; ``step_of_group[g]`` assigns group ``g`` to a step in
    ``range(num_steps)`` (typically the consumer layer's position in
    ``model.weight_layers()``).  Returns one :class:`CommReport` per
    step, each equal to the scalar
    :func:`repro.net.analytic.multicast_step_cost` on that step's groups
    alone -- integer fields exactly, floats to accumulation order --
    with the per-layer Python loop replaced by step-segmented
    reductions: the cross-group ``group * L + link`` tree-dedup keys
    already carry the step through the group id, so link loads, tree
    energies and pipeline depths all fall out of one sorted dedup /
    ``np.add.at`` / ``np.maximum.at`` pass over the whole task.

    Steps with no effective traffic (no groups, or only self-destination
    / zero-payload groups) get the zero report, matching the per-step
    engines on an empty group list.  This is :func:`_groups_to_arrays`
    followed by :func:`multicast_step_cost_arrays`.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    step = np.asarray(step_of_group, dtype=np.int64).reshape(-1)
    if step.shape[0] != len(groups):
        raise ValueError(
            f"step_of_group has {step.shape[0]} entries "
            f"for {len(groups)} groups"
        )
    if step.size and (step.min() < 0 or step.max() >= num_steps):
        raise ValueError(
            f"step ids must lie in [0, {num_steps}), got "
            f"[{int(step.min())}, {int(step.max())}]"
        )
    src, payload, pg, pdst = _groups_to_arrays(groups)
    return _step_reports(multicast_step_cost_arrays(
        topology, src, payload, pg, pdst, step, num_steps
    ))


def multicast_step_cost_arrays(
    topology: Topology,
    src: np.ndarray,
    payload: np.ndarray,
    pg: np.ndarray,
    pdst: np.ndarray,
    step: np.ndarray,
    num_steps: int,
) -> StepCosts:
    """Array core of :func:`multicast_step_cost_steps`.

    Groups come as arrays: ``src``, ``payload`` and ``step`` per group
    (``payload > 0``), and the flattened ``(pg[i], pdst[i])`` pairs of
    group id and destination with self-destinations already removed.
    A group with no pair is inactive and costs nothing.  Callers that
    hold their groups as arrays (:func:`repro.net.perf.evaluate_task`)
    enter here directly, with no tuple round trip.
    """
    if pg.shape[0] == 0:
        return _no_costs(num_steps)
    if not topology.multicast_capable:
        return _unicast_step_costs(
            topology, src[pg], pdst, payload[pg], step[pg], num_steps
        )

    t = topology.routing_tables()
    params = topology.params
    t.check_reachable(src[pg], pdst, topology.name)
    num_groups = src.shape[0]
    num_links = t.num_directed_links

    # Cross-group tree dedup: every (group, dst) route's links are
    # gathered together and deduplicated per group in one pass over
    # combined ``group * L + link`` keys.  The group id also keeps
    # groups of different steps apart, so every step's trees are built
    # at once.
    pair = src[pg] * t.num_nodes + pdst
    counts = t.route_indptr[pair + 1] - t.route_indptr[pair]
    entries = t.route_links[concat_ranges(t.route_indptr[pair], counts)]
    # A sort plus an adjacent-difference mask is ``np.unique`` without
    # its first-call import of ``numpy.ma``.
    key = np.repeat(pg, counts) * num_links + entries
    key.sort()
    first = np.empty(key.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    key = key[first]
    tree_group = key // num_links
    tree_link = key % num_links

    flits = _flits(payload, params.flit_bytes)
    active = np.zeros(num_groups, dtype=bool)
    active[pg] = True
    ga = np.flatnonzero(active)

    max_load = _segment_max_link_load(
        step[tree_group], tree_link, flits[tree_group],
        num_links, num_steps,
    )

    tree_link_energy = np.bincount(
        tree_group,
        weights=t.link_energy_pj_per_flit[tree_link],
        minlength=num_groups,
    )
    tree_router_energy = np.bincount(
        tree_group,
        weights=t.router_energy_pj_per_flit[t.link_v[tree_link]],
        minlength=num_groups,
    )
    deepest = np.zeros(num_groups, dtype=np.int64)
    np.maximum.at(deepest, pg, t.pipeline_cycles[src[pg], pdst])
    step_deepest = np.zeros(num_steps, dtype=np.int64)
    np.maximum.at(step_deepest, step[ga], deepest[ga])
    has = np.zeros(num_steps, dtype=bool)
    has[step[ga]] = True

    group_energy = flits * (
        t.router_energy_pj_per_flit[src]
        + tree_router_energy
        + tree_link_energy
    )
    packets = _packets(payload, params.packet_bytes)

    step_serial = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_serial, step[ga], (deepest + flits)[ga])
    step_flits = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_flits, step[ga], flits[ga])
    step_packets = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_packets, step[ga], packets[ga])
    step_packet_latency = np.zeros(num_steps, dtype=np.int64)
    np.add.at(
        step_packet_latency, step[ga],
        (packets * (deepest + params.flits_per_packet))[ga],
    )
    step_volume = np.zeros(num_steps, dtype=np.int64)
    np.add.at(step_volume, step[pg], payload[pg])
    step_energy = np.bincount(
        step[ga], weights=group_energy[ga], minlength=num_steps
    )
    step_hop_weight = np.bincount(
        step[pg],
        weights=(t.hops[src[pg], pdst] * payload[pg]).astype(np.float64),
        minlength=num_steps,
    )
    return StepCosts(
        has, max_load + step_deepest, step_serial, step_energy,
        step_flits, step_hop_weight, step_volume, step_packets,
        step_packet_latency,
    )

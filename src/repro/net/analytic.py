"""Analytic NoI latency and energy models.

The paper's Figs. 3 and 5 compare *NoI latency* and *NoI energy* across
architectures for the same workloads on identical chiplets.  Both reduce
to path structure:

* **latency** of one transfer = pipeline fill (per-hop router delay plus
  per-link wire delay) + serialisation (one flit per cycle), and
* **energy** of one transfer = per-router crossbar/buffer energy (scales
  with the router's port count -- big routers burn more per flit) plus
  per-millimetre wire energy along the route.

These are the standard first-order NoC models (e.g. Orion/DSENT style);
the packet-level simulator (:mod:`repro.net.simulator`) cross-checks the
latency model under contention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..noi.topology import Topology
from ..params import NoIParams


def flits_for_bytes(payload_bytes: int, params: NoIParams) -> int:
    """Flits needed for a payload (at least 1 for a non-empty transfer)."""
    if payload_bytes < 0:
        raise ValueError("negative payload")
    if payload_bytes == 0:
        return 0
    return -(-payload_bytes // params.flit_bytes)


def path_pipeline_cycles(topology: Topology, src: int, dst: int) -> int:
    """Head-flit pipeline latency along the minimal route src -> dst.

    Charges the source router once, then per hop the wire delay plus the
    downstream router's (port-dependent) pipeline depth.
    """
    params = topology.params
    route = topology.route(src, dst)
    if len(route) < 2:
        return 0
    cycles = params.router_stage_cycles(topology.router_ports(route[0]))
    for u, v in zip(route, route[1:]):
        cycles += params.link_delay_cycles(topology.adj[u][v].length_mm)
        cycles += params.router_stage_cycles(topology.router_ports(v))
    return cycles


def packet_latency_cycles(topology: Topology, src: int, dst: int) -> int:
    """Latency of one packet src -> dst (pipeline + packet serialisation).

    The average of this quantity over all packets of a workload is the
    classic NoC "average packet latency" -- the paper's Fig. 3 metric.
    """
    if src == dst:
        return 0
    return path_pipeline_cycles(topology, src, dst) + topology.params.flits_per_packet


def packets_for_bytes(payload_bytes: int, params: NoIParams) -> int:
    """Packets needed for a payload (ceil)."""
    if payload_bytes <= 0:
        return 0
    return -(-payload_bytes // params.packet_bytes)


def transfer_latency_cycles(
    topology: Topology, src: int, dst: int, payload_bytes: int
) -> int:
    """Latency of one point-to-point transfer (pipeline + serialisation)."""
    if src == dst or payload_bytes == 0:
        return 0
    flits = flits_for_bytes(payload_bytes, topology.params)
    return path_pipeline_cycles(topology, src, dst) + flits


def transfer_energy_pj(
    topology: Topology, src: int, dst: int, payload_bytes: int
) -> float:
    """Energy of one point-to-point transfer along the minimal route."""
    if src == dst or payload_bytes == 0:
        return 0.0
    params = topology.params
    flits = flits_for_bytes(payload_bytes, params)
    route = topology.route(src, dst)
    router_energy = sum(
        params.router_energy_pj_per_flit_port * topology.router_ports(node)
        for node in route
    )
    links = [topology.adj[u][v] for u, v in zip(route, route[1:])]
    link_energy = sum(
        params.link_energy_pj_per_flit_mm * link.length_mm for link in links
    )
    vertical_energy = sum(
        params.vertical_energy_pj_per_flit for link in links if link.vertical
    )
    return flits * (router_energy + link_energy + vertical_energy)


def multicast_tree(
    topology: Topology, src: int, dsts: Sequence[int]
) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """Multicast tree as (directed edges, nodes) for src -> dsts.

    The tree is the union of the deterministic minimal routes to each
    destination (a standard route-union approximation of the Steiner
    tree); the payload crosses each tree edge exactly once, which is the
    behaviour of NoC multicast / chain-tap forwarding.
    """
    edges = []
    seen = set()
    nodes = {src}
    for dst in dsts:
        if dst == src:
            continue
        route = topology.route(src, dst)
        for u, v in zip(route, route[1:]):
            nodes.add(v)
            if (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
    return tuple(edges), tuple(sorted(nodes))


def multicast_latency_cycles(
    topology: Topology, src: int, dsts: Sequence[int], payload_bytes: int
) -> int:
    """Latency for a multicast: deepest-path pipeline + serialisation."""
    real = [d for d in dsts if d != src]
    if not real or payload_bytes == 0:
        return 0
    flits = flits_for_bytes(payload_bytes, topology.params)
    pipeline = max(path_pipeline_cycles(topology, src, d) for d in real)
    return pipeline + flits


def multicast_energy_pj(
    topology: Topology, src: int, dsts: Sequence[int], payload_bytes: int
) -> float:
    """Energy for a multicast over its tree (each edge pays once)."""
    real = [d for d in dsts if d != src]
    if not real or payload_bytes == 0:
        return 0.0
    params = topology.params
    flits = flits_for_bytes(payload_bytes, params)
    edges, nodes = multicast_tree(topology, src, real)
    router_energy = sum(
        params.router_energy_pj_per_flit_port * topology.router_ports(n)
        for n in nodes
    )
    link_energy = 0.0
    for u, v in edges:
        link = topology.adj[u][v]
        link_energy += params.link_energy_pj_per_flit_mm * link.length_mm
        if link.vertical:
            link_energy += params.vertical_energy_pj_per_flit
    return flits * (router_energy + link_energy)


@dataclass(frozen=True)
class CommReport:
    """Aggregate communication cost of a set of transfers.

    Attributes:
        latency_cycles: Dataflow-aware latency: transfers grouped by
            destination chiplet proceed in parallel across groups, and the
            slowest group bounds each layer step (see
            :func:`communication_cost`).
        serial_latency_cycles: Sum of every transfer's latency (upper
            bound, single-injection-port pessimism).
        energy_pj: Total transfer energy.
        total_flits: Flits injected.
        weighted_hops: Traffic-weighted mean hop count.
        packet_count: Packets injected (per-destination for multicasts).
        packet_latency_sum: Sum over packets of their individual latency
            (pipeline + packet serialisation); divide by ``packet_count``
            for the average packet latency, the Fig. 3 metric.
        payload_volume: Sum of per-destination payload bytes -- the
            denominator of ``weighted_hops``.  Recombining reports as
            ``sum(weighted_hops * payload_volume) / sum(payload_volume)``
            reproduces the weighted mean over the union of transfers.
    """

    latency_cycles: int
    serial_latency_cycles: int
    energy_pj: float
    total_flits: int
    weighted_hops: float
    packet_count: int = 0
    packet_latency_sum: int = 0
    payload_volume: int = 0

    @property
    def mean_packet_latency(self) -> float:
        if self.packet_count == 0:
            return 0.0
        return self.packet_latency_sum / self.packet_count


def communication_cost(
    topology: Topology,
    transfers: Sequence[Tuple[int, int, int]],
) -> CommReport:
    """Cost of a transfer set ``[(src, dst, bytes), ...]``.

    Latency composition: transfers are grouped by destination; within a
    group the destination's ejection port serialises them (sum), across
    groups they overlap (max).  This mirrors layer-pipeline DNN traffic
    where every consumer chiplet concurrently drains its producers.
    """
    params = topology.params
    by_dst: Dict[int, int] = {}
    energy = 0.0
    flits_total = 0
    hop_weight = 0.0
    volume_total = 0
    serial = 0
    packet_count = 0
    packet_latency_sum = 0
    for src, dst, payload in transfers:
        if src == dst or payload <= 0:
            continue
        latency = transfer_latency_cycles(topology, src, dst, payload)
        serial += latency
        by_dst[dst] = by_dst.get(dst, 0) + latency
        energy += transfer_energy_pj(topology, src, dst, payload)
        flits_total += flits_for_bytes(payload, params)
        hops = topology.hops(src, dst)
        hop_weight += hops * payload
        volume_total += payload
        packets = packets_for_bytes(payload, params)
        packet_count += packets
        packet_latency_sum += packets * packet_latency_cycles(
            topology, src, dst
        )
    latency_cycles = max(by_dst.values(), default=0)
    return CommReport(
        latency_cycles=latency_cycles,
        serial_latency_cycles=serial,
        energy_pj=energy,
        total_flits=flits_total,
        weighted_hops=(hop_weight / volume_total) if volume_total else 0.0,
        packet_count=packet_count,
        packet_latency_sum=packet_latency_sum,
        payload_volume=volume_total,
    )


def _unicast_step_cost(
    topology: Topology,
    transfers: Sequence[Tuple[int, int, int]],
) -> CommReport:
    """Step cost when every destination is served by its own unicast."""
    params = topology.params
    link_load: Dict[Tuple[int, int], int] = {}
    pipeline_max = 0
    energy = 0.0
    flits_total = 0
    serial = 0
    hop_weight = 0.0
    volume_total = 0
    packet_count = 0
    packet_latency_sum = 0
    for src, dst, payload in transfers:
        if src == dst or payload <= 0:
            continue
        flits = flits_for_bytes(payload, params)
        flits_total += flits
        route = topology.route(src, dst)
        for u, v in zip(route, route[1:]):
            link_load[(u, v)] = link_load.get((u, v), 0) + flits
        pipeline = path_pipeline_cycles(topology, src, dst)
        pipeline_max = max(pipeline_max, pipeline)
        serial += pipeline + flits
        energy += transfer_energy_pj(topology, src, dst, payload)
        packets = packets_for_bytes(payload, params)
        packet_count += packets
        packet_latency_sum += packets * packet_latency_cycles(
            topology, src, dst
        )
        hops = topology.hops(src, dst)
        hop_weight += hops * payload
        volume_total += payload
    return CommReport(
        latency_cycles=(max(link_load.values(), default=0) + pipeline_max),
        serial_latency_cycles=serial,
        energy_pj=energy,
        total_flits=flits_total,
        weighted_hops=(hop_weight / volume_total) if volume_total else 0.0,
        packet_count=packet_count,
        packet_latency_sum=packet_latency_sum,
        payload_volume=volume_total,
    )


def multicast_step_cost(
    topology: Topology,
    groups: Sequence[Tuple[int, Sequence[int], int]],
) -> CommReport:
    """Cost of one dataflow step made of multicast groups.

    ``groups`` is ``[(src, dsts, payload_bytes), ...]`` -- typically all
    producer slices feeding one consumer layer.  The groups proceed in
    parallel but share links, so the step's latency is bandwidth-bound by
    the most loaded link plus the deepest pipeline:

        latency = max_link(sum of flits crossing it) + max_group(pipeline)

    Energy is the sum of per-tree multicast energies; ``weighted_hops``
    averages destination hop counts weighted by payload.

    Dataflow-awareness split: on a ``multicast_capable`` topology (the
    SFC/Floret chain, which forwards one payload copy per tree link) a
    group is one tree transfer; on conventional unicast NoIs
    (mesh/torus/small-world) the group degenerates to one unicast per
    destination -- full payload injected, routed and paid per
    destination.  This is the paper's core architectural distinction.
    """
    if not topology.multicast_capable:
        transfers = [
            (src, d, payload)
            for src, dsts, payload in groups
            for d in dsts
            if d != src and payload > 0
        ]
        return _unicast_step_cost(topology, transfers)
    params = topology.params
    link_load: Dict[Tuple[int, int], int] = {}
    pipeline_max = 0
    energy = 0.0
    flits_total = 0
    serial = 0
    hop_weight = 0.0
    volume_total = 0
    packet_count = 0
    packet_latency_sum = 0
    for src, dsts, payload in groups:
        real = [d for d in dsts if d != src]
        if not real or payload <= 0:
            continue
        flits = flits_for_bytes(payload, params)
        flits_total += flits
        edges, _nodes = multicast_tree(topology, src, real)
        for edge in edges:
            link_load[edge] = link_load.get(edge, 0) + flits
        pipeline = max(
            path_pipeline_cycles(topology, src, d) for d in real
        )
        pipeline_max = max(pipeline_max, pipeline)
        serial += pipeline + flits
        energy += multicast_energy_pj(topology, src, real, payload)
        # Packets are injected once per multicast; a packet's latency is
        # its delivery-complete time (slowest destination).
        packets = packets_for_bytes(payload, params)
        packet_count += packets
        packet_latency_sum += packets * max(
            packet_latency_cycles(topology, src, d) for d in real
        )
        for d in real:
            hops = topology.hops(src, d)
            hop_weight += hops * payload
            volume_total += payload
    return CommReport(
        latency_cycles=(max(link_load.values(), default=0) + pipeline_max),
        serial_latency_cycles=serial,
        energy_pj=energy,
        total_flits=flits_total,
        weighted_hops=(hop_weight / volume_total) if volume_total else 0.0,
        packet_count=packet_count,
        packet_latency_sum=packet_latency_sum,
        payload_volume=volume_total,
    )

"""All-pairs routing tables: the vectorized engine's data backbone.

The scalar models in :mod:`repro.net.analytic` walk one
:meth:`Topology.route` at a time in Python.  For whole traffic matrices
that is the hot path, so this module precomputes every minimal route of
a :class:`~repro.noi.topology.Topology` **once** into dense NumPy
matrices plus a CSR link-incidence structure:

* ``hops[s, d]``               -- minimal hop count (-1 if unreachable),
* ``pipeline_cycles[s, d]``    -- head-flit pipeline latency of the route,
* ``route_router_energy[s, d]`` / ``route_link_energy[s, d]``
                               -- per-flit energy sums along the route,
* ``route_indptr`` / ``route_links``
                               -- directed link ids of each route, in
                                  route order (CSR over ``s * n + d``).

The routes come from the *same* deterministic tie-broken Dijkstra trees
the scalar model's :meth:`Topology.route` uses (networkx, weight
``1 + 1e-6 * length_mm``), walked as arrays over one predecessor
matrix, so the scalar oracle and the vectorized engine are
route-for-route identical (see ``tests/test_routing.py`` and
``tests/test_vectorized.py``); once a topology has tables,
:meth:`Topology.route` reads its routes from them.

A topology's params views (:meth:`Topology.with_params`) share its
table object when they agree on the :data:`COST_PARAM_FIELDS` of
:class:`~repro.params.NoIParams`, so one build per structure per
process serves every sweep case that changes only other fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import networkx as nx
import numpy as np

from ..obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..noi.topology import Topology
    from ..params import NoIParams

#: The :class:`~repro.params.NoIParams` fields :class:`RoutingTables`
#: read (besides the graph).  Parameter sets that agree on them get
#: array-equal tables on the same structure.
COST_PARAM_FIELDS = (
    "router_pipeline_cycles",
    "router_extra_stage_ports",
    "mm_per_cycle",
    "router_energy_pj_per_flit_port",
    "link_energy_pj_per_flit_mm",
    "vertical_energy_pj_per_flit",
)


def cost_key(params: "NoIParams") -> tuple:
    """``params``' values of :data:`COST_PARAM_FIELDS`."""
    return tuple(getattr(params, name) for name in COST_PARAM_FIELDS)


@dataclass(frozen=True)
class RoutingTables:
    """Immutable all-pairs route tables for one topology.

    Attributes:
        num_nodes: Chiplet count ``n``.
        ports: ``(n,)`` router network-port counts.
        stage_cycles: ``(n,)`` per-router pipeline depth in cycles.
        router_energy_pj_per_flit: ``(n,)`` per-flit router traversal
            energy (port-count scaled).
        link_u, link_v: ``(L,)`` endpoints of each *directed* link.
        link_wire_cycles: ``(L,)`` wire delay of each directed link.
        link_length_mm: ``(L,)`` physical length of each directed link.
        link_vertical: ``(L,)`` True for inter-tier (MIV/TSV) links.
        link_energy_pj_per_flit: ``(L,)`` per-flit link energy (wire
            plus vertical-hop energy where applicable).
        link_index: ``{(u, v): directed link id}``.
        hops: ``(n, n)`` minimal hop counts; -1 where unreachable.
        pipeline_cycles: ``(n, n)`` head-flit pipeline latency.
        route_length_mm: ``(n, n)`` wire length along the chosen route.
        route_router_energy_pj_per_flit: ``(n, n)`` sum of router
            energies over the route's nodes.
        route_link_energy_pj_per_flit: ``(n, n)`` sum of link energies
            over the route's links.
        route_indptr: ``(n * n + 1,)`` CSR offsets into ``route_links``
            for pair id ``s * n + d``.
        route_links: Concatenated directed link ids of every route, in
            route order.
    """

    num_nodes: int
    ports: np.ndarray
    stage_cycles: np.ndarray
    router_energy_pj_per_flit: np.ndarray
    link_u: np.ndarray
    link_v: np.ndarray
    link_wire_cycles: np.ndarray
    link_length_mm: np.ndarray
    link_vertical: np.ndarray
    link_energy_pj_per_flit: np.ndarray
    link_index: Dict[Tuple[int, int], int]
    hops: np.ndarray
    pipeline_cycles: np.ndarray
    route_length_mm: np.ndarray
    route_router_energy_pj_per_flit: np.ndarray
    route_link_energy_pj_per_flit: np.ndarray
    route_indptr: np.ndarray
    route_links: np.ndarray

    @property
    def num_directed_links(self) -> int:
        return int(self.link_u.shape[0])

    def pair_index(self, src: int, dst: int) -> int:
        return src * self.num_nodes + dst

    def route_link_ids(self, src: int, dst: int) -> np.ndarray:
        """Directed link ids along the route ``src -> dst``, in order."""
        p = self.pair_index(src, dst)
        return self.route_links[self.route_indptr[p]:self.route_indptr[p + 1]]

    def route_nodes(self, src: int, dst: int) -> Tuple[int, ...]:
        """Reconstruct the route node sequence from the link table."""
        links = self.route_link_ids(src, dst)
        if links.size == 0:
            return (src,)
        return (int(self.link_u[links[0]]),) + tuple(
            int(v) for v in self.link_v[links]
        )

    def energy_pj_per_flit(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per-flit transfer energy (router + link) for pair arrays."""
        return (
            self.route_router_energy_pj_per_flit[src, dst]
            + self.route_link_energy_pj_per_flit[src, dst]
        )

    def check_reachable(self, src: np.ndarray, dst: np.ndarray,
                        name: str = "topology") -> None:
        """Raise :class:`networkx.NetworkXNoPath` on unreachable pairs."""
        bad = self.hops[src, dst] < 0
        if np.any(bad):
            i = int(np.argmax(bad))
            raise nx.NetworkXNoPath(
                f"{name}: no path {int(np.asarray(src).reshape(-1)[i])}"
                f"->{int(np.asarray(dst).reshape(-1)[i])}"
            )

    def queue_index(self) -> "LinkQueueIndex":
        """Per-link FIFO queue index, built once and cached on the tables.

        The epoch-synchronous simulator engine
        (:mod:`repro.net.simulator`) resolves per-link FIFO queues as
        array operations; this index carries the per-link forward
        delays (``hop_delta``) whose minimum bounds the engine's safe
        epoch horizon, alongside the link-major transpose of the route
        CSR for link-level contention introspection.
        """
        cached = getattr(self, "_queue_index_cache", None)
        if cached is None:
            cached = build_link_queue_index(self)
            object.__setattr__(self, "_queue_index_cache", cached)
        return cached


@dataclass(frozen=True)
class LinkQueueIndex:
    """Link-major (transposed) view of the route CSR, for FIFO queues.

    ``route_indptr``/``route_links`` answer "which links does route
    ``(s, d)`` cross, in order?".  This index adds the transpose --
    "which route entries cross link ``e``?" -- for link-level
    introspection (static contention census, queue-depth analysis)
    plus the per-link timing bounds (``hop_delta``/``min_hop_delta``)
    the epoch-synchronous simulator engine uses to size its lockstep
    windows.

    Attributes:
        link_indptr: ``(L + 1,)`` CSR offsets into the entry arrays for
            directed link ``e``.
        entry_pair: Pair id ``s * n + d`` of each route entry crossing
            the link, grouped by link in route-entry order.
        entry_hop: Hop position of the entry within its route.
        route_use_count: ``(L,)`` number of minimal routes crossing each
            directed link (``np.diff(link_indptr)``) -- the static
            contention potential of the link.
        hop_delta: ``(L,)`` wire delay plus the downstream router's
            pipeline depth of each directed link: the fixed forwarding
            latency a packet pays after its serialisation finishes.
        min_hop_delta: ``hop_delta.min()``.  A packet granted a link at
            cycle ``t`` cannot request its next link before
            ``t + flits + min_hop_delta`` with ``flits >= 1``, which is
            the lookahead bound that makes epoch-synchronous FIFO
            resolution exact.
    """

    link_indptr: np.ndarray
    entry_pair: np.ndarray
    entry_hop: np.ndarray
    route_use_count: np.ndarray
    hop_delta: np.ndarray
    min_hop_delta: int

    @property
    def num_directed_links(self) -> int:
        return int(self.link_indptr.shape[0] - 1)

    def entries_for_link(self, link: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(pair ids, hop positions)`` of route entries crossing ``link``."""
        lo, hi = self.link_indptr[link], self.link_indptr[link + 1]
        return self.entry_pair[lo:hi], self.entry_hop[lo:hi]

    def buffer_capacity_flits(self, flow_control) -> "np.ndarray | None":
        """Per-link downstream input-buffer capacity under ``flow_control``.

        The buffer-capacity metadata of the queue index: ``(L,)`` int64
        flits per directed link, or ``None`` for infinite buffers (open
        loop).  Capacities are uniform today --
        :class:`~repro.net.flowcontrol.FlowControlParams.buffer_flits`
        broadcast over the links -- but both flow-control engines
        consume this array, so per-link heterogeneous buffers (deeper
        vertical-link FIFOs, say) only need a change here.
        """
        if flow_control is None or flow_control.buffer_flits is None:
            return None
        return np.full(
            self.num_directed_links,
            int(flow_control.buffer_flits),
            dtype=np.int64,
        )


def build_link_queue_index(tables: RoutingTables) -> LinkQueueIndex:
    """Build the link-major :class:`LinkQueueIndex` for ``tables``."""
    links = tables.route_links
    num_links = tables.num_directed_links
    counts = np.diff(tables.route_indptr)
    pair_of_entry = np.repeat(
        np.arange(counts.shape[0], dtype=np.int64), counts
    )
    hop_of_entry = (
        np.arange(links.shape[0], dtype=np.int64)
        - tables.route_indptr[pair_of_entry]
    )
    # numpy's stable sort is a radix sort on 16-bit keys, several
    # times faster than its merge sort on int64.
    keys = links.astype(np.uint16) if num_links <= 1 << 16 else links
    order = np.argsort(keys, kind="stable")
    use_count = np.bincount(links, minlength=num_links)
    link_indptr = np.zeros(num_links + 1, dtype=np.int64)
    np.cumsum(use_count, out=link_indptr[1:])
    hop_delta = (
        tables.link_wire_cycles + tables.stage_cycles[tables.link_v]
    ).astype(np.int64)
    index = LinkQueueIndex(
        link_indptr=link_indptr,
        entry_pair=pair_of_entry[order],
        entry_hop=hop_of_entry[order],
        route_use_count=use_count,
        hop_delta=hop_delta,
        min_hop_delta=int(hop_delta.min()) if num_links else 0,
    )
    for arr in (index.link_indptr, index.entry_pair, index.entry_hop,
                index.route_use_count, index.hop_delta):
        arr.setflags(write=False)
    return index


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges ``[starts[i], starts[i] + counts[i])``.

    The standard vectorized gather used to pull many CSR slices at once
    (route links for a whole batch of transfers) without a Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    keep = counts > 0
    starts, counts = starts[keep], counts[keep]
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(counts.sum())
    step = np.ones(total, dtype=np.int64)
    step[0] = starts[0]
    offsets = np.cumsum(counts)[:-1]
    step[offsets] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(step)


def build_routing_tables(topology: "Topology") -> RoutingTables:
    """Build :class:`RoutingTables` for ``topology``.

    Routes come from per-source networkx Dijkstra trees with the same
    ``1 + 1e-6 * length_mm`` tie-break weight as
    :meth:`Topology.route`; the route CSR is extracted by walking all
    pairs back to their sources at once over the predecessor matrix.
    Counted in the ``routing_tables_built`` metric.
    """
    REGISTRY.counter("routing_tables_built").inc()
    params = topology.params
    graph = topology.graph
    n = topology.num_chiplets

    ports = np.array([graph.degree[i] for i in range(n)], dtype=np.int64)
    stage_cycles = np.array(
        [params.router_stage_cycles(int(p)) for p in ports], dtype=np.int64
    )
    router_energy = params.router_energy_pj_per_flit_port * ports.astype(
        np.float64
    )

    link_index: Dict[Tuple[int, int], int] = {}
    link_u, link_v = [], []
    wire_cycles, length_mm, vertical = [], [], []
    for u, v, data in graph.edges(data=True):
        for a, b in ((u, v), (v, u)):
            link_index[(a, b)] = len(link_u)
            link_u.append(a)
            link_v.append(b)
            wire_cycles.append(params.link_delay_cycles(data["length_mm"]))
            length_mm.append(data["length_mm"])
            vertical.append(bool(data.get("vertical", False)))
    link_u_arr = np.array(link_u, dtype=np.int64)
    link_v_arr = np.array(link_v, dtype=np.int64)
    wire_arr = np.array(wire_cycles, dtype=np.int64)
    length_arr = np.array(length_mm, dtype=np.float64)
    vertical_arr = np.array(vertical, dtype=bool)
    link_energy = (
        params.link_energy_pj_per_flit_mm * length_arr
        + params.vertical_energy_pj_per_flit * vertical_arr
    )

    hops, route_indptr, route_links = _route_csr(
        graph, n, link_u_arr, link_v_arr
    )

    # Per-route sums via segment reduction over the CSR structure.
    pair_of_entry = np.repeat(
        np.arange(n * n, dtype=np.int64), np.diff(route_indptr)
    )

    def route_sum(per_link_values: np.ndarray) -> np.ndarray:
        return np.bincount(
            pair_of_entry,
            weights=per_link_values[route_links],
            minlength=n * n,
        ).reshape(n, n)

    reachable = hops > 0
    wire_sum = route_sum(wire_arr.astype(np.float64))
    dst_stage_sum = route_sum(stage_cycles[link_v_arr].astype(np.float64))
    pipeline = np.where(
        reachable,
        stage_cycles[:, None] + np.rint(wire_sum + dst_stage_sum).astype(
            np.int64
        ),
        0,
    )
    route_router = np.where(
        reachable,
        router_energy[:, None] + route_sum(router_energy[link_v_arr]),
        0.0,
    )
    route_link_e = np.where(reachable, route_sum(link_energy), 0.0)
    route_len = np.where(reachable, route_sum(length_arr), 0.0)

    tables = RoutingTables(
        num_nodes=n,
        ports=ports,
        stage_cycles=stage_cycles,
        router_energy_pj_per_flit=router_energy,
        link_u=link_u_arr,
        link_v=link_v_arr,
        link_wire_cycles=wire_arr,
        link_length_mm=length_arr,
        link_vertical=vertical_arr,
        link_energy_pj_per_flit=link_energy,
        link_index=link_index,
        hops=hops,
        pipeline_cycles=pipeline,
        route_length_mm=route_len,
        route_router_energy_pj_per_flit=route_router,
        route_link_energy_pj_per_flit=route_link_e,
        route_indptr=route_indptr,
        route_links=route_links,
    )
    for value in vars(tables).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return tables


def _route_csr(
    graph: nx.Graph, n: int, link_u: np.ndarray, link_v: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hops, route_indptr, route_links)`` of every ordered pair.

    ``parent[s, d]`` is ``d``'s predecessor in the Dijkstra tree of
    ``s`` (-1 for ``d == s`` and unreachable ``d``).  Every reachable
    pair then steps from its destination back towards its source in
    lockstep; step ``j`` yields the route's ``j``-th link from the end.
    """
    def weight(u: int, v: int, data) -> float:
        return 1.0 + 1e-6 * data["length_mm"]

    parent = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        _dist, paths = nx.single_source_dijkstra(graph, s, weight=weight)
        del paths[s]
        parent[s, np.fromiter(paths, np.int64, len(paths))] = np.fromiter(
            (path[-2] for path in paths.values()), np.int64, len(paths)
        )

    link_id = np.full((n, n), -1, dtype=np.int64)
    link_id[link_u, link_v] = np.arange(link_u.shape[0], dtype=np.int64)
    pair = np.flatnonzero(parent.reshape(-1) >= 0)
    node = pair % n
    steps = []
    while pair.size:
        src = pair // n
        prev = parent[src, node]
        steps.append((pair, link_id[prev, node]))
        more = prev != src
        pair, node = pair[more], prev[more]

    counts = np.zeros(n * n, dtype=np.int64)
    for pairs, _links in steps:
        counts[pairs] += 1
    route_indptr = np.zeros(n * n + 1, dtype=np.int64)
    np.cumsum(counts, out=route_indptr[1:])
    route_links = np.empty(int(route_indptr[-1]), dtype=np.int64)
    route_end = route_indptr[1:]
    for j, (pairs, links) in enumerate(steps):
        route_links[route_end[pairs] - 1 - j] = links

    hops = np.where(parent >= 0, counts.reshape(n, n), -1)
    np.fill_diagonal(hops, 0)
    return hops, route_indptr, route_links

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

The routes are per-source Dijkstra trees under the weight
``1 + 1e-6 * length_mm`` (fewest hops, then the shortest wires), and
exact ties go to the neighbour first in :attr:`Topology.adj` order.
:func:`_dijkstra_levels` builds them for all sources at once, one hop
level at a time; networkx's Dijkstra over the same links in order is
its test oracle (``tests/test_routing.py::TestDijkstraReplay``, and
``test_benchmark_scale_matches_networkx`` at 256 nodes).
The route CSR and the per-route sums are then filled level by level,
each route extending its predecessor's by one link.  Every route query
of a :class:`Topology` reads these tables, so the scalar models of
:mod:`repro.net.analytic` and the vectorized engine are route-for-route
identical (``tests/test_routing.py::TestRouteOracle``,
``tests/test_vectorized.py``).

A topology's params views (:meth:`Topology.with_params`) share its
table object when they agree on the :data:`COST_PARAM_FIELDS` of
:class:`~repro.params.NoIParams`, so one build per structure per
process serves every sweep case that changes only other fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

from ..noi.topology import NoPathError
from ..obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..noi.topology import Link, Topology
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
        """Raise :class:`~repro.noi.NoPathError` on unreachable pairs."""
        bad = self.hops[src, dst] < 0
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NoPathError(
                f"{name}: no path {int(np.asarray(src).reshape(-1)[i])}"
                f"->{int(np.asarray(dst).reshape(-1)[i])}"
            )

    def queue_index(self) -> "LinkQueueIndex":
        """Per-link forwarding constants, built once and cached on the tables.

        The simulator engines (:mod:`repro.net.flowcontrol`,
        :mod:`repro.net.simulator`) and the journey attribution
        (:mod:`repro.net.journey`) read the per-link forward delays
        (``hop_delta``), their minimum, which bounds the epoch engine's
        safe horizon, and the per-link buffer capacities.
        """
        cached = getattr(self, "_queue_index_cache", None)
        if cached is None:
            cached = build_link_queue_index(self)
            object.__setattr__(self, "_queue_index_cache", cached)
        return cached


@dataclass(frozen=True)
class LinkQueueIndex:
    """Per-directed-link constants of the FIFO queues the engines resolve.

    Every array is ``(L,)`` over the directed links of the tables; no
    field is sized by the route entries.  Per-link route counts are
    ``np.bincount(tables.route_links, minlength=L)``.

    Attributes:
        hop_delta: ``(L,)`` read-only int64 wire delay plus the
            downstream router's pipeline depth of each directed link:
            the fixed forwarding latency a packet pays after its
            serialisation finishes.
        min_hop_delta: ``hop_delta.min()``.  A packet granted a link at
            cycle ``t`` cannot request its next link before
            ``t + flits + min_hop_delta`` with ``flits >= 1``, which is
            the lookahead bound that makes epoch-synchronous FIFO
            resolution exact.
    """

    hop_delta: np.ndarray
    min_hop_delta: int

    @property
    def num_directed_links(self) -> int:
        return int(self.hop_delta.shape[0])

    def buffer_capacity_flits(self, flow_control) -> "np.ndarray | None":
        """Per-link downstream input-buffer capacity under ``flow_control``.

        ``(L,)`` int64 flits per directed link, or ``None`` for infinite
        buffers (open loop).  Capacities are uniform today --
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
    """Build the per-link :class:`LinkQueueIndex` for ``tables``."""
    hop_delta = (
        tables.link_wire_cycles + tables.stage_cycles[tables.link_v]
    ).astype(np.int64)
    hop_delta.setflags(write=False)
    return LinkQueueIndex(
        hop_delta=hop_delta,
        min_hop_delta=int(hop_delta.min()) if hop_delta.size else 0,
    )


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

    Routes are per-source Dijkstra trees under the ``1 + 1e-6 *
    length_mm`` weight, built as arrays by :func:`_dijkstra_levels`;
    equal-cost ties go to the predecessor first in :attr:`Topology.adj`
    order.  Raises :class:`ValueError` when
    link lengths are long enough that a minimum-weight route could
    take an extra hop.
    Counted in the ``routing_tables_built`` metric.
    """
    REGISTRY.counter("routing_tables_built").inc()
    params = topology.params
    adj = topology.adj
    n = len(adj)

    ports = np.array([len(a) for a in adj], dtype=np.int64)
    stage_cycles = np.array(
        [params.router_stage_cycles(int(p)) for p in ports], dtype=np.int64
    )
    router_energy = params.router_energy_pj_per_flit_port * ports.astype(
        np.float64
    )

    link_index: Dict[Tuple[int, int], int] = {}
    link_u, link_v = [], []
    wire_cycles, length_mm, vertical = [], [], []
    # Link k, its two directions 2k and 2k + 1: u ascending, then adj[u].
    for u, v, link in [(u, v, link) for u in range(n)
                       for v, link in adj[u].items() if v > u]:
        for a, b in ((u, v), (v, u)):
            link_index[(a, b)] = len(link_u)
            link_u.append(a)
            link_v.append(b)
            wire_cycles.append(params.link_delay_cycles(link.length_mm))
            length_mm.append(link.length_mm)
            vertical.append(link.vertical)
    link_u_arr = np.array(link_u, dtype=np.int64)
    link_v_arr = np.array(link_v, dtype=np.int64)
    wire_arr = np.array(wire_cycles, dtype=np.int64)
    length_arr = np.array(length_mm, dtype=np.float64)
    vertical_arr = np.array(vertical, dtype=bool)
    link_energy = (
        params.link_energy_pj_per_flit_mm * length_arr
        + params.vertical_energy_pj_per_flit * vertical_arr
    )

    # Per-route sums, one column per per-link value.
    hops, route_indptr, route_links, sums = _route_csr(
        adj, link_u_arr, link_v_arr,
        np.column_stack((
            wire_arr.astype(np.float64),
            stage_cycles[link_v_arr].astype(np.float64),
            router_energy[link_v_arr],
            link_energy,
            length_arr,
        )),
    )
    wire_sum, dst_stage_sum, router_sum, link_e_sum, len_sum = (
        sums.T.reshape(-1, n, n)
    )
    reachable = hops > 0
    pipeline = np.where(
        reachable,
        stage_cycles[:, None] + np.rint(wire_sum + dst_stage_sum).astype(
            np.int64
        ),
        0,
    )
    route_router = np.where(
        reachable, router_energy[:, None] + router_sum, 0.0
    )
    route_link_e = np.where(reachable, link_e_sum, 0.0)
    route_len = np.where(reachable, len_sum, 0.0)

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
    adj: Sequence[Mapping[int, Link]], link_u: np.ndarray,
    link_v: np.ndarray, link_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(hops, route_indptr, route_links, sums)`` of every ordered pair.

    Collects the hop levels of :func:`_dijkstra_levels`, whose hop
    counts fix the CSR offsets, then fills them in order: a pair at hop
    ``h`` extends its predecessor's route by one link, so level ``h``'s
    routes are level ``h - 1``'s rows plus a column.  ``sums[s * n + d]`` adds ``link_values``
    (``(L, k)``) over the route the same way, first link first -- the
    float order of a left-to-right ``np.bincount`` over the CSR.
    """
    n = len(adj)
    link_id = np.full((n, n), -1, dtype=np.int64)
    link_id[link_u, link_v] = np.arange(link_u.shape[0], dtype=np.int64)
    levels = list(_dijkstra_levels(adj))
    hops = np.full(n * n, -1, dtype=np.int64)
    hops[::n + 1] = 0
    for h, (pair, _prev, _row) in enumerate(levels, 1):
        hops[pair] = h
    route_indptr = np.zeros(n * n + 1, dtype=np.int64)
    np.cumsum(np.maximum(hops, 0), out=route_indptr[1:])
    route_links = np.empty(int(route_indptr[-1]), dtype=np.int64)
    sums = np.zeros((n * n, link_values.shape[1]))

    routes = np.empty((n, 0), dtype=np.int64)
    acc = np.zeros((n, link_values.shape[1]))
    for h, (pair, prev, row) in enumerate(levels, 1):
        link = link_id[prev, pair % n]
        routes = np.column_stack((routes[row], link))
        acc = acc[row] + link_values[link]
        route_links[route_indptr[pair][:, None] + np.arange(h)] = routes
        sums[pair] = acc
    return hops.reshape(n, n), route_indptr, route_links, sums


def _dijkstra_levels(
    adj: Sequence[Mapping[int, Link]],
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-source Dijkstra trees over ``adj``, one hop level at a time.

    Runs Dijkstra under the weight ``1 + 1e-6 * length_mm`` from every
    node of ``adj`` (:attr:`Topology.adj`) at once and yields, for hop
    ``h = 1, 2, ...``, ``(pair, prev, row)``: the pairs ``s * n + d``
    at hop ``h`` in pop order within each source, each ``d``'s
    predecessor, and the predecessor pair's index in the previous level
    (level 0 is the sources).  The order is a heap Dijkstra's (networkx's,
    the test oracle): it pops ``(distance, push counter)``, pushes
    neighbours in ``adj`` order, and keeps for each node the first popped
    neighbour that reaches its final distance.  Three facts make that
    order replayable as arrays:

    * Minimum-weight routes are minimum-hop routes while the
      ``1e-6 * length_mm`` excess summed over any route stays below one
      hop (checked here), so every node at hop ``h`` is popped before
      any node at hop ``h + 1``.
    * A node's candidate distance is ``dist[s, v] + w(v, u)`` over its
      hop-``h`` neighbours ``v`` -- the float addition a heap Dijkstra
      does.
      The predecessor is the minimum; among exact float ties, the tied
      ``v`` popped first.
    * A node's final heap entry is pushed while its predecessor is
      expanded, walking neighbours in ``adj`` order, so within a
      source the new level pops in ``(distance, predecessor's pop rank,
      adjacency position)`` order.

    The frontier is kept in ``(source, pop rank)`` order and expanded in
    adjacency order, so candidate positions already encode the last two
    keys and every tie is settled by a stable sort.
    ``tests/test_routing.py::TestDijkstraReplay`` fuzzes this against
    networkx.
    """
    n = len(adj)
    degree = np.fromiter((len(adj[v]) for v in range(n)), np.int64, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    num_edges = int(indptr[-1])
    head = np.fromiter(
        (u for v in range(n) for u in adj[v]), np.int64, num_edges
    )
    weight = 1.0 + 1e-6 * np.fromiter(
        (link.length_mm for v in range(n) for link in adj[v].values()),
        np.float64, num_edges,
    )
    # A simple route crosses each undirected link at most once, so its
    # excess is at most half this sum; the other half is float headroom.
    if not np.sum(weight - 1.0) < 1.0:
        raise ValueError(
            "link lengths too long for minimum-hop routing: "
            "1e-6 * total length_mm must stay below half a hop"
        )

    seen = np.zeros(n * n, dtype=bool)
    src = node = np.arange(n, dtype=np.int64)
    dist = np.zeros(n)
    seen[src * (n + 1)] = True
    while src.size:
        deg = degree[node]
        edge = concat_ranges(indptr[node], deg)
        row = np.repeat(np.arange(src.shape[0], dtype=np.int64), deg)
        pair = src[row] * n + head[edge]
        new = ~seen[pair]
        edge, row, pair = edge[new], row[new], pair[new]
        cand_dist = dist[row] + weight[edge]
        # Per pair, the lowest distance, then the first-popped neighbour.
        order = np.lexsort((cand_dist, pair))
        ordered = pair[order]
        first = np.ones(ordered.shape[0], dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        best = np.sort(order[first])
        best = best[np.lexsort((cand_dist[best], src[row[best]]))]
        row, pair, dist = row[best], pair[best], cand_dist[best]
        prev = node[row]
        src = src[row]
        node = pair - src * n
        seen[pair] = True
        yield pair, prev, row

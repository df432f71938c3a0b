"""Topology substrate: chiplet placements plus an interconnect graph.

A :class:`Topology` is the common currency of the repo: every NoI
architecture (mesh/SIAM, torus/Kite, small-world/SWAP, SFC/Floret) builds
one, and every downstream model (latency, energy, area, cost, mapping)
consumes one.  Nodes are chiplet sites on a 2D grid (3D adds a tier
coordinate); edges carry their physical length so the performance and
area models can distinguish single-hop from long links -- the distinction
the paper's Fig. 2(b) discussion hinges on.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from ..params import NoIParams


@dataclass(frozen=True)
class Chiplet:
    """A chiplet (or PE) site.

    Attributes:
        index: Dense integer id, 0..n-1.
        x, y: Grid coordinates (grid units, multiply by pitch for mm).
        z: Tier for 3D stacks (0 = bottom, farthest from the heat sink
            when the sink is on top).
    """

    index: int
    x: int
    y: int
    z: int = 0

    def manhattan_to(self, other: "Chiplet") -> int:
        """Grid Manhattan distance (including tier difference)."""
        return (
            abs(self.x - other.x)
            + abs(self.y - other.y)
            + abs(self.z - other.z)
        )


@dataclass(frozen=True)
class Link:
    """An undirected interconnect link between two chiplet sites.

    Attributes:
        u, v: Endpoint chiplet indices.
        length_mm: Physical wire length.
        vertical: True for inter-tier (MIV/TSV) links in 3D stacks.
    """

    u: int
    v: int
    length_mm: float
    vertical: bool = False

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-link at chiplet {self.u}")
        if self.length_mm < 0:
            raise ValueError(f"link ({self.u},{self.v}): negative length")


class Topology:
    """An immutable interconnect topology over a set of chiplet sites.

    Args:
        name: Architecture name (``"floret"``, ``"siam"``, ...).
        chiplets: Chiplet sites; indices must be dense 0..n-1.
        links: Undirected links (duplicates rejected).
        params: Hardware constants used for delay/area derivations.

    The routing used by hop/latency queries is minimal-hop shortest path
    (ties broken by physical length), computed lazily and cached.
    :meth:`with_params` gives the same structure under other hardware
    constants as a cheap view that shares the graph and the routes.
    """

    def __init__(
        self,
        name: str,
        chiplets: Sequence[Chiplet],
        links: Iterable[Link],
        params: Optional[NoIParams] = None,
        multicast_capable: bool = False,
    ) -> None:
        self.name = name
        self.params = params or NoIParams()
        #: Whether the NoI forwards one payload copy per tree link
        #: (dataflow-aware relay, the SFC feature) instead of replicating
        #: broadcast traffic as per-destination unicasts (conventional
        #: mesh/torus/small-world routers).
        self.multicast_capable = multicast_capable
        self.chiplets: Tuple[Chiplet, ...] = tuple(chiplets)
        indices = [c.index for c in self.chiplets]
        if indices != list(range(len(indices))):
            raise ValueError(f"{name}: chiplet indices must be dense 0..n-1")
        positions = Counter((c.x, c.y, c.z) for c in self.chiplets)
        clash = [pos for pos, cnt in positions.items() if cnt > 1]
        if clash:
            raise ValueError(f"{name}: multiple chiplets at {clash[:3]}")

        self.graph = nx.Graph()
        for c in self.chiplets:
            self.graph.add_node(c.index, chiplet=c)
        self.links: Tuple[Link, ...] = tuple(links)
        seen = set()
        for link in self.links:
            if not (0 <= link.u < len(self.chiplets)
                    and 0 <= link.v < len(self.chiplets)):
                raise ValueError(f"{name}: link {link} references unknown chiplet")
            key = (min(link.u, link.v), max(link.u, link.v))
            if key in seen:
                raise ValueError(f"{name}: duplicate link {key}")
            seen.add(key)
            self.graph.add_edge(
                link.u, link.v, length_mm=link.length_mm, vertical=link.vertical
            )
        # Route caches depend on the graph only, so params views
        # (:meth:`with_params`) share these dicts with their base.
        self._hops_cache: Dict[int, Dict[int, int]] = {}
        self._path_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: Lazily built all-pairs NumPy route tables (see
        #: :mod:`repro.net.routing`); one build serves every vectorized
        #: consumer because topologies are immutable after construction.
        self._routing_tables = None
        #: The topology a :meth:`with_params` view was taken of.
        self._base: Optional["Topology"] = None

    def with_params(self, params: NoIParams) -> "Topology":
        """This structure under ``params``, as a view.

        The view shares the graph, chiplets, links and route caches.
        Its routing tables are the base's very object when ``params``
        agrees with the base's on
        :data:`repro.net.routing.COST_PARAM_FIELDS`; otherwise the view
        builds its own on demand and holds them alone, so they are freed
        with it.  Returns ``self`` for equal params.

        Raises:
            ValueError: If ``params`` changes ``chiplet_pitch_mm``,
                which sets link lengths at build time.
        """
        if params == self.params:
            return self
        if params.chiplet_pitch_mm != self.params.chiplet_pitch_mm:
            raise ValueError(
                f"{self.name}: chiplet_pitch_mm sets link lengths; build "
                f"a new topology for pitch {params.chiplet_pitch_mm}"
            )
        view = copy.copy(self)
        view.params = params
        view._routing_tables = None
        view._base = self._base or self
        return view

    # ------------------------------------------------------------------
    # basic shape

    @property
    def num_chiplets(self) -> int:
        return len(self.chiplets)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def chiplet(self, index: int) -> Chiplet:
        return self.chiplets[index]

    def is_connected(self) -> bool:
        """Whether every chiplet can reach every other chiplet."""
        return nx.is_connected(self.graph)

    # ------------------------------------------------------------------
    # router structure (paper Fig. 2a)

    def router_ports(self, index: int) -> int:
        """Network ports of the router at ``index`` (= graph degree).

        Matches the paper's convention: Floret's intra-petal routers count
        as 2-port routers, so the local chiplet-injection port is not
        included in the count.
        """
        return int(self.graph.degree[index])

    def port_histogram(self) -> Dict[int, int]:
        """Router-port-count histogram: {ports: number of routers}."""
        counts = Counter(self.router_ports(c.index) for c in self.chiplets)
        return dict(sorted(counts.items()))

    def mean_ports(self) -> float:
        """Average router port count."""
        return 2.0 * self.num_links / max(1, self.num_chiplets)

    # ------------------------------------------------------------------
    # link structure (paper Fig. 2b)

    def link_length_histogram(self) -> Dict[int, int]:
        """Histogram of link lengths in *hop units* (pitch multiples)."""
        pitch = self.params.chiplet_pitch_mm
        counts = Counter(
            max(1, round(link.length_mm / pitch)) if link.length_mm > 0 else 0
            for link in self.links
        )
        return dict(sorted(counts.items()))

    def total_link_length_mm(self) -> float:
        return sum(link.length_mm for link in self.links)

    # ------------------------------------------------------------------
    # routing queries

    def routing_tables(self):
        """All-pairs NumPy route tables, built once and memoized.

        Returns:
            repro.net.routing.RoutingTables: Dense hop/pipeline/energy
            matrices plus the CSR link incidence of every minimal route.
            A :meth:`with_params` view returns its base's tables when
            their cost fields agree, so the build runs once per
            structure.
        """
        if self._routing_tables is None:
            from ..net.routing import build_routing_tables, cost_key

            base = self._base
            if base is not None and cost_key(base.params) == cost_key(
                self.params
            ):
                self._routing_tables = base.routing_tables()
            else:
                self._routing_tables = build_routing_tables(self)
        return self._routing_tables

    def _tables_if_built(self):
        """Routing tables of this graph built so far (own or base's)."""
        if self._routing_tables is None and self._base is not None:
            return self._base._routing_tables
        return self._routing_tables

    def hops(self, src: int, dst: int) -> int:
        """Minimal router-to-router hop count between two chiplets.

        Raises:
            nx.NetworkXNoPath: If the chiplets are disconnected.
        """
        if src == dst:
            return 0
        tables = self._tables_if_built()
        if tables is not None:
            hop = int(tables.hops[src, dst])
            if hop < 0:
                raise nx.NetworkXNoPath(f"{self.name}: no path {src}->{dst}")
            return hop
        cached = self._hops_cache.get(src)
        if cached is None:
            cached = nx.single_source_shortest_path_length(self.graph, src)
            self._hops_cache[src] = cached
        try:
            return cached[dst]
        except KeyError:
            raise nx.NetworkXNoPath(
                f"{self.name}: no path {src}->{dst}"
            ) from None

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """A minimal-hop route as a node sequence (src..dst inclusive).

        Among minimal-hop routes, the physically shortest one is chosen,
        deterministically.  Read from the routing tables when they
        exist; otherwise networkx Dijkstra, the oracle the tables are
        built to match.

        Raises:
            nx.NetworkXNoPath: If the chiplets are disconnected.
        """
        if src == dst:
            return (src,)
        tables = self._tables_if_built()
        if tables is not None:
            if tables.hops[src, dst] < 0:
                raise nx.NetworkXNoPath(f"{self.name}: no path {src}->{dst}")
            return tables.route_nodes(src, dst)
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            # Weight = 1 + tiny * length biases ties toward short wires
            # while preserving minimal hop count.
            def weight(u: int, v: int, data: Mapping) -> float:
                return 1.0 + 1e-6 * data["length_mm"]

            path = tuple(
                nx.dijkstra_path(self.graph, src, dst, weight=weight)
            )
            self._path_cache[key] = path
        return path

    def path_length_mm(self, src: int, dst: int) -> float:
        """Total wire length along the chosen route."""
        route = self.route(src, dst)
        return sum(
            self.graph.edges[u, v]["length_mm"]
            for u, v in zip(route, route[1:])
        )

    def diameter_hops(self) -> int:
        """Maximum over all pairs of the minimal hop count."""
        return int(nx.diameter(self.graph))

    def average_hops(self) -> float:
        """Mean minimal hop count over all distinct pairs."""
        return float(nx.average_shortest_path_length(self.graph))

    # ------------------------------------------------------------------
    # global metrics

    def bisection_links(self) -> int:
        """Links crossing the median-x vertical cut (bisection width)."""
        xs = sorted(c.x for c in self.chiplets)
        median = xs[len(xs) // 2]
        count = 0
        for link in self.links:
            ux = self.chiplets[link.u].x
            vx = self.chiplets[link.v].x
            if (ux < median) != (vx < median):
                count += 1
        return count

    def noi_area_mm2(self) -> float:
        """Total NoI area: router silicon + interposer link channels."""
        router_area = sum(
            self.params.router_area_mm2(self.router_ports(c.index))
            for c in self.chiplets
        )
        link_area = sum(
            self.params.link_area_mm2(link.length_mm) for link in self.links
        )
        return router_area + link_area

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.name!r}, chiplets={self.num_chiplets}, "
            f"links={self.num_links})"
        )


def grid_dimensions(num_chiplets: int) -> Tuple[int, int]:
    """Choose a near-square (cols, rows) grid holding ``num_chiplets``.

    Prefers exact factorisations closest to square (e.g. 100 -> 10x10,
    60 -> 10x6); falls back to ceil-square with a ragged last row.
    """
    if num_chiplets <= 0:
        raise ValueError("need at least one chiplet")
    best: Optional[Tuple[int, int]] = None
    for rows in range(1, int(num_chiplets ** 0.5) + 1):
        if num_chiplets % rows == 0:
            best = (num_chiplets // rows, rows)
    if best is not None and best[0] / best[1] <= 2.5:
        return best
    cols = int(num_chiplets ** 0.5 + 0.9999)
    rows = -(-num_chiplets // cols)
    return cols, rows


def grid_chiplets(num_chiplets: int) -> List[Chiplet]:
    """Place ``num_chiplets`` row-major on the :func:`grid_dimensions` grid."""
    cols, _rows = grid_dimensions(num_chiplets)
    return [
        Chiplet(index=i, x=i % cols, y=i // cols) for i in range(num_chiplets)
    ]

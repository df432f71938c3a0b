"""Floret NoI construction: SFC petals + sparse top-level network.

Turns a :class:`~repro.core.sfc.FloretCurve` into a
:class:`~repro.noi.topology.Topology`:

* every consecutive pair of cells inside a petal becomes a single-hop
  link (so all intra-petal routers have exactly two ports, except the
  chain ends),
* the top-level network connects each petal's tail to the heads of other
  petals that lie within ``top_level_max_hops`` grid hops (paper: "at
  most three hops"), and
* if the top-level network leaves petals disconnected (possible for very
  scattered decompositions), the nearest tail->head link is added so the
  NoI is always usable; this fallback is recorded on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..noi.topology import Chiplet, Link, Topology, reachable
from ..params import NoIParams
from .sfc import Cell, FloretCurve, build_floret_curve, manhattan

#: Paper Section II: tails may talk to heads at most this many hops away.
DEFAULT_TOP_LEVEL_MAX_HOPS = 3


@dataclass(frozen=True)
class FloretDesign:
    """A fully built Floret NoI.

    Attributes:
        topology: The physical NoI graph.
        curve: The petal decomposition that generated it.
        cell_to_index: Grid cell -> chiplet index.
        allocation_order: Chiplet indices in global SFC visit order; the
            dataflow mapper consumes chiplets in exactly this order.
        top_level_links: (tail_index, head_index) pairs of the top-level
            network.
        fallback_links: Top-level links added beyond the hop budget only
            to restore connectivity (empty in well-formed designs).
    """

    topology: Topology
    curve: FloretCurve
    cell_to_index: Dict[Cell, int]
    allocation_order: Tuple[int, ...]
    top_level_links: Tuple[Tuple[int, int], ...]
    fallback_links: Tuple[Tuple[int, int], ...] = ()

    @property
    def num_chiplets(self) -> int:
        return self.topology.num_chiplets

    def head_indices(self) -> List[int]:
        return [self.cell_to_index[s.head] for s in self.curve.segments]

    def tail_indices(self) -> List[int]:
        return [self.cell_to_index[s.tail] for s in self.curve.segments]


def build_floret(
    num_chiplets: int = 100,
    petals: int = 6,
    *,
    params: Optional[NoIParams] = None,
    top_level_max_hops: int = DEFAULT_TOP_LEVEL_MAX_HOPS,
    optimize_headtail: bool = True,
    curve: Optional[FloretCurve] = None,
) -> FloretDesign:
    """Build the Floret NoI for a near-square grid of chiplets.

    Args:
        num_chiplets: Total chiplet count (must form a full grid for the
            petal partition; 100 -> 10x10 as in the paper).
        petals: Number of SFCs (lambda); the paper's running example uses 6.
        params: Hardware constants (pitch -> link lengths).
        top_level_max_hops: Tail->head reach of the top-level network.
        optimize_headtail: Run the Eq. (1) orientation optimiser.
        curve: Use a pre-built curve instead of constructing one (for
            ablations over SFC families).

    Raises:
        ValueError: If ``num_chiplets`` does not factor into a grid or the
            petal count does not fit.
    """
    params = params or NoIParams()
    if curve is None:
        from ..noi.topology import grid_dimensions

        cols, rows = grid_dimensions(num_chiplets)
        if cols * rows != num_chiplets:
            raise ValueError(
                f"{num_chiplets} chiplets do not fill a {cols}x{rows} grid"
            )
        curve = build_floret_curve(cols, rows, petals,
                                   optimize=optimize_headtail)

    pitch = params.chiplet_pitch_mm
    cell_order = curve.all_cells()
    cell_to_index = {cell: i for i, cell in enumerate(cell_order)}
    chiplets = [
        Chiplet(index=i, x=cell[0], y=cell[1])
        for i, cell in enumerate(cell_order)
    ]

    links: List[Link] = []
    for segment in curve.segments:
        for a, b in zip(segment.cells, segment.cells[1:]):
            links.append(
                Link(
                    u=cell_to_index[a],
                    v=cell_to_index[b],
                    length_mm=pitch * manhattan(a, b),
                )
            )

    # Top-level network: tail_i -> head_j within the hop budget.
    top_level: List[Tuple[int, int]] = []
    existing: Set[Tuple[int, int]] = {
        (min(l.u, l.v), max(l.u, l.v)) for l in links
    }

    def add_link(u: int, v: int, dist: int) -> None:
        key = (min(u, v), max(u, v))
        if key in existing:
            return
        existing.add(key)
        links.append(Link(u=u, v=v, length_mm=pitch * dist))
        top_level.append((u, v))

    segments = curve.segments
    for si in segments:
        for sj in segments:
            if si.petal_id == sj.petal_id:
                continue
            dist = manhattan(si.tail, sj.head)
            if dist <= top_level_max_hops:
                add_link(cell_to_index[si.tail], cell_to_index[sj.head], dist)

    # Connectivity fallback: bridge components via nearest tail->head.
    fallback: List[Tuple[int, int]] = []
    adjacency: List[List[int]] = [[] for _ in range(num_chiplets)]
    for l in links:
        adjacency[l.u].append(l.v)
        adjacency[l.v].append(l.u)
    main = reachable(adjacency, 0)
    while len(main) < num_chiplets:
        best: Optional[Tuple[int, int, int]] = None
        for si in segments:
            ti = cell_to_index[si.tail]
            for sj in segments:
                hj = cell_to_index[sj.head]
                if (ti in main) == (hj in main):
                    continue
                dist = manhattan(si.tail, sj.head)
                if best is None or dist < best[0]:
                    best = (dist, ti, hj)
        if best is None:  # pragma: no cover - petals always have head/tail
            raise RuntimeError("cannot connect Floret petals")
        dist, u, v = best
        add_link(u, v, dist)
        fallback.append((u, v))
        adjacency[u].append(v)
        adjacency[v].append(u)
        main = reachable(adjacency, 0)

    topology = Topology(
        "floret", chiplets, links, params=params, multicast_capable=True
    )
    allocation_order = tuple(
        cell_to_index[cell] for cell in curve.visit_order()
    )
    return FloretDesign(
        topology=topology,
        curve=curve,
        cell_to_index=cell_to_index,
        allocation_order=allocation_order,
        top_level_links=tuple(top_level),
        fallback_links=tuple(fallback),
    )

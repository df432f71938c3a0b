"""SWAP NoI: application-specific small-world network synthesis.

SWAP [2] synthesises an irregular, communication-aware NoI at design
time: routers keep few ports (mostly 2-3), the link budget is small, and
link placement is optimised -- by simulated annealing -- against the
traffic of a *design-time* set of DNN workloads mapped linearly over the
chiplet sequence.  Because the optimisation is offline, the resulting
network serves the design workloads well but generalises poorly when
different task mixes arrive at runtime (the paper's Fig. 4 utilisation
argument, reproduced in ``benchmarks/bench_fig4_utilization.py``).

The synthesis here follows the small-world recipe: start from a ring
backbone (guaranteeing connectivity and 2-port routers), scatter a small
budget of chord links, then anneal chord placement to minimise
traffic-weighted path length, with a router-port cap and a physical
link-length cap of five pitches (paper: SWAP has "some longer links,
with four or five hops").

The anneal never recomputes its objective from scratch.  For every
design-traffic pair it keeps the hop count and the edges of one
shortest path, the pair's *witness* (:class:`_DesignPairs`).  A move
swaps one chord for another; only pairs whose witness used the removed
chord are searched again, and every other pair can only get shorter,
through the added chord.  Costs are summed in the same order as the
from-scratch :func:`_traffic_cost`, so every move's cost is the same
float, and the links are those a from-scratch anneal would produce.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..params import NoIParams
from .topology import Chiplet, Link, Topology, grid_chiplets

#: Physical cap on synthesised link span, in pitches.
MAX_LINK_SPAN_PITCHES = 5

#: Router port cap during synthesis (SWAP uses mostly 2-3 port routers).
MAX_PORTS = 3

#: An undirected link as ``(min endpoint, max endpoint)``.
Edge = Tuple[int, int]


@dataclass(frozen=True)
class SwapSynthesisConfig:
    """Knobs of the simulated-annealing synthesis."""

    chord_budget_fraction: float = 0.25
    iterations: int = 1200
    initial_temperature: float = 1.0
    cooling: float = 0.9985
    seed: int = 2024


def design_time_traffic(
    num_chiplets: int,
    *,
    seed: int = 7,
    skip_fraction: float = 0.2,
) -> List[Tuple[int, int, float]]:
    """Synthetic design-time traffic for SWAP synthesis.

    DNN layers mapped in sequence produce dominant next-neighbour
    (chain) traffic plus a minority of skip transfers a few chiplets
    ahead -- the characteristic PIM-inference pattern the SWAP authors
    optimise for.  Volumes are normalised.

    Raises:
        ValueError: ``skip_fraction`` asks for at least one skip but
            ``num_chiplets <= 3`` leaves no chiplet a skip can start at.
    """
    num_skips = int(skip_fraction * num_chiplets)
    if num_skips >= 1 and num_chiplets <= 3:
        raise ValueError(
            f"skip_fraction={skip_fraction} asks for {num_skips} skip "
            f"transfers, but num_chiplets={num_chiplets} leaves no skip "
            "source (sources are drawn from [0, num_chiplets - 3)); "
            "skips need num_chiplets >= 4"
        )
    rng = random.Random(seed)
    traffic: List[Tuple[int, int, float]] = []
    for i in range(num_chiplets - 1):
        traffic.append((i, i + 1, 1.0))
    for _ in range(num_skips):
        src = rng.randrange(0, num_chiplets - 3)
        dst = min(num_chiplets - 1, src + rng.randint(2, 6))
        traffic.append((src, dst, 0.35))
    return traffic


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _climb(parent: Dict[int, Optional[int]], node: int,
           edges: List[Edge]) -> None:
    """Append the edges from ``node`` up to its search tree's root."""
    up = parent[node]
    while up is not None:
        edges.append(_edge(node, up))
        node, up = up, parent[up]


def _pair_path(
    adjacency, src: int, dst: int, unreachable: int
) -> Tuple[int, FrozenSet[Edge]]:
    """Hop distance ``src -> dst`` by bidirectional BFS, with the edges
    of one shortest path (empty when ``src == dst`` or unreachable).

    Grows the smaller frontier one whole level at a time.  The first
    node one side reaches that the other side has already seen closes a
    shortest path: with no earlier meeting the distance exceeds the sum
    of the levels expanded so far, and this path is one hop longer.  The
    path is read back through the parents each side records.
    """
    if src == dst:
        return 0, frozenset()
    # Each side maps the nodes it has seen to their BFS parent.
    seen: List[Dict[int, Optional[int]]] = [{src: None}, {dst: None}]
    fronts = [[src], [dst]]
    while fronts[0] and fronts[1]:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        mine, other = seen[side], seen[1 - side]
        nxt: List[int] = []
        for u in fronts[side]:
            for v in adjacency[u]:
                if v in mine:
                    continue
                if v in other:
                    edges = [_edge(u, v)]
                    _climb(mine, u, edges)
                    _climb(other, v, edges)
                    return len(edges), frozenset(edges)
                mine[v] = u
                nxt.append(v)
        fronts[side] = nxt
    return unreachable, frozenset()


def _bfs_tree(
    adjacency, root: int, max_depth: int
) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """Depths and parents of a BFS from ``root``, ``max_depth`` levels
    deep."""
    depth = {root: 0}
    parent: Dict[int, Optional[int]] = {root: None}
    frontier = [root]
    for level in range(1, max_depth + 1):
        nxt: List[int] = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in depth:
                    depth[v] = level
                    parent[v] = u
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return depth, parent


class _DesignPairs:
    """The SA objective's state: every design-traffic pair's hop count
    and the edge set of one shortest path (its *witness*).

    Pairs are kept in :func:`_traffic_cost`'s summation order (source
    by source in first-appearance order, each source's destinations in
    traffic order), and ``cost`` sums ``volume * hops`` over them left
    to right, so it is the very float :func:`_traffic_cost` returns on
    the committed graph.  Invariant: ``hops[i]`` is pair ``i``'s hop
    distance in the committed graph (``2 * n`` when unreachable) and
    ``witnesses[i]`` is a shortest path realising it (empty when
    ``src == dst`` or unreachable).
    """

    def __init__(self, adjacency, traffic: Sequence[Tuple[int, int, float]]):
        by_src: Dict[int, List[Tuple[int, float]]] = {}
        for src, dst, volume in traffic:
            by_src.setdefault(src, []).append((dst, volume))
        self.pairs = [
            (src, dst, volume)
            for src, wants in by_src.items() for dst, volume in wants
        ]
        self.unreachable = len(adjacency) * 2
        found = [_pair_path(adjacency, src, dst, self.unreachable)
                 for src, dst, _ in self.pairs]
        self.hops = [hops for hops, _ in found]
        self.witnesses = [witness for _, witness in found]
        self.cost = self._sum(self.hops)
        self._staged: Optional[Tuple[List[int], List[FrozenSet[Edge]],
                                     float]] = None

    def _sum(self, hops: List[int]) -> float:
        cost = 0.0
        for (_, _, volume), h in zip(self.pairs, hops):
            cost += volume * h
        return cost

    def move_cost(self, adjacency, old: Edge, new: Edge) -> float:
        """Objective after ``adjacency`` swapped chord ``old`` for ``new``.

        Exact, without a from-scratch search: a pair whose witness
        contains ``old`` is searched again on the new graph.  Any other
        pair keeps its distance through the removal (its witness
        survives, and removing an edge never shortens a path), and the
        added chord ``(a, b)`` can only shorten it, to
        ``min(h, d(s,a) + 1 + d(b,t), d(s,b) + 1 + d(a,t))``.  Those
        distances come from two BFS trees rooted at ``a`` and ``b``,
        at most ``max(h) - 2`` deep: a shorter route through the chord
        has both legs at most ``h - 2`` long.  A shortened pair's new
        witness is spliced from the trees.  The result is staged;
        :meth:`commit` makes it the state.
        """
        hops = list(self.hops)
        witnesses = list(self.witnesses)
        kept: List[int] = []
        for i, witness in enumerate(witnesses):
            if old in witness:
                src, dst, _ = self.pairs[i]
                hops[i], witnesses[i] = _pair_path(adjacency, src, dst,
                                                   self.unreachable)
            elif hops[i] >= 2:
                kept.append(i)
        if kept:
            reach = max(hops[i] for i in kept) - 2
            a, b = new
            depth_a, parent_a = _bfs_tree(adjacency, a, reach)
            depth_b, parent_b = _bfs_tree(adjacency, b, reach)
            # A node beyond the trees is more than ``reach`` away.
            far = reach + 1
            for i in kept:
                src, dst, _ = self.pairs[i]
                via_a = depth_a.get(src, far) + 1 + depth_b.get(dst, far)
                via_b = depth_b.get(src, far) + 1 + depth_a.get(dst, far)
                if via_a >= hops[i] and via_b >= hops[i]:
                    continue
                edges = [new]
                if via_a <= via_b:
                    hops[i] = via_a
                    _climb(parent_a, src, edges)
                    _climb(parent_b, dst, edges)
                else:
                    hops[i] = via_b
                    _climb(parent_b, src, edges)
                    _climb(parent_a, dst, edges)
                witnesses[i] = frozenset(edges)
        cost = self._sum(hops)
        self._staged = (hops, witnesses, cost)
        return cost

    def commit(self) -> None:
        """Make the last :meth:`move_cost` the state (an accepted move)."""
        self.hops, self.witnesses, self.cost = self._staged


def _traffic_cost(
    adjacency, traffic: Sequence[Tuple[int, int, float]]
) -> float:
    """Total traffic-weighted hop count (the SA objective), from scratch.

    ``adjacency[u]`` iterates ``u``'s neighbours, in any order.  One
    bidirectional BFS per (source, destination) pair: design-time
    traffic joins nearby chiplets, so two small balls meet long before
    one source-rooted BFS has covered all of its destinations.  Terms
    are summed source by source (in first-appearance order), each
    source's destinations in traffic order; an unreachable pair costs
    ``2 * n`` hops.  The anneal starts from this same computation
    (:class:`_DesignPairs`) and then updates it move by move
    (:meth:`_DesignPairs.move_cost`); the tests check each update
    against this function.
    """
    return _DesignPairs(adjacency, traffic).cost


def build_swap(
    num_chiplets: int = 100,
    *,
    params: Optional[NoIParams] = None,
    config: Optional[SwapSynthesisConfig] = None,
    traffic: Optional[Sequence[Tuple[int, int, float]]] = None,
) -> Topology:
    """Synthesise a SWAP-style small-world NoI.

    The anneal scores each move incrementally
    (:meth:`_DesignPairs.move_cost`) while keeping the witness
    invariant: every design-traffic pair's hop count and one shortest
    path are those of the current graph, updated only when a move is
    accepted.  The update is exact, so the links equal those of an
    anneal that scores every move with :func:`_traffic_cost`.

    Args:
        num_chiplets: Chiplet count (100 in the paper's evaluation).
        params: Hardware constants.
        config: Annealing knobs; defaults are deterministic (fixed seed).
        traffic: Design-time traffic; defaults to
            :func:`design_time_traffic`.

    Raises:
        ValueError: a traffic pair has an endpoint outside
            ``[0, num_chiplets)`` (checked before any synthesis).
    """
    params = params or NoIParams()
    config = config or SwapSynthesisConfig()
    traffic = list(traffic) if traffic is not None else design_time_traffic(
        num_chiplets
    )
    for src, dst, _ in traffic:
        if not (0 <= src < num_chiplets and 0 <= dst < num_chiplets):
            raise ValueError(
                f"design traffic pair ({src}, {dst}) has an endpoint "
                f"outside [0, {num_chiplets})"
            )
    rng = random.Random(config.seed)
    pitch = params.chiplet_pitch_mm
    chiplets = grid_chiplets(num_chiplets)

    def span(u: int, v: int) -> int:
        cu, cv = chiplets[u], chiplets[v]
        return abs(cu.x - cv.x) + abs(cu.y - cv.y)

    # Ring backbone over a serpentine walk so ring neighbours are
    # physically adjacent (single-pitch links).
    from ..core.sfc import serpentine_order

    cols = max(c.x for c in chiplets) + 1
    rows = max(c.y for c in chiplets) + 1
    order = [
        cell for cell in serpentine_order(cols, rows)
        if cell[1] * cols + cell[0] < num_chiplets
    ]
    cell_index = {(c.x, c.y): c.index for c in chiplets}
    walk = [cell_index[cell] for cell in order]
    backbone = {
        (min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])
    }

    adjacency: List[Set[int]] = [set() for _ in range(num_chiplets)]

    def connect(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def disconnect(u: int, v: int) -> None:
        adjacency[u].remove(v)
        adjacency[v].remove(u)

    for key in backbone:
        connect(*key)

    def candidate_chord() -> Optional[Tuple[int, int]]:
        for _ in range(64):
            u = rng.randrange(num_chiplets)
            v = rng.randrange(num_chiplets)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in backbone or v in adjacency[u]:
                continue
            if span(*key) > MAX_LINK_SPAN_PITCHES:
                continue
            if max(len(adjacency[u]), len(adjacency[v])) >= MAX_PORTS:
                continue
            return key
        return None

    budget = max(1, int(config.chord_budget_fraction * num_chiplets))
    chords: List[Tuple[int, int]] = []
    while len(chords) < budget:
        chord = candidate_chord()
        if chord is None:
            break
        connect(*chord)
        chords.append(chord)

    design = _DesignPairs(adjacency, traffic)
    temperature = (config.initial_temperature * design.cost
                   / max(1, num_chiplets))
    for _ in range(config.iterations):
        if not chords:
            break
        # Move: rewire one chord.
        victim = rng.randrange(len(chords))
        old = chords[victim]
        disconnect(*old)
        new = candidate_chord()
        if new is None:
            connect(*old)
            continue
        connect(*new)
        delta = design.move_cost(adjacency, old, new) - design.cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            chords[victim] = new
            design.commit()
        else:
            disconnect(*new)
            connect(*old)
        temperature *= config.cooling

    links = [
        Link(u, v, length_mm=pitch * span(u, v))
        for u, v in sorted(backbone.union(chords))
    ]
    return Topology("swap", chiplets, links, params=params)

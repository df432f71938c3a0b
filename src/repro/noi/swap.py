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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..params import NoIParams
from .topology import Chiplet, Link, Topology, grid_chiplets

#: Physical cap on synthesised link span, in pitches.
MAX_LINK_SPAN_PITCHES = 5

#: Router port cap during synthesis (SWAP uses mostly 2-3 port routers).
MAX_PORTS = 3


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
    """
    rng = random.Random(seed)
    traffic: List[Tuple[int, int, float]] = []
    for i in range(num_chiplets - 1):
        traffic.append((i, i + 1, 1.0))
    num_skips = int(skip_fraction * num_chiplets)
    for _ in range(num_skips):
        src = rng.randrange(0, num_chiplets - 3)
        dst = min(num_chiplets - 1, src + rng.randint(2, 6))
        traffic.append((src, dst, 0.35))
    return traffic


def _pair_hops(adjacency, src: int, dst: int, unreachable: int) -> int:
    """Hop distance ``src -> dst`` by bidirectional BFS.

    Grows the smaller frontier one whole level at a time.  The first
    node one side reaches that the other side has already seen closes a
    shortest path: with no earlier meeting the distance exceeds the sum
    of the levels expanded so far, and this path is one hop longer.
    """
    if src == dst:
        return 0
    seen = [{src: 0}, {dst: 0}]
    fronts = [[src], [dst]]
    levels = [0, 0]
    while fronts[0] and fronts[1]:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        mine, other = seen[side], seen[1 - side]
        levels[side] += 1
        level = levels[side]
        nxt: List[int] = []
        for u in fronts[side]:
            for v in adjacency[u]:
                if v in mine:
                    continue
                if v in other:
                    return level + other[v]
                mine[v] = level
                nxt.append(v)
        fronts[side] = nxt
    return unreachable


def _traffic_cost(
    adjacency, traffic: Sequence[Tuple[int, int, float]]
) -> float:
    """Total traffic-weighted hop count (the SA objective).

    ``adjacency[u]`` iterates ``u``'s neighbours, in any order.  One
    bidirectional BFS per (source, destination) pair: design-time
    traffic joins nearby chiplets, so two small balls meet long before
    one source-rooted BFS has covered all of its destinations.  Terms
    are summed source by source (in first-appearance order), each
    source's destinations in traffic order; an unreachable pair costs
    ``2 * n`` hops.
    """
    unreachable = len(adjacency) * 2
    by_src: Dict[int, List[Tuple[int, float]]] = {}
    for src, dst, volume in traffic:
        by_src.setdefault(src, []).append((dst, volume))

    cost = 0.0
    for src, wants in by_src.items():
        for dst, volume in wants:
            cost += volume * _pair_hops(adjacency, src, dst, unreachable)
    return cost


def build_swap(
    num_chiplets: int = 100,
    *,
    params: Optional[NoIParams] = None,
    config: Optional[SwapSynthesisConfig] = None,
    traffic: Optional[Sequence[Tuple[int, int, float]]] = None,
) -> Topology:
    """Synthesise a SWAP-style small-world NoI.

    Args:
        num_chiplets: Chiplet count (100 in the paper's evaluation).
        params: Hardware constants.
        config: Annealing knobs; defaults are deterministic (fixed seed).
        traffic: Design-time traffic; defaults to
            :func:`design_time_traffic`.
    """
    params = params or NoIParams()
    config = config or SwapSynthesisConfig()
    traffic = list(traffic) if traffic is not None else design_time_traffic(
        num_chiplets
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

    cost = _traffic_cost(adjacency, traffic)
    temperature = config.initial_temperature * cost / max(1, num_chiplets)
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
        new_cost = _traffic_cost(adjacency, traffic)
        delta = new_cost - cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            chords[victim] = new
            cost = new_cost
        else:
            disconnect(*new)
            connect(*old)
        temperature *= config.cooling

    links = [
        Link(u, v, length_mm=pitch * span(u, v))
        for u, v in sorted(backbone.union(chords))
    ]
    return Topology("swap", chiplets, links, params=params)

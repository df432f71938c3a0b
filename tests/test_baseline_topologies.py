"""Unit tests: mesh/SIAM, Kite family and SWAP builders."""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

import networkx as nx
import pytest

from repro.noi import swap
from repro.noi.kite import (
    _folded_position,
    build_butter_donut,
    build_double_butterfly,
    build_kite,
)
from repro.noi.mesh import build_cmesh, build_mesh
from repro.noi.properties import compare, summarize
from repro.noi.swap import (
    MAX_LINK_SPAN_PITCHES,
    MAX_PORTS,
    SwapSynthesisConfig,
    _traffic_cost,
    build_swap,
    design_time_traffic,
)

#: Link digests of ``build_swap`` recorded from the per-source BFS
#: objective that preceded the bidirectional per-pair search; the anneal
#: accepts moves by comparing float costs, so any drift in the objective
#: would move links.
SWAP_LINK_DIGESTS = {
    16: "00d6df36d1beafbd",
    36: "a323aecdfab91d45",
    64: "981bf5606d60ba4d",
    100: "f216ed7626ef88a9",
}
SWAP_CONFIG = SwapSynthesisConfig(chord_budget_fraction=0.4, iterations=300,
                                  initial_temperature=2.0, cooling=0.99,
                                  seed=11)
SWAP_CONFIG_DIGEST = "8b7c5dc408e18205"  # build_swap(49, config=SWAP_CONFIG)

#: Link digests recorded from the anneal that recomputed the whole
#: objective after every move, before the incremental witness update.
SWAP_LARGE_LINK_DIGESTS = {
    144: "cef57ad4c3ea609c",
    256: "d7d16d0edaf11eac",
}
#: Custom design traffic: sources out of order, a self pair, a repeated
#: pair and its reverse.
SWAP_TRAFFIC = ([(i, (7 * i + 3) % 40, 1.0 if i % 3 else 0.35)
                 for i in range(39, -1, -2)]
                + [(3, 3, 0.5), (5, 9, 1.0), (5, 9, 1.0), (9, 5, 0.2)])
SWAP_TRAFFIC_DIGEST = "1cce4cee8d30ea0a"  # build_swap(40, traffic=...)


def _link_digest(topology) -> str:
    links = [(l.u, l.v, l.length_mm) for l in topology.links]
    return hashlib.sha256(repr(links).encode()).hexdigest()[:16]


def _source_bfs_traffic_cost(graph, traffic) -> float:
    """The SA objective as one early-exit BFS per source.  The oracle."""
    adjacency = {node: list(graph.adj[node]) for node in graph}
    by_src: Dict[int, List] = {}
    for src, dst, volume in traffic:
        by_src.setdefault(src, []).append((dst, volume))
    cost = 0.0
    for src, wants in by_src.items():
        pending = {dst for dst, _ in wants}
        dist = {src: 0}
        frontier = [src]
        pending.discard(src)
        while frontier and pending:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        pending.discard(v)
                        nxt.append(v)
            frontier = nxt
        for dst, volume in wants:
            cost += volume * dist.get(dst, len(adjacency) * 2)
    return cost


def _bfs_hops(adjacency, src: int) -> Dict[int, int]:
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _is_shortest_path(adjacency, src, dst, hops, witness) -> bool:
    """Whether ``witness`` is ``hops`` edges of ``adjacency`` joining
    ``src`` to ``dst``: with ``hops`` the distance, a set of that many
    edges whose degrees are those of a path has no room for a cycle."""
    if len(witness) != hops:
        return False
    degree: Dict[int, int] = {}
    for u, v in witness:
        if not u < v or v not in adjacency[u]:
            return False
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if not witness:
        return True
    ends = {node for node, d in degree.items() if d == 1}
    return ends == {src, dst} and set(degree.values()) <= {1, 2}


class TestMesh:
    def test_link_count_10x10(self):
        # 2D mesh on n x n: 2*n*(n-1) links.
        assert build_mesh(100).num_links == 180

    def test_connected(self, small_mesh):
        assert small_mesh.is_connected()

    def test_ports_bounded_by_four(self, small_mesh):
        assert max(small_mesh.port_histogram()) <= 4

    def test_corners_have_two_ports(self, small_mesh):
        assert small_mesh.port_histogram()[2] == 4

    def test_all_links_single_pitch(self, small_mesh):
        assert small_mesh.link_length_histogram() == {1: small_mesh.num_links}

    def test_cmesh_builds_connected(self):
        topo = build_cmesh(36, concentration=4)
        assert topo.is_connected()
        assert topo.num_links < build_mesh(36).num_links


class TestKite:
    def test_folded_position_is_permutation(self):
        for n in (4, 5, 10):
            positions = sorted(_folded_position(i, n) for i in range(n))
            assert positions == list(range(n))

    def test_all_routers_four_port(self):
        assert build_kite(100).port_histogram() == {4: 100}

    def test_link_count_torus(self):
        # Torus on n x n: 2*n^2 links.
        assert build_kite(100).num_links == 200

    def test_connected(self, small_kite):
        assert small_kite.is_connected()

    def test_links_mostly_two_hop(self):
        hist = build_kite(100).link_length_histogram()
        assert hist[2] > hist.get(1, 0)

    def test_diameter_beats_mesh(self, small_kite, small_mesh):
        assert small_kite.diameter_hops() < small_mesh.diameter_hops()

    def test_butter_donut_adds_links(self, small_kite):
        bd = build_butter_donut(36)
        assert bd.num_links > small_kite.num_links
        assert bd.is_connected()

    def test_double_butterfly_connected(self):
        db = build_double_butterfly(100)
        assert db.is_connected()
        assert db.num_links > build_mesh(100).num_links


class TestSwap:
    def test_connected(self, small_swap):
        assert small_swap.is_connected()

    def test_port_cap_respected(self, small_swap):
        # The ring backbone gives each router at most 2 ports, and a
        # chord only joins two routers that both have fewer than
        # MAX_PORTS, so no router ever exceeds MAX_PORTS.
        for topology in (small_swap, build_swap(100)):
            assert max(topology.port_histogram()) <= MAX_PORTS

    def test_link_span_cap(self, small_swap):
        assert max(small_swap.link_length_histogram()) <= MAX_LINK_SPAN_PITCHES

    def test_deterministic_given_seed(self):
        cfg = SwapSynthesisConfig(iterations=60, seed=3)
        a = build_swap(25, config=cfg)
        b = build_swap(25, config=cfg)
        assert {(l.u, l.v) for l in a.links} == {(l.u, l.v) for l in b.links}

    def test_different_seeds_differ(self):
        a = build_swap(25, config=SwapSynthesisConfig(iterations=60, seed=3))
        b = build_swap(25, config=SwapSynthesisConfig(iterations=60, seed=4))
        assert {(l.u, l.v) for l in a.links} != {(l.u, l.v) for l in b.links}

    def test_annealing_improves_traffic_cost(self):
        from repro.noi.swap import _traffic_cost

        traffic = design_time_traffic(25)
        short = build_swap(
            25, config=SwapSynthesisConfig(iterations=0, seed=3)
        )
        long = build_swap(
            25, config=SwapSynthesisConfig(iterations=400, seed=3)
        )
        assert (
            _traffic_cost(long.adj, traffic)
            <= _traffic_cost(short.adj, traffic)
        )

    @pytest.mark.parametrize("n", sorted(SWAP_LINK_DIGESTS))
    def test_links_match_recorded_digests(self, n):
        assert _link_digest(build_swap(n)) == SWAP_LINK_DIGESTS[n]

    def test_custom_config_matches_recorded_digest(self):
        assert (_link_digest(build_swap(49, config=SWAP_CONFIG))
                == SWAP_CONFIG_DIGEST)

    @pytest.mark.parametrize("n", sorted(SWAP_LARGE_LINK_DIGESTS))
    def test_large_links_match_recorded_digests(self, n):
        assert _link_digest(build_swap(n)) == SWAP_LARGE_LINK_DIGESTS[n]

    def test_custom_traffic_matches_recorded_digest(self):
        assert (_link_digest(build_swap(40, traffic=SWAP_TRAFFIC))
                == SWAP_TRAFFIC_DIGEST)

    def test_out_of_range_traffic_rejected(self, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(swap, "grid_chiplets", no_synthesis)
        traffic = [(1, 2, 1.0), (0, 50, 1.0), (-1, 3, 1.0)]
        with pytest.raises(ValueError, match=r"\(0, 50\).*\[0, 10\)"):
            build_swap(10, traffic=traffic)
        with pytest.raises(ValueError, match=r"\(-1, 3\)"):
            build_swap(10, traffic=traffic[2:])
        with pytest.raises(ValueError, match=r"\(4, 10\)"):
            build_swap(10, traffic=[(4, 10, 1.0)])

    def test_empty_traffic_builds(self):
        topology = build_swap(20, traffic=[])
        assert topology.is_connected()
        assert _traffic_cost(topology.adj, []) == 0.0

    def test_incremental_cost_matches_from_scratch(self, monkeypatch):
        """Every move's incremental cost equals ``_traffic_cost`` on that
        move's graph; every staged hop count is the pair's distance and
        every staged witness one shortest path realising it."""
        counts = {"moves": 0, "researched": 0, "shortened": 0}
        current = {}
        move_cost = swap._DesignPairs.move_cost

        def checked(design, adjacency, old, new):
            before = list(design.hops)
            stale = [old in witness for witness in design.witnesses]
            cost = move_cost(design, adjacency, old, new)
            assert cost == _traffic_cost(adjacency, current["traffic"])
            hops, witnesses, staged_cost = design._staged
            assert staged_cost == cost
            dist = {}
            for (src, dst, _), h, witness in zip(design.pairs, hops,
                                                 witnesses):
                if src not in dist:
                    dist[src] = _bfs_hops(adjacency, src)
                assert h == dist[src].get(dst, 2 * len(adjacency))
                if h < 2 * len(adjacency):
                    assert _is_shortest_path(adjacency, src, dst, h,
                                             witness)
            counts["moves"] += 1
            counts["researched"] += any(stale)
            counts["shortened"] += any(
                h < b and not s for h, b, s in zip(hops, before, stale)
            )
            return cost

        monkeypatch.setattr(swap._DesignPairs, "move_cost", checked)
        rng = random.Random(24)
        for trial in range(48):
            n = trial + 1 if trial < 3 else rng.randint(1, 64)
            config = SwapSynthesisConfig(
                chord_budget_fraction=rng.choice([0.05, 0.25, 0.5, 0.9]),
                iterations=rng.randint(0, 60),
                initial_temperature=rng.choice([0.0, 0.5, 1.0, 4.0]),
                cooling=rng.choice([0.9, 0.99, 1.0]),
                seed=trial,
            )
            kind = trial % 4
            if kind == 0:
                traffic = design_time_traffic(n, seed=trial)
            elif kind == 3:
                traffic = []
            else:
                traffic = [(rng.randrange(n), rng.randrange(n),
                            rng.choice([1.0, 0.35, 0.1]))
                           for _ in range(rng.randint(1, 50))]
                # A self pair and a repeated pair in every custom set.
                traffic += [(n - 1, n - 1, 0.7), traffic[0]]
            current["traffic"] = traffic
            build_swap(n, config=config, traffic=traffic)
        assert counts["moves"] >= 900
        assert counts["researched"] >= 500
        assert counts["shortened"] >= 300

    def test_traffic_cost_matches_source_bfs(self):
        rng = random.Random(5)
        for trial in range(60):
            n = rng.randint(1, 30)
            p = rng.choice([0.03, 0.08, 0.2])
            graph = nx.gnp_random_graph(n, p, seed=trial)
            traffic = [(rng.randrange(n), rng.randrange(n),
                        rng.choice([1.0, 0.35, 0.1]))
                       for _ in range(rng.randint(0, 40))]
            # Pairs with src == dst, repeated pairs and unreachable pairs
            # (sparse graphs are disconnected) all occur.
            traffic += [(0, 0, 0.7), (n - 1, 0, 0.3), (n - 1, 0, 0.3)]
            assert (_traffic_cost(graph, traffic)
                    == _source_bfs_traffic_cost(graph, traffic))

    def test_traffic_cost_edge_cases(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edges_from([(0, 1), (1, 2)])
        assert _traffic_cost(graph, [(2, 2, 5.0)]) == 0.0
        assert _traffic_cost(graph, [(0, 2, 0.5)]) == 1.0
        assert _traffic_cost(graph, [(0, 3, 1.0)]) == 8.0  # 2 * n

    def test_design_time_traffic_chain_backbone(self):
        traffic = design_time_traffic(10, seed=1)
        chain = [(s, d) for s, d, v in traffic if v == 1.0]
        assert chain == [(i, i + 1) for i in range(9)]

    def test_design_time_traffic_rejects_skips_without_room(self):
        with pytest.raises(ValueError,
                           match=r"skip_fraction=1\.0.*num_chiplets=3"):
            design_time_traffic(3, skip_fraction=1.0)
        # No skip asked for (or room for one): plain chain, no error.
        assert design_time_traffic(3, skip_fraction=0.2) == [
            (0, 1, 1.0), (1, 2, 1.0)]
        assert len(design_time_traffic(4, skip_fraction=1.0)) == 3 + 4


class TestProperties:
    def test_summarize_fields(self, small_mesh):
        s = summarize(small_mesh)
        assert s.num_chiplets == 36
        assert s.num_links == small_mesh.num_links
        assert s.mean_ports == pytest.approx(small_mesh.mean_ports())

    def test_compare_keys(self, small_mesh, small_kite):
        table = compare([summarize(small_mesh), summarize(small_kite)])
        assert set(table) == {"siam", "kite"}
        assert table["kite"]["links"] > table["siam"]["links"]

    def test_single_hop_fraction(self, small_mesh):
        assert summarize(small_mesh).fraction_single_hop_links() == 1.0

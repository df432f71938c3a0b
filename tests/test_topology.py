"""Unit tests: the Topology substrate."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.eval.experiments import topology_for
from repro.noi.topology import (
    Chiplet,
    Link,
    NoPathError,
    Topology,
    grid_chiplets,
    grid_dimensions,
    reachable,
)

from helpers import nx_graph


def line_topology(n: int = 4) -> Topology:
    chiplets = [Chiplet(i, x=i, y=0) for i in range(n)]
    links = [Link(i, i + 1, length_mm=3.0) for i in range(n - 1)]
    return Topology("line", chiplets, links)


def split_topology() -> Topology:
    """Two components: 0-1 and 2-3."""
    chiplets = [Chiplet(i, x=i, y=0) for i in range(4)]
    links = [Link(0, 1, length_mm=3.0), Link(2, 3, length_mm=3.0)]
    return Topology("split", chiplets, links)


class TestConstruction:
    def test_indices_must_be_dense(self):
        with pytest.raises(ValueError, match="dense"):
            Topology("bad", [Chiplet(1, 0, 0)], [])

    def test_position_clash_rejected(self):
        with pytest.raises(ValueError, match="multiple chiplets"):
            Topology(
                "bad",
                [Chiplet(0, 0, 0), Chiplet(1, 0, 0)],
                [],
            )

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="self-link"):
            Link(1, 1, length_mm=1.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="negative length"):
            Link(0, 1, length_mm=-1.0)

    def test_duplicate_link_rejected(self):
        chiplets = [Chiplet(0, 0, 0), Chiplet(1, 1, 0)]
        with pytest.raises(ValueError, match="duplicate link"):
            Topology("bad", chiplets,
                     [Link(0, 1, 1.0), Link(1, 0, 1.0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown chiplet"):
            Topology("bad", [Chiplet(0, 0, 0)], [Link(0, 5, 1.0)])


class TestQueries:
    def test_hops_line(self):
        topo = line_topology(5)
        assert topo.hops(0, 4) == 4
        assert topo.hops(2, 2) == 0

    def test_hops_symmetric(self):
        topo = line_topology(5)
        assert topo.hops(1, 4) == topo.hops(4, 1)

    def test_route_endpoints(self):
        topo = line_topology(4)
        route = topo.route(0, 3)
        assert route[0] == 0 and route[-1] == 3
        assert len(route) == 4

    def test_route_self(self):
        assert line_topology(3).route(1, 1) == (1,)

    def test_disconnected_raises(self):
        chiplets = [Chiplet(0, 0, 0), Chiplet(1, 5, 5)]
        topo = Topology("disc", chiplets, [])
        with pytest.raises(NoPathError):
            topo.hops(0, 1)
        assert not topo.is_connected()

    def test_path_length_mm(self):
        topo = line_topology(4)
        assert topo.path_length_mm(0, 3) == pytest.approx(9.0)

    def test_diameter(self):
        assert line_topology(6).diameter_hops() == 5

    def test_average_hops_line(self):
        # Line of 3: pairs (0,1)=1 (0,2)=2 (1,2)=1 -> mean 4/3.
        assert line_topology(3).average_hops() == pytest.approx(4 / 3)

    def test_whole_graph_queries_reject_disconnected(self):
        # A max or mean over the -1 hop entries would be a wrong number.
        topo = split_topology()
        assert not topo.is_connected()
        assert topo.hops(0, 1) == 1
        with pytest.raises(NoPathError):
            topo.route(0, 2)
        with pytest.raises(NoPathError):
            topo.diameter_hops()
        with pytest.raises(NoPathError):
            topo.average_hops()

    @pytest.mark.parametrize("arch", ["floret", "kite", "siam", "swap"])
    def test_whole_graph_queries_match_networkx(self, arch):
        # Both sides sum integer hop counts, so they agree exactly.
        topo = topology_for(arch, 100)
        graph = nx_graph(topo)
        assert topo.is_connected() and nx.is_connected(graph)
        assert topo.average_hops() == nx.average_shortest_path_length(graph)
        assert topo.diameter_hops() == nx.diameter(graph)

    def test_unknown_chiplet_rejected(self):
        # A negative index must not wrap around to the last chiplet.
        topo = line_topology(4)
        for src, dst in [(-1, 0), (0, -1), (4, 0), (0, 4)]:
            with pytest.raises(IndexError):
                topo.hops(src, dst)
            with pytest.raises(IndexError):
                topo.route(src, dst)

    def test_single_chiplet(self):
        topo = line_topology(1)
        assert topo.is_connected()
        assert topo.diameter_hops() == 0 and topo.average_hops() == 0.0

    def test_route_prefers_short_wires(self):
        # Two parallel 2-hop routes; one has shorter wires.
        chiplets = [Chiplet(0, 0, 0), Chiplet(1, 1, 0),
                    Chiplet(2, 1, 1), Chiplet(3, 2, 0)]
        links = [
            Link(0, 1, length_mm=1.0), Link(1, 3, length_mm=1.0),
            Link(0, 2, length_mm=5.0), Link(2, 3, length_mm=5.0),
        ]
        topo = Topology("par", chiplets, links)
        assert topo.route(0, 3) == (0, 1, 3)


class TestAdjacency:
    def test_adj_holds_links_in_link_order(self):
        links = [Link(2, 0, 3.0), Link(0, 1, 3.0), Link(1, 2, 3.0, True)]
        topo = Topology("tri", [Chiplet(i, x=i, y=0) for i in range(3)],
                        links)
        assert [list(a) for a in topo.adj] == [[2, 1], [0, 2], [0, 1]]
        assert topo.adj[0][2] is topo.adj[2][0] is links[0]
        assert topo.adj[2][1].vertical
        # The order networkx gives a graph built from the same links.
        graph = nx_graph(topo)
        assert [list(graph.adj[u]) for u in graph] == [
            list(a) for a in topo.adj
        ]

    def test_reachable_matches_connected_components(self):
        # Floret's connectivity repair grows node 0's component.
        rng = random.Random(11)
        for trial in range(80):
            n = rng.randint(1, 40)
            graph = nx.gnp_random_graph(n, rng.choice([0.02, 0.06, 0.15]),
                                       seed=trial)
            adjacency = {u: list(graph.adj[u]) for u in graph}
            components = list(nx.connected_components(graph))
            assert reachable(adjacency, 0) == components[0]
            for part in components:
                start = min(part)
                assert reachable(adjacency, start) == part


class TestStructureMetrics:
    def test_port_histogram_line(self):
        topo = line_topology(4)
        assert topo.port_histogram() == {1: 2, 2: 2}

    def test_mean_ports(self):
        topo = line_topology(4)
        assert topo.mean_ports() == pytest.approx(2 * 3 / 4)

    def test_link_length_histogram(self):
        topo = line_topology(4)
        assert topo.link_length_histogram() == {1: 3}

    def test_total_link_length(self):
        assert line_topology(4).total_link_length_mm() == pytest.approx(9.0)

    def test_bisection_line(self):
        assert line_topology(4).bisection_links() == 1

    def test_noi_area_positive(self):
        assert line_topology(4).noi_area_mm2() > 0

    def test_multicast_flag_default_false(self):
        assert not line_topology(3).multicast_capable


class TestGridHelpers:
    @pytest.mark.parametrize(
        "n,expected",
        [(100, (10, 10)), (36, (6, 6)), (60, (10, 6)), (1, (1, 1))],
    )
    def test_grid_dimensions(self, n, expected):
        assert grid_dimensions(n) == expected

    def test_grid_dimensions_prime(self):
        cols, rows = grid_dimensions(17)
        assert cols * rows >= 17

    def test_grid_dimensions_invalid(self):
        with pytest.raises(ValueError):
            grid_dimensions(0)

    def test_grid_chiplets_positions_unique(self):
        chiplets = grid_chiplets(36)
        positions = {(c.x, c.y) for c in chiplets}
        assert len(positions) == 36

    def test_manhattan(self):
        a = Chiplet(0, 0, 0, 0)
        b = Chiplet(1, 2, 3, 1)
        assert a.manhattan_to(b) == 6

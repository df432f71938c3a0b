"""Property tests: cached routing tables vs the scalar route oracle.

Tables hold *minimal* routes identical to networkx Dijkstra for every
pair (the array replay that builds them is fuzzed against per-source
networkx and searches no graph through networkx), hop counts are
symmetric where the topology is undirected, every derived matrix
(pipeline, energy, length) agrees with the scalar per-route
computations, and a ``Topology.with_params`` view's tables equal a
fresh build under its params.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref
from dataclasses import fields, replace
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest

from repro.core.floret import build_floret
from repro.net.analytic import (
    path_pipeline_cycles,
    transfer_energy_pj,
    flits_for_bytes,
)
from repro.net.routing import (
    COST_PARAM_FIELDS,
    _dijkstra_levels,
    build_routing_tables,
    concat_ranges,
)
from repro.noi.kite import build_kite
from repro.noi.mesh import build_mesh
from repro.noi.swap import build_swap
from repro.noi.topology import Chiplet, Link, NoPathError, Topology
from repro.params import NoIParams

from helpers import nx_graph

FRESH_BUILDERS = {
    "siam": build_mesh,
    "kite": build_kite,
    "swap": build_swap,
    "floret": lambda n, params=None: build_floret(n, params=params).topology,
}

#: Digests of the route arrays of fresh default-parameter topologies,
#: as produced by a reference builder that walked networkx Dijkstra
#: path dicts pair by pair in Python.  The array walk reproduces them.
BUILDER_DIGESTS = {
    ("siam", 16): "9c7627807272f48f",
    ("siam", 64): "e7845d71d8c47f59",
    ("kite", 16): "420a0826bdd93427",
    ("kite", 64): "09901e9547702140",
    ("swap", 16): "a2389b713d2c2ea2",
    ("swap", 64): "22bd8499742aa1a3",
    ("floret", 16): "a038ac02b331a206",
    ("floret", 64): "79dbe0f308aee992",
}
#: The same digests at benchmark scale, where equal-cost ties are most
#: common, from the per-source networkx table builder.
BENCHMARK_DIGESTS = {
    ("siam", 256): "114dfd85671ab557",
    ("kite", 256): "3f94bd9a51251ed2",
    ("floret", 256): "2178dd9432057d42",
    ("swap", 100): "5fb579ec67dddb09",
}
DIGESTED = (
    "hops", "pipeline_cycles", "route_router_energy_pj_per_flit",
    "route_link_energy_pj_per_flit", "route_length_mm",
    "route_indptr", "route_links",
)


@lru_cache(maxsize=None)
def _fresh(arch, n):
    return FRESH_BUILDERS[arch](n)


def _table_digest(tables):
    h = hashlib.sha256()
    for name in DIGESTED:
        arr = np.ascontiguousarray(getattr(tables, name))
        h.update(f"{name}:{arr.dtype}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _oracle_route(graph, src, dst):
    if src == dst:
        return (src,)
    return tuple(nx.dijkstra_path(
        graph, src, dst, weight=lambda u, v, e: 1.0 + 1e-6 * e["length_mm"]
    ))


def _weight(u, v, data):
    return 1.0 + 1e-6 * data["length_mm"]


def _networkx_parents(graph, n):
    """Per-source networkx Dijkstra: the oracle of the table replay.

    ``(parent, hops, dist)`` over (source, node): the node's
    predecessor in the source's tree (-1 for the source itself), its
    hop count and its distance; -1 parent and hops and ``inf``
    distance where the node is unreachable.
    """
    parent = np.full((n, n), -1, dtype=np.int64)
    hops = np.full((n, n), -1, dtype=np.int64)
    dist = np.full((n, n), np.inf)
    for s in range(n):
        lengths, paths = nx.single_source_dijkstra(graph, s, weight=_weight)
        for d, path in paths.items():
            hops[s, d] = len(path) - 1
            dist[s, d] = lengths[d]
            if d != s:
                parent[s, d] = path[-2]
    return parent, hops, dist


def _link_adjacency(graph):
    """A networkx graph's adjacency as ``Topology.adj``: ``adj[u][v]`` is
    a :class:`Link`, neighbours in the graph's order."""
    return {
        u: {v: Link(u, v, data["length_mm"]) for v, data in nbrs.items()}
        for u, nbrs in graph.adj.items()
    }


def _replay_parents(adj):
    """``(parent, hops)`` of :func:`_dijkstra_levels`, as the oracle's."""
    n = len(adj)
    parent = np.full(n * n, -1, dtype=np.int64)
    hops = np.full(n * n, -1, dtype=np.int64)
    hops[::n + 1] = 0
    for h, (pair, prev, _row) in enumerate(_dijkstra_levels(adj), 1):
        parent[pair] = prev
        hops[pair] = h
    return parent.reshape(n, n), hops.reshape(n, n)


def _assert_tables_equal(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def _sample_pairs(n, rng, count=60):
    src = rng.integers(0, n, count)
    dst = rng.integers(0, n, count)
    keep = src != dst
    return src[keep], dst[keep]


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


class TestTableStructure:
    def test_memoized_on_topology(self, small_mesh):
        assert small_mesh.routing_tables() is small_mesh.routing_tables()

    def test_directed_links_double_undirected(self, small_mesh):
        t = small_mesh.routing_tables()
        assert t.num_directed_links == 2 * small_mesh.num_links

    def test_hops_diagonal_zero(self, small_kite):
        t = small_kite.routing_tables()
        assert np.all(np.diag(t.hops) == 0)

    def test_concat_ranges(self):
        out = concat_ranges(np.array([5, 0, 9]), np.array([2, 0, 3]))
        assert out.tolist() == [5, 6, 9, 10, 11]
        assert concat_ranges(np.array([], dtype=int),
                             np.array([], dtype=int)).size == 0


class TestMinimalRoutes:
    @pytest.mark.parametrize("fixture", [
        "small_mesh", "small_kite", "small_swap",
    ])
    def test_hops_are_graph_minimal(self, fixture, request):
        topo = request.getfixturevalue(fixture)
        t = topo.routing_tables()
        truth = dict(nx.all_pairs_shortest_path_length(nx_graph(topo)))
        n = topo.num_chiplets
        for s in range(0, n, 7):
            for d in range(n):
                assert t.hops[s, d] == truth[s][d]

    def test_floret_hops_minimal(self, small_floret):
        topo = small_floret.topology
        t = topo.routing_tables()
        truth = dict(nx.all_pairs_shortest_path_length(nx_graph(topo)))
        for s in range(0, topo.num_chiplets, 5):
            for d in range(topo.num_chiplets):
                assert t.hops[s, d] == truth[s][d]

    @pytest.mark.parametrize("fixture", [
        "small_mesh", "small_kite", "small_swap",
    ])
    def test_hops_symmetric_on_undirected_topologies(self, fixture, request):
        t = request.getfixturevalue(fixture).routing_tables()
        assert np.array_equal(t.hops, t.hops.T)

    def test_route_lengths_match_hops(self, small_mesh):
        t = small_mesh.routing_tables()
        counts = (t.route_indptr[1:] - t.route_indptr[:-1]).reshape(
            t.num_nodes, t.num_nodes
        )
        assert np.array_equal(counts, np.maximum(t.hops, 0))


class TestScalarAgreement:
    def test_routes_identical_to_scalar(self, small_swap, rng):
        t = small_swap.routing_tables()
        for s, d in zip(*_sample_pairs(small_swap.num_chiplets, rng)):
            assert t.route_nodes(int(s), int(d)) == small_swap.route(
                int(s), int(d)
            )

    def test_route_links_are_contiguous_walks(self, small_kite, rng):
        t = small_kite.routing_tables()
        for s, d in zip(*_sample_pairs(small_kite.num_chiplets, rng)):
            links = t.route_link_ids(int(s), int(d))
            assert t.link_u[links[0]] == s
            assert t.link_v[links[-1]] == d
            assert np.array_equal(t.link_v[links[:-1]], t.link_u[links[1:]])

    @pytest.mark.parametrize("fixture", [
        "small_mesh", "small_kite", "small_swap",
    ])
    def test_pipeline_matches_scalar(self, fixture, request, rng):
        topo = request.getfixturevalue(fixture)
        t = topo.routing_tables()
        for s, d in zip(*_sample_pairs(topo.num_chiplets, rng)):
            assert t.pipeline_cycles[s, d] == path_pipeline_cycles(
                topo, int(s), int(d)
            )

    def test_energy_per_flit_matches_scalar(self, small_mesh, rng):
        t = small_mesh.routing_tables()
        payload = 640
        flits = flits_for_bytes(payload, small_mesh.params)
        for s, d in zip(*_sample_pairs(small_mesh.num_chiplets, rng)):
            scalar = transfer_energy_pj(small_mesh, int(s), int(d), payload)
            table = flits * float(
                t.route_router_energy_pj_per_flit[s, d]
                + t.route_link_energy_pj_per_flit[s, d]
            )
            assert table == pytest.approx(scalar, rel=1e-9)

    def test_route_length_matches_scalar(self, small_swap, rng):
        t = small_swap.routing_tables()
        for s, d in zip(*_sample_pairs(small_swap.num_chiplets, rng, 30)):
            assert t.route_length_mm[s, d] == pytest.approx(
                small_swap.path_length_mm(int(s), int(d)), rel=1e-9
            )

    def test_tables_respect_existing_route_cache(self):
        chiplets = [Chiplet(i, x=i % 3, y=i // 3) for i in range(6)]
        links = [Link(i, i + 1, length_mm=3.0) for i in range(5)]
        topo = Topology("line6", chiplets, links)
        before = topo.route(0, 5)
        t = topo.routing_tables()
        assert t.route_nodes(0, 5) == before
        assert topo.route(0, 5) == before


class TestVerticalLinks:
    def test_vertical_energy_and_flags(self):
        chiplets = [Chiplet(0, 0, 0, z=0), Chiplet(1, 0, 0, z=1)]
        links = [Link(0, 1, length_mm=0.1, vertical=True)]
        topo = Topology("stack2", chiplets, links)
        t = topo.routing_tables()
        assert bool(t.link_vertical[0]) and bool(t.link_vertical[1])
        scalar = transfer_energy_pj(topo, 0, 1, 64)
        flits = flits_for_bytes(64, topo.params)
        table = flits * float(t.energy_pj_per_flit(
            np.array([0]), np.array([1])
        )[0])
        assert table == pytest.approx(scalar, rel=1e-9)


class TestUnreachable:
    def test_disconnected_pairs_marked(self):
        chiplets = [Chiplet(i, x=i, y=0) for i in range(4)]
        links = [Link(0, 1, length_mm=3.0), Link(2, 3, length_mm=3.0)]
        topo = Topology("split", chiplets, links)
        t = topo.routing_tables()
        assert t.hops[0, 2] == -1
        with pytest.raises(NoPathError):
            t.check_reachable(np.array([0]), np.array([2]), "split")

    def test_topology_hops_uses_tables(self):
        chiplets = [Chiplet(i, x=i, y=0) for i in range(4)]
        links = [Link(0, 1, length_mm=3.0), Link(2, 3, length_mm=3.0)]
        topo = Topology("split", chiplets, links)
        topo.routing_tables()
        assert topo.hops(0, 1) == 1
        with pytest.raises(NoPathError):
            topo.hops(0, 3)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("arch", sorted(FRESH_BUILDERS))
class TestRouteOracle:
    """Every pair against networkx, the arrays against pinned digests."""

    def test_every_route_is_the_dijkstra_path(self, arch, n):
        topo = _fresh(arch, n)
        t = topo.routing_tables()
        graph = nx_graph(topo)
        for s in range(n):
            for d in range(n):
                assert t.route_nodes(s, d) == _oracle_route(graph, s, d)

    def test_arrays_match_previous_builder(self, arch, n):
        tables = _fresh(arch, n).routing_tables()
        assert _table_digest(tables) == BUILDER_DIGESTS[(arch, n)]

    def test_topology_route_with_and_without_tables(self, arch, n):
        built = _fresh(arch, n)
        bare = Topology(built.name, built.chiplets, built.links, built.params)
        pairs = [(s, d) for s in range(0, n, max(1, n // 8))
                 for d in range(n)]
        graph = nx_graph(bare)
        oracle = [_oracle_route(graph, s, d) for s, d in pairs]
        assert [bare.route(s, d) for s, d in pairs] == oracle
        bare.routing_tables()
        assert [bare.route(s, d) for s, d in pairs] == oracle


#: Length sets for the replay fuzz.  Equal lengths tie exactly; decimal
#: lengths also tie *inexactly* (``w(0.1) + w(0.2)`` vs ``w(0.3) +
#: w(0.0)``, or the same links summed in another order), where only the
#: exact float comparison networkx makes picks the predecessor.
FUZZ_LENGTHS = (
    (1.0,),
    (0.0, 0.5, 1.0),
    (0.0, 0.1, 0.2, 0.3),
    (0.1, 0.2, 0.3, 0.4, 0.7, 1.1),
    None,  # uniform random: few ties
)


def _fuzz_graph(seed):
    """A random graph with shuffled node and edge insertion order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41)) if seed % 10 else 1 + seed % 3
    lengths = FUZZ_LENGTHS[seed % len(FUZZ_LENGTHS)]
    edges = set()
    for _ in range(int(rng.integers(0, 3 * n + 1)) if n > 1 else 0):
        u, v = map(int, rng.choice(n, 2, replace=False))
        edges.add((min(u, v), max(u, v)))
    # Adjacency order is part of networkx's tie rule: shuffle it.
    edges = [e if rng.random() < 0.5 else e[::-1] for e in sorted(edges)]
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(rng.permutation(n).tolist())
    for u, v in edges:
        length = (float(rng.uniform(0.0, 5.0)) if lengths is None
                  else float(rng.choice(lengths)))
        graph.add_edge(u, v, length_mm=length)
    return graph, n


class TestDijkstraReplay:
    """:func:`_dijkstra_levels` against per-source networkx Dijkstra."""

    def test_differential_fuzz(self):
        seen = dict(single=0, disconnected=0, exact_ties=0, inexact_ties=0)
        for seed in range(320):
            graph, n = _fuzz_graph(seed)
            parent, hops, dist = _networkx_parents(graph, n)
            got_parent, got_hops = _replay_parents(_link_adjacency(graph))
            assert np.array_equal(got_parent, parent), seed
            assert np.array_equal(got_hops, hops), seed
            # Coverage: what made this graph a hard case.
            seen["single"] += n == 1
            seen["disconnected"] += bool((hops < 0).any())
            if graph.number_of_edges():
                tail, head, data = zip(*graph.edges(data=True))
                tail, head = tail + head, head + tail
                w = np.array([_weight(0, 0, d) for d in data] * 2)
                with np.errstate(invalid="ignore"):
                    slack = dist[:, tail] + w - dist[:, head]
                tight = (slack == 0).astype(np.int64)
                per_pair = np.zeros((n, n), dtype=np.int64)
                np.add.at(per_pair, (slice(None), list(head)), tight)
                seen["exact_ties"] += int((per_pair > 1).sum())
                seen["inexact_ties"] += int(
                    ((slack != 0) & (np.abs(slack) < 1e-12)).sum()
                )
        assert seen["single"] >= 10 and seen["disconnected"] >= 100, seen
        assert seen["exact_ties"] >= 5000 and seen["inexact_ties"] >= 500, seen

    def test_long_links_rejected(self):
        graph = nx.path_graph(3)
        nx.set_edge_attributes(graph, 3e5, "length_mm")
        with pytest.raises(ValueError, match="minimum-hop"):
            list(_dijkstra_levels(_link_adjacency(graph)))


@pytest.mark.parametrize("arch,n", sorted(BENCHMARK_DIGESTS))
def test_benchmark_scale_matches_networkx(arch, n):
    """Full parent matrix and table digest at the sizes perfbench runs."""
    topo = FRESH_BUILDERS[arch](n)
    parent, hops, _dist = _networkx_parents(nx_graph(topo), n)
    got_parent, got_hops = _replay_parents(topo.adj)
    assert np.array_equal(got_parent, parent)
    assert np.array_equal(got_hops, hops)
    assert _table_digest(build_routing_tables(topo)) == \
        BENCHMARK_DIGESTS[(arch, n)]


def test_tables_build_without_networkx_search(monkeypatch):
    """Tables, and the routes and hops read from them, search no graph."""
    fresh = {arch: build(16) for arch, build in FRESH_BUILDERS.items()}

    def searched(*args, **kwargs):
        raise AssertionError("networkx search on the table path")

    for name in ("single_source_dijkstra", "dijkstra_path",
                 "single_source_shortest_path_length"):
        monkeypatch.setattr(nx, name, searched)
    for arch, topo in fresh.items():
        assert _table_digest(build_routing_tables(topo)) == \
            BUILDER_DIGESTS[(arch, 16)]
        topo.routing_tables()
        assert len(topo.route(0, 15)) == topo.hops(0, 15) + 1


#: Changes every cost class: router stage depth, wire delay, link energy.
COSTLY = NoIParams(router_pipeline_cycles=3, mm_per_cycle=1.5,
                   link_energy_pj_per_flit_mm=0.6)


class TestParamsView:
    @pytest.mark.parametrize("arch", sorted(FRESH_BUILDERS))
    def test_view_equals_fresh_build(self, arch):
        base = FRESH_BUILDERS[arch](16)
        view = base.with_params(COSTLY)
        assert view.adj is base.adj
        fresh = build_routing_tables(FRESH_BUILDERS[arch](16, params=COSTLY))
        tables = view.routing_tables()
        _assert_tables_equal(tables, fresh)
        index, ref = tables.queue_index(), fresh.queue_index()
        for f in fields(index):
            assert np.array_equal(getattr(index, f.name),
                                  getattr(ref, f.name)), f.name

    def test_fc_and_sim_only_view_shares_tables(self, small_kite):
        tables = small_kite.routing_tables()
        view = small_kite.with_params(replace(
            small_kite.params, fc_buffer_flits=8, fc_credit_rtt=3,
            sim_engine="events", sim_attribution=True, flit_bytes=16,
            packet_bytes=128,
        ))
        assert view is not small_kite
        assert view.routing_tables() is tables
        assert view.routing_tables().queue_index() is tables.queue_index()

    def test_cost_views_keep_their_tables_off_the_base(self):
        """The base holds one table object however many views derive."""
        base = build_mesh(16)
        own = base.routing_tables()
        freed = []
        for cycles in range(2, 8):
            view = base.with_params(
                replace(COSTLY, router_pipeline_cycles=cycles)
            )
            tables = view.routing_tables()
            assert tables is not own
            freed.append(weakref.ref(tables))
            del view, tables
        gc.collect()
        assert base.routing_tables() is own
        assert [ref() for ref in freed] == [None] * len(freed)

    def test_equal_params_is_identity(self, small_mesh):
        assert small_mesh.with_params(NoIParams()) is small_mesh

    def test_pitch_change_rejected(self, small_mesh):
        with pytest.raises(ValueError, match="chiplet_pitch_mm"):
            small_mesh.with_params(NoIParams(chiplet_pitch_mm=6.0))

    def test_view_routes_from_base_tables(self):
        base = build_mesh(16)
        view = base.with_params(replace(COSTLY, fc_buffer_flits=8))
        # Routes read the graph only: the view needs no tables of its
        # own, even when it asks before its base has built any.
        route = view.route(0, 15)
        tables = base._routing_tables
        assert route == tables.route_nodes(0, 15)
        assert view.hops(0, 15) == tables.hops[0, 15]
        assert view.is_connected() and view.diameter_hops() == 6
        assert view._routing_tables is None

    @pytest.mark.parametrize("name", sorted(
        f.name for f in fields(NoIParams)
        if f.name not in COST_PARAM_FIELDS + ("chiplet_pitch_mm",)
    ))
    def test_other_fields_leave_tables_unchanged(self, name):
        """Pins :data:`COST_PARAM_FIELDS` as everything the tables read."""
        value = getattr(NoIParams(), name)
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, str):
            changed = "events"
        elif value is None:
            changed = 8
        else:
            changed = value * 2 + 1
        params = replace(NoIParams(), **{name: changed})
        _assert_tables_equal(
            build_routing_tables(build_kite(16, params=params)),
            build_routing_tables(build_kite(16)),
        )


def test_tables_keep_no_per_pair_python_objects():
    """The tables are arrays: no Python object per (src, dst) pair."""
    topo = build_kite(144)
    n = topo.num_chiplets
    gc.collect()
    tracemalloc.start()
    try:
        topo.routing_tables()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live_blocks = sum(s.count for s in snapshot.statistics("filename"))
    assert live_blocks < n * n // 8

"""Property tests: cached routing tables vs the scalar route oracle.

Tables hold *minimal* routes identical to networkx Dijkstra for every
pair, hop counts are symmetric where the topology is undirected, every
derived matrix (pipeline, energy, length) agrees with the scalar
per-route computations, and a ``Topology.with_params`` view's tables
equal a fresh build under its params.
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
    build_routing_tables,
    concat_ranges,
)
from repro.noi.kite import build_kite
from repro.noi.mesh import build_mesh
from repro.noi.swap import build_swap
from repro.noi.topology import Chiplet, Link, Topology
from repro.params import NoIParams

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
        truth = dict(nx.all_pairs_shortest_path_length(topo.graph))
        n = topo.num_chiplets
        for s in range(0, n, 7):
            for d in range(n):
                assert t.hops[s, d] == truth[s][d]

    def test_floret_hops_minimal(self, small_floret):
        topo = small_floret.topology
        t = topo.routing_tables()
        truth = dict(nx.all_pairs_shortest_path_length(topo.graph))
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
        with pytest.raises(nx.NetworkXNoPath):
            t.check_reachable(np.array([0]), np.array([2]), "split")

    def test_topology_hops_uses_tables(self):
        chiplets = [Chiplet(i, x=i, y=0) for i in range(4)]
        links = [Link(0, 1, length_mm=3.0), Link(2, 3, length_mm=3.0)]
        topo = Topology("split", chiplets, links)
        topo.routing_tables()
        assert topo.hops(0, 1) == 1
        with pytest.raises(nx.NetworkXNoPath):
            topo.hops(0, 3)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("arch", sorted(FRESH_BUILDERS))
class TestRouteOracle:
    """Every pair against networkx, the arrays against pinned digests."""

    def test_every_route_is_the_dijkstra_path(self, arch, n):
        topo = _fresh(arch, n)
        t = topo.routing_tables()
        for s in range(n):
            for d in range(n):
                assert t.route_nodes(s, d) == _oracle_route(topo.graph, s, d)

    def test_arrays_match_previous_builder(self, arch, n):
        tables = _fresh(arch, n).routing_tables()
        assert _table_digest(tables) == BUILDER_DIGESTS[(arch, n)]

    def test_topology_route_with_and_without_tables(self, arch, n):
        built = _fresh(arch, n)
        bare = Topology(built.name, built.chiplets, built.links, built.params)
        pairs = [(s, d) for s in range(0, n, max(1, n // 8))
                 for d in range(n)]
        oracle = [_oracle_route(bare.graph, s, d) for s, d in pairs]
        assert [bare.route(s, d) for s, d in pairs] == oracle
        bare.routing_tables()
        assert [bare.route(s, d) for s, d in pairs] == oracle


#: Changes every cost class: router stage depth, wire delay, link energy.
COSTLY = NoIParams(router_pipeline_cycles=3, mm_per_cycle=1.5,
                   link_energy_pj_per_flit_mm=0.6)


class TestParamsView:
    @pytest.mark.parametrize("arch", sorted(FRESH_BUILDERS))
    def test_view_equals_fresh_build(self, arch):
        base = FRESH_BUILDERS[arch](16)
        view = base.with_params(COSTLY)
        assert view.graph is base.graph
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
        tables = base.routing_tables()
        view = base.with_params(replace(COSTLY, fc_buffer_flits=8))
        # Routes read the graph only: the view needs no tables of its own.
        assert view.route(0, 15) == tables.route_nodes(0, 15)
        assert view.hops(0, 15) == tables.hops[0, 15]
        assert view._routing_tables is None and not view._path_cache

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

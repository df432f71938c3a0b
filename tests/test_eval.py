"""Tests for the evaluation harness (light drivers only).

The heavyweight drivers (Figs. 3-7) run in `benchmarks/`; here we check
the cheap drivers' structure and the harness caching, plus the extension
experiments on reduced configurations.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.eval import (
    exp_cost,
    exp_eq1_headtail,
    exp_fig2a,
    exp_fig2b,
    exp_sec2_skip_traffic,
    exp_sec4_transformer,
    exp_table1,
    exp_table2,
    floret_design,
    mapper_for,
    topology_for,
)
from repro.eval.extensions import (
    _count_disconnecting_links,
    exp_hetero_transformer,
    exp_redundancy,
)
from repro.noi.topology import Link, Topology, grid_chiplets

from helpers import nx_graph


class TestBuilders:
    def test_topology_cached(self):
        assert topology_for("siam") is topology_for("siam")

    def test_floret_design_cached(self):
        assert floret_design() is floret_design()

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            topology_for("hypercube")

    def test_mapper_kinds(self):
        from repro.core.mapping import ContiguousMapper, GreedyMapper

        assert isinstance(mapper_for("floret"), ContiguousMapper)
        assert isinstance(mapper_for("siam"), GreedyMapper)


class TestLightDrivers:
    def test_table1(self):
        assert len(exp_table1()) == 13

    def test_table2(self):
        rows = exp_table2()
        assert [r.mix_name for r in rows] == [
            "WL1", "WL2", "WL3", "WL4", "WL5"
        ]

    def test_fig2a_has_all_archs(self):
        hists = exp_fig2a()
        assert set(hists) == {"floret", "kite", "siam", "swap"}

    def test_fig2b_link_ordering(self):
        summaries = exp_fig2b()
        assert (
            summaries["kite"].num_links
            > summaries["siam"].num_links
            > summaries["swap"].num_links
            > summaries["floret"].num_links
        )

    def test_cost_floret_cheapest(self):
        table = exp_cost()
        assert all(
            row["relative_cost"] >= 1.0 for row in table.values()
        )

    def test_eq1_rows(self):
        rows = exp_eq1_headtail(petal_counts=(2, 4))
        assert len(rows) == 2
        assert all(r.improvement >= 1.0 for r in rows)

    def test_skip_traffic(self):
        rows = exp_sec2_skip_traffic()
        assert rows[0].model_name == "resnet34/imagenet"

    def test_sec4_rows(self):
        rows = exp_sec4_transformer()
        names = [r.config_name for r in rows]
        assert names == ["bert-tiny", "bert-base"]


class TestExtensions:
    def test_redundancy_small(self):
        rows = exp_redundancy(36)
        by_label = {r.label: r for r in rows}
        assert by_label["floret-1sfc"].survival_fraction == 0.0
        assert (
            by_label["floret-6sfc"].survival_fraction
            > by_label["floret-1sfc"].survival_fraction
        )

    def test_bridge_count_matches_networkx(self):
        rng = random.Random(3)
        for trial in range(60):
            n = rng.randint(1, 40)
            graph = nx.gnp_random_graph(n, rng.choice([0.03, 0.08, 0.2]),
                                        seed=trial)
            topo = Topology("random", grid_chiplets(n),
                            [Link(u, v, 1.0) for u, v in graph.edges()])
            assert _count_disconnecting_links(topo) == sum(
                1 for _ in nx.bridges(graph)), trial
        for arch in ("floret", "siam", "swap"):
            topo = topology_for(arch, 100)
            assert _count_disconnecting_links(topo) == sum(
                1 for _ in nx.bridges(nx_graph(topo))), arch

    def test_hetero_rows(self):
        rows = exp_hetero_transformer()
        assert all(r.speedup > 1.0 for r in rows)

"""Unit tests: the Floret NoI builder."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.floret import build_floret
from repro.core.sfc import single_sfc_curve


#: Digests of ``(links, top_level_links, fallback_links)`` per
#: ``(num_chiplets, petals, top_level_max_hops)``, recorded when the
#: connectivity repair still ran on networkx's ``connected_components``.
#: All but the defaults need repair links.
FLORET_LINK_DIGESTS = {
    (16, 8, 1): "30be1b5ec1b5a3ec",
    (36, 8, 1): "6788a461cc277139",
    (100, 4, 1): "aee773954dacab73",
    (256, 4, 1): "1b6ac26f8c06bc5f",
    (100, 6, 3): "68c09ddae7b22a0c",
    (256, 6, 3): "40e43a413878d2f7",
}


@pytest.mark.parametrize("n,petals,hops", sorted(FLORET_LINK_DIGESTS))
def test_links_match_recorded_digests(n, petals, hops):
    design = build_floret(n, petals, top_level_max_hops=hops)
    links = [(l.u, l.v, l.length_mm, l.vertical)
             for l in design.topology.links]
    digest = hashlib.sha256(repr(
        (links, design.top_level_links, design.fallback_links)
    ).encode()).hexdigest()[:16]
    assert digest == FLORET_LINK_DIGESTS[(n, petals, hops)]


class TestFloretDesign:
    def test_connected(self, small_floret):
        assert small_floret.topology.is_connected()

    def test_multicast_capable(self, small_floret):
        assert small_floret.topology.multicast_capable

    def test_allocation_order_is_permutation(self, small_floret):
        order = small_floret.allocation_order
        assert sorted(order) == list(range(36))

    def test_mostly_two_port_routers(self, small_floret):
        hist = small_floret.topology.port_histogram()
        assert hist.get(2, 0) >= 0.7 * sum(hist.values())

    def test_heads_tails_exist(self, small_floret):
        assert len(small_floret.head_indices()) == 4
        assert len(small_floret.tail_indices()) == 4

    def test_intra_petal_links_single_hop(self, small_floret):
        design = small_floret
        top_level = set()
        for u, v in design.top_level_links:
            top_level.add((min(u, v), max(u, v)))
        for link in design.topology.links:
            key = (min(link.u, link.v), max(link.u, link.v))
            if key not in top_level:
                pitch = design.topology.params.chiplet_pitch_mm
                assert link.length_mm == pytest.approx(pitch)

    def test_top_level_within_hop_budget(self):
        design = build_floret(100, 6, top_level_max_hops=3)
        pitch = design.topology.params.chiplet_pitch_mm
        lengths = {
            (min(u, v), max(u, v)) for u, v in design.top_level_links
        }
        for link in design.topology.links:
            key = (min(link.u, link.v), max(link.u, link.v))
            if key in lengths and key not in {
                (min(a, b), max(a, b)) for a, b in design.fallback_links
            }:
                assert link.length_mm <= 3 * pitch + 1e-9

    def test_100_chiplet_reference_shape(self):
        design = build_floret(100, 6)
        hist = design.topology.port_histogram()
        assert max(hist, key=hist.get) == 2
        assert design.topology.num_links < 120

    def test_custom_curve(self):
        curve = single_sfc_curve(6, 6)
        design = build_floret(36, curve=curve)
        assert design.curve.num_petals == 1
        # Pure chain: exactly n-1 links, no top-level.
        assert design.topology.num_links == 35
        assert design.top_level_links == ()

    def test_invalid_chiplet_count(self):
        with pytest.raises(ValueError):
            build_floret(17, 6)

    def test_chiplet_positions_match_curve(self, small_floret):
        for cell, index in small_floret.cell_to_index.items():
            chiplet = small_floret.topology.chiplet(index)
            assert (chiplet.x, chiplet.y) == cell

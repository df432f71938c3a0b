"""Equivalence tests: vectorized engine vs the scalar reference oracles.

The satellite requirement: the batched NumPy engine must match the
scalar analytic model within 1e-9 *relative* tolerance across mesh
(SIAM), Kite, SWAP and Floret topologies and random traffic matrices.
Integer metrics (latencies, flit and packet counts) must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.analytic import (
    CommReport,
    _unicast_step_cost,
    communication_cost,
    multicast_step_cost,
)
from repro.net.vectorized import (
    communication_cost_vec,
    multicast_step_cost_steps,
    multicast_step_cost_vec,
    traffic_matrix_cost,
    traffic_matrix_to_transfers,
    transfers_to_arrays,
    unicast_step_cost_vec,
)

TOPOLOGY_FIXTURES = ("small_mesh", "small_kite", "small_swap",
                     "small_floret")


def _topology(request, fixture):
    topo = request.getfixturevalue(fixture)
    # The floret fixture yields the whole design; the rest are topologies.
    return topo.topology if fixture == "small_floret" else topo


def _random_transfers(n, rng, count=300, max_payload=4096):
    return [
        (int(s), int(d), int(p))
        for s, d, p in zip(
            rng.integers(0, n, count),
            rng.integers(0, n, count),
            rng.integers(0, max_payload, count),
        )
    ]


def _random_groups(n, rng, count=50, max_payload=4096):
    return [
        (
            int(rng.integers(0, n)),
            tuple(int(d) for d in rng.integers(0, n, int(rng.integers(1, 6)))),
            int(rng.integers(0, max_payload)),
        )
        for _ in range(count)
    ]


def assert_reports_equal(scalar: CommReport, vec: CommReport) -> None:
    # Integer accounting must be exact.
    assert vec.latency_cycles == scalar.latency_cycles
    assert vec.serial_latency_cycles == scalar.serial_latency_cycles
    assert vec.total_flits == scalar.total_flits
    assert vec.packet_count == scalar.packet_count
    assert vec.packet_latency_sum == scalar.packet_latency_sum
    assert vec.payload_volume == scalar.payload_volume
    # Float sums may reassociate: 1e-9 relative tolerance.
    assert vec.energy_pj == pytest.approx(scalar.energy_pj, rel=1e-9)
    assert vec.weighted_hops == pytest.approx(scalar.weighted_hops, rel=1e-9)
    assert vec.mean_packet_latency == pytest.approx(
        scalar.mean_packet_latency, rel=1e-9
    )


class TestCommunicationCost:
    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_on_random_transfers(self, fixture, seed,
                                                request):
        topo = _topology(request, fixture)
        rng = np.random.default_rng(seed)
        transfers = _random_transfers(topo.num_chiplets, rng)
        assert_reports_equal(
            communication_cost(topo, transfers),
            communication_cost_vec(topo, transfers),
        )

    def test_empty_transfer_set(self, small_mesh):
        assert_reports_equal(
            communication_cost(small_mesh, []),
            communication_cost_vec(small_mesh, []),
        )

    def test_self_and_zero_payload_filtered(self, small_mesh):
        transfers = [(3, 3, 512), (4, 5, 0), (4, 5, 64)]
        assert_reports_equal(
            communication_cost(small_mesh, transfers),
            communication_cost_vec(small_mesh, transfers),
        )

    def test_accepts_numpy_array_input(self, small_mesh):
        arr = np.array([[0, 5, 256], [7, 2, 1024]], dtype=np.int64)
        assert_reports_equal(
            communication_cost(small_mesh, [tuple(r) for r in arr.tolist()]),
            communication_cost_vec(small_mesh, arr),
        )


class TestTrafficMatrix:
    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_matrix_equals_scalar_transfer_list(self, fixture, request):
        topo = _topology(request, fixture)
        n = topo.num_chiplets
        rng = np.random.default_rng(9)
        matrix = rng.integers(0, 2048, (n, n))
        matrix[rng.random((n, n)) < 0.6] = 0
        transfers = [
            (s, d, int(matrix[s, d]))
            for s in range(n) for d in range(n)
        ]
        assert_reports_equal(
            communication_cost(topo, transfers),
            traffic_matrix_cost(topo, matrix),
        )

    def test_matrix_must_be_square(self, small_mesh):
        with pytest.raises(ValueError):
            traffic_matrix_cost(small_mesh, np.zeros((3, 4)))

    def test_matrix_to_transfers_drops_zeros(self):
        m = np.zeros((4, 4), dtype=np.int64)
        m[0, 1] = 7
        m[2, 2] = 9  # diagonal: dropped later by transfers_to_arrays
        out = traffic_matrix_to_transfers(m)
        src, dst, payload = transfers_to_arrays(out)
        assert src.tolist() == [0] and dst.tolist() == [1]
        assert payload.tolist() == [7]


class TestStepCost:
    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_multicast_step_matches_scalar(self, fixture, seed, request):
        topo = _topology(request, fixture)
        rng = np.random.default_rng(seed)
        groups = _random_groups(topo.num_chiplets, rng)
        assert_reports_equal(
            multicast_step_cost(topo, groups),
            multicast_step_cost_vec(topo, groups),
        )

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_unicast_step_vec_matches_scalar(self, fixture, seed, request):
        # Random transfers include self-transfers, which both skip.
        topo = _topology(request, fixture)
        rng = np.random.default_rng(seed)
        transfers = _random_transfers(topo.num_chiplets, rng)
        assert_reports_equal(
            _unicast_step_cost(topo, transfers),
            unicast_step_cost_vec(topo, transfers),
        )

    def test_unicast_step_vec_empty(self, small_kite):
        transfers = [(2, 2, 512), (3, 4, 0)]
        for case in ([], transfers):
            assert_reports_equal(
                _unicast_step_cost(small_kite, case),
                unicast_step_cost_vec(small_kite, case),
            )

    def test_floret_uses_tree_semantics(self, small_floret):
        topo = small_floret.topology
        assert topo.multicast_capable
        groups = [(0, (1, 2, 3, 4), 640)]
        tree = multicast_step_cost_vec(topo, groups)
        # Replicated unicasts inject strictly more flits than one tree.
        unicast = unicast_step_cost_vec(
            topo, [(0, d, 640) for d in (1, 2, 3, 4)]
        )
        assert tree.total_flits < unicast.total_flits
        assert tree.energy_pj < unicast.energy_pj

    def test_unicast_step_matches_scalar_on_mesh(self, small_mesh):
        rng = np.random.default_rng(5)
        groups = _random_groups(small_mesh.num_chiplets, rng)
        # Mesh is not multicast-capable: both engines must degenerate to
        # the replicated-unicast step model.
        assert not small_mesh.multicast_capable
        assert_reports_equal(
            multicast_step_cost(small_mesh, groups),
            multicast_step_cost_vec(small_mesh, groups),
        )

    def test_empty_step(self, small_kite):
        assert_reports_equal(
            multicast_step_cost(small_kite, []),
            multicast_step_cost_vec(small_kite, []),
        )


class TestMulticastBatching:
    """Cross-group batched trees vs the scalar per-group construction."""

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_batched_matches_pergroup(self, fixture, seed, request):
        topo = _topology(request, fixture)
        rng = np.random.default_rng(seed)
        groups = _random_groups(topo.num_chiplets, rng, count=80)
        assert_reports_equal(
            multicast_step_cost(topo, groups),
            multicast_step_cost_vec(topo, groups),
        )

    def test_overlapping_trees_share_link_load(self, small_floret):
        # Two groups from the same source over the same chain prefix:
        # the shared links must accumulate both groups' flits in the
        # batched construction as in the scalar oracle.
        topo = small_floret.topology
        groups = [(0, (1, 2, 3), 640), (0, (2, 3, 4), 320),
                  (5, (6, 7), 128)]
        assert_reports_equal(
            multicast_step_cost(topo, groups),
            multicast_step_cost_vec(topo, groups),
        )

    def test_degenerate_groups_only(self, small_floret):
        topo = small_floret.topology
        groups = [(3, (3,), 512), (4, (5, 6), 0), (7, (), 64)]
        assert_reports_equal(
            multicast_step_cost(topo, groups),
            multicast_step_cost_vec(topo, groups),
        )
        assert multicast_step_cost_vec(topo, groups).total_flits == 0

    def test_empty_groups_list(self, small_floret):
        topo = small_floret.topology
        assert_reports_equal(
            multicast_step_cost(topo, []),
            multicast_step_cost_vec(topo, []),
        )

    def test_unicast_degeneration_matches(self, small_mesh):
        rng = np.random.default_rng(9)
        groups = _random_groups(small_mesh.num_chiplets, rng, count=40)
        assert_reports_equal(
            multicast_step_cost(small_mesh, groups),
            multicast_step_cost_vec(small_mesh, groups),
        )


class TestMulticastSteps:
    """Step-segmented batching vs the scalar oracle per step.

    ``multicast_step_cost_steps`` on the concatenation of many steps'
    groups must equal the scalar ``multicast_step_cost`` applied to
    each step alone -- exactly on integer fields, 1e-9 on floats.
    """

    @staticmethod
    def _stepped_groups(n, rng, num_steps, count=80):
        groups = _random_groups(n, rng, count=count)
        steps = [int(s) for s in rng.integers(0, num_steps, count)]
        return groups, steps

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_perstep_vec(self, fixture, seed, request):
        topo = _topology(request, fixture)
        rng = np.random.default_rng(seed)
        num_steps = 7
        groups, steps = self._stepped_groups(
            topo.num_chiplets, rng, num_steps
        )
        reports = multicast_step_cost_steps(topo, groups, steps, num_steps)
        assert len(reports) == num_steps
        for s in range(num_steps):
            per_step = [g for g, st in zip(groups, steps) if st == s]
            assert_reports_equal(
                multicast_step_cost(topo, per_step), reports[s]
            )

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_empty_steps_get_zero_reports(self, fixture, request):
        topo = _topology(request, fixture)
        # Steps 0 and 3 stay empty; step 2 only has degenerate groups.
        groups = [
            (0, (1, 2), 512),
            (4, (4,), 256),
            (3, (5, 6), 0),
            (1, (2,), 128),
        ]
        steps = [1, 2, 2, 4]
        reports = multicast_step_cost_steps(topo, groups, steps, 5)
        for s in (0, 2, 3):
            assert reports[s].total_flits == 0
            assert reports[s].latency_cycles == 0
            assert reports[s].payload_volume == 0
        for s in (1, 4):
            per_step = [g for g, st in zip(groups, steps) if st == s]
            assert_reports_equal(
                multicast_step_cost(topo, per_step), reports[s]
            )

    def test_no_groups(self, small_floret):
        topo = small_floret.topology
        reports = multicast_step_cost_steps(topo, [], [], 4)
        assert len(reports) == 4
        assert all(r.total_flits == 0 for r in reports)
        assert multicast_step_cost_steps(topo, [], [], 0) == []

    def test_scalar_oracle_composition(self, small_floret):
        topo = small_floret.topology
        groups = [(0, (1, 2, 3), 640), (0, (2, 3, 4), 320),
                  (5, (6, 7), 128), (8, (9,), 64)]
        steps = [0, 1, 1, 2]
        reports = multicast_step_cost_steps(topo, groups, steps, 3)
        for s in range(3):
            per_step = [g for g, st in zip(groups, steps) if st == s]
            assert_reports_equal(
                multicast_step_cost(topo, per_step), reports[s]
            )

    def test_validation_errors(self, small_floret):
        topo = small_floret.topology
        groups = [(0, (1,), 64)]
        with pytest.raises(ValueError, match="entries"):
            multicast_step_cost_steps(topo, groups, [0, 1], 2)
        with pytest.raises(ValueError, match="step ids"):
            multicast_step_cost_steps(topo, groups, [3], 2)
        with pytest.raises(ValueError, match="step ids"):
            multicast_step_cost_steps(topo, groups, [-1], 2)
        with pytest.raises(ValueError, match="num_steps"):
            multicast_step_cost_steps(topo, groups, [0], -1)

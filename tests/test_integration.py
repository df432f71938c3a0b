"""Integration tests: whole-system flows on small configurations."""

from __future__ import annotations

import importlib

import pytest

from repro.core.floret import build_floret
from repro.core.mapping import ContiguousMapper, GreedyMapper
from repro.core.moo import MappingProblem, optimize_mapping
from repro.core.scheduler import SystemScheduler
from repro.noc3d.grid3d import build_floret_3d
from repro.noi.mesh import build_mesh
from repro.pim.accuracy import assess
from repro.thermal.power import weight_fractions_per_pe
from repro.workloads.tasks import DNNTask
from repro.workloads.zoo import build_model


def cifar_tasks():
    """A small heterogeneous queue (fits a 36-chiplet system)."""
    names = ["resnet18", "vgg11", "googlenet", "resnet18", "vgg19"]
    return [
        DNNTask(f"q{i}-{n}", n, build_model(n, "cifar10"))
        for i, n in enumerate(names)
    ]


@pytest.mark.parametrize("module", ["repro", "repro.eval", "repro.net"])
def test_every_export_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__
               if not hasattr(package, name)]
    assert missing == []


class TestEndToEnd25D:
    def test_floret_vs_mesh_full_flow(self):
        tasks = cifar_tasks()
        design = build_floret(36, 4)
        floret = SystemScheduler(
            design.topology,
            ContiguousMapper(design.allocation_order, design.topology),
        ).run(tasks)
        mesh = build_mesh(36)
        siam = SystemScheduler(mesh, GreedyMapper(mesh)).run(tasks)

        assert len(floret.completed) == len(siam.completed) == 5
        # Compute is identical on both systems; only the NoI differs.
        floret_compute = sorted(
            t.perf.compute_latency_cycles for t in floret.completed
        )
        siam_compute = sorted(
            t.perf.compute_latency_cycles for t in siam.completed
        )
        assert floret_compute == siam_compute
        # The dataflow-aware NoI is at least as energy-efficient.
        assert floret.total_noi_energy_pj <= siam.total_noi_energy_pj

    def test_tasks_never_overlap_chiplets(self):
        tasks = cifar_tasks() * 2
        design = build_floret(36, 4)
        result = SystemScheduler(
            design.topology,
            ContiguousMapper(design.allocation_order, design.topology),
        ).run(tasks)
        # Reconstruct occupancy over time: at any completed task's start,
        # its chiplets must not be held by any other task active then.
        for a in result.completed:
            for b in result.completed:
                if a is b:
                    continue
                overlap_time = (
                    a.start_cycle < b.finish_cycle
                    and b.start_cycle < a.finish_cycle
                )
                if overlap_time:
                    assert not (
                        set(a.placement.chiplet_ids)
                        & set(b.placement.chiplet_ids)
                    )


class TestEndToEnd3D:
    def test_moo_to_accuracy_pipeline(self):
        design = build_floret_3d(36, 4)
        problem = MappingProblem(design, build_model("resnet18", "cifar10"))
        result = optimize_mapping(problem, population_size=10,
                                  generations=4, seed=3)
        n = design.topology.num_chiplets
        for cand in (result.performance_only, result.joint):
            thermal = problem.thermal_report(cand.chiplet_ids)
            fractions = weight_fractions_per_pe(
                n, problem.plan, cand.chiplet_ids
            )
            report = assess("resnet18", thermal.temperatures_k, fractions)
            assert 0 <= report.drop_pct < report.baseline_pct
        assert result.joint.peak_k <= result.performance_only.peak_k + 1e-9


class TestParamsPropagation:
    def test_custom_pitch_changes_areas(self):
        from repro.params import NoIParams

        wide = build_floret(36, 4, params=NoIParams(chiplet_pitch_mm=6.0))
        narrow = build_floret(36, 4, params=NoIParams(chiplet_pitch_mm=3.0))
        assert (
            wide.topology.total_link_length_mm()
            > narrow.topology.total_link_length_mm()
        )

    def test_system_params_with_helpers(self):
        from repro.params import DEFAULT_PARAMS

        custom = DEFAULT_PARAMS.with_noi(flit_bytes=64).with_pim(
            weight_bits=4
        )
        assert custom.noi.flit_bytes == 64
        assert custom.pim.weight_bits == 4
        # Originals untouched (frozen dataclasses).
        assert DEFAULT_PARAMS.noi.flit_bytes == 32

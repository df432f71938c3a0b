"""Unit tests: thermal solver physics and power extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.noc3d.grid3d import Grid3D, build_floret_3d
from repro.params import ThermalParams
from repro.pim.allocation import plan_allocation
from repro.pim.chiplet import spec_for_budget
from repro.thermal.hotspot import analyze_tier, render_tier_ascii
from repro.thermal.model import ThermalModel
from repro.thermal.power import streaming_power, weight_fractions_per_pe
from repro.workloads.zoo import build_model


@pytest.fixture(scope="module")
def grid():
    return Grid3D(cols=3, rows=3, tiers=3)


@pytest.fixture(scope="module")
def model(grid):
    return ThermalModel(grid)


class TestSolverPhysics:
    def test_zero_power_is_ambient(self, grid, model):
        report = model.solve(np.zeros(grid.num_pes))
        assert np.allclose(report.temperatures_k, 300.0)

    def test_power_raises_temperature(self, grid, model):
        p = np.zeros(grid.num_pes)
        p[0] = 1.0
        report = model.solve(p)
        assert report.peak_k > 300.0
        assert (report.temperatures_k >= 300.0 - 1e-9).all()

    def test_linearity(self, grid, model):
        p = np.zeros(grid.num_pes)
        p[4] = 1.0
        t1 = model.solve(p).temperatures_k - 300.0
        t2 = model.solve(2 * p).temperatures_k - 300.0
        assert np.allclose(t2, 2 * t1)

    def test_superposition(self, grid, model):
        pa = np.zeros(grid.num_pes); pa[0] = 0.7
        pb = np.zeros(grid.num_pes); pb[10] = 0.4
        ta = model.solve(pa).temperatures_k - 300.0
        tb = model.solve(pb).temperatures_k - 300.0
        tab = model.solve(pa + pb).temperatures_k - 300.0
        assert np.allclose(tab, ta + tb)

    def test_bottom_hotter_than_top_for_same_power(self, grid, model):
        bottom = np.zeros(grid.num_pes)
        bottom[grid.index(1, 1, 0)] = 1.0
        top = np.zeros(grid.num_pes)
        top[grid.index(1, 1, grid.tiers - 1)] = 1.0
        assert model.solve(bottom).peak_k > model.solve(top).peak_k

    def test_heat_source_is_peak(self, grid, model):
        p = np.zeros(grid.num_pes)
        hot = grid.index(0, 0, 0)
        p[hot] = 1.0
        report = model.solve(p)
        assert int(np.argmax(report.temperatures_k)) == hot

    def test_energy_balance(self, grid):
        """Total heat into the sink equals total power injected."""
        params = ThermalParams()
        model = ThermalModel(grid, params)
        p = np.zeros(grid.num_pes)
        p[grid.index(1, 1, 0)] = 2.0
        report = model.solve(p)
        top = report.tier_map(grid, grid.tiers - 1)
        sink_flow = params.sink_conductance_w_per_k * float(
            (top - params.ambient_k).sum()
        )
        assert sink_flow == pytest.approx(2.0, rel=1e-6)

    def test_bad_power_shape(self, grid, model):
        with pytest.raises(ValueError, match="shape"):
            model.solve(np.zeros(5))

    def test_negative_power_rejected(self, grid, model):
        p = np.zeros(grid.num_pes)
        p[0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            model.solve(p)


class TestHotspots:
    def test_tier_map_shape(self, grid, model):
        p = np.zeros(grid.num_pes); p[0] = 1.0
        report = model.solve(p)
        assert report.tier_map(grid, 0).shape == (3, 3)

    def test_analyze_tier(self, grid, model):
        p = np.zeros(grid.num_pes); p[grid.index(1, 1, 0)] = 5.0
        report = model.solve(p)
        hs = analyze_tier(report, grid, tier=0, label="x",
                          threshold_k=310.0)
        assert hs.tier_peak_k >= hs.tier_mean_k
        assert hs.hotspot_pes >= 1

    def test_render_ascii_shape(self, grid, model):
        p = np.zeros(grid.num_pes); p[0] = 1.0
        report = model.solve(p)
        art = render_tier_ascii(report.tier_map(grid, 0))
        lines = art.split("\n")
        assert len(lines) == 3
        assert all(len(line) == 3 for line in lines)

    def test_render_shared_scale_monotone(self):
        hot = np.array([[310.0, 305.0], [301.0, 300.0]])
        art = render_tier_ascii(hot, low_k=300.0, high_k=310.0)
        shades = " .:-=+*#%@"
        assert shades.index(art[0]) >= shades.index(art[-1])


class TestStreamingPower:
    def test_power_profile(self):
        design = build_floret_3d(64, 4)
        workload = build_model("resnet18", "cifar10")
        spec = spec_for_budget(workload.total_params, 64)
        plan = plan_allocation(workload, spec)
        ids = list(design.allocation_order[: plan.num_chiplets])
        profile = streaming_power(design.topology, workload, plan, ids,
                                  spec=spec)
        assert profile.total_w > 0
        assert profile.power_w.shape == (64,)
        # Unused PEs carry only static power.
        used = set(ids)
        for pe in range(64):
            if pe not in used:
                assert profile.power_w[pe] == pytest.approx(
                    spec.static_power_w
                )

    def test_early_layers_hotter(self):
        design = build_floret_3d(64, 4)
        workload = build_model("resnet18", "cifar10")
        spec = spec_for_budget(workload.total_params, 64)
        plan = plan_allocation(workload, spec)
        ids = list(design.allocation_order[: plan.num_chiplets])
        profile = streaming_power(design.topology, workload, plan, ids,
                                  spec=spec)
        used_power = profile.power_w[ids]
        # The maximum-power PE sits in the first half of the chain
        # (activation-heavy early layers).
        assert int(np.argmax(used_power)) < len(ids) / 2

    def test_weight_fractions_sum_to_one(self):
        workload = build_model("resnet18", "cifar10")
        spec = spec_for_budget(workload.total_params, 64)
        plan = plan_allocation(workload, spec)
        ids = list(range(plan.num_chiplets))
        fractions = weight_fractions_per_pe(64, plan, ids)
        assert sum(fractions) == pytest.approx(1.0)


def test_eval_import_does_not_load_scipy():
    # scipy is an optional dependency of the thermal solver only; it
    # loads when the first ThermalModel is built, not on import.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.eval; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

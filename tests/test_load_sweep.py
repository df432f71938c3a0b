"""Load-sweep experiment layer: spec parsing, traffic, evaluator, store.

Satellite coverage for the injection-rate experiment family: workload
strings round-trip through :func:`parse_load_workload`, the Bernoulli
traffic generator is deterministic and pattern-correct, the
``evaluate_load_sweep_case`` evaluator reports sound steady-state
metrics, and the whole family rides ``SweepRunner`` + ``ResultStore``
(cached, resumable) like every other figure bench.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import ResultStore, SweepRunner, case_keys, sweep_grid
from repro.eval.experiments import (
    LOAD_SWEEP_MEASURE_CYCLES,
    LOAD_SWEEP_WARMUP_CYCLES,
    LoadSweepSpec,
    SaturationSpec,
    evaluate_load_sweep_case,
    evaluate_saturation_case,
    evaluate_sim_crosscheck_case,
    load_sweep_traffic,
    parse_load_workload,
    parse_saturation_workload,
    saturation_knee,
)
from repro.eval.sweeps import SweepCase


class TestParseLoadWorkload:
    def test_defaults(self):
        spec = parse_load_workload("uniform@0.05")
        assert spec == LoadSweepSpec(
            pattern="uniform",
            injection_rate=0.05,
            warmup_cycles=LOAD_SWEEP_WARMUP_CYCLES,
            measure_cycles=LOAD_SWEEP_MEASURE_CYCLES,
        )

    def test_window_suffix(self):
        spec = parse_load_workload("hotspot@0.1:w512+2048")
        assert spec.warmup_cycles == 512
        assert spec.measure_cycles == 2048
        assert spec.window_cycles == 2560

    def test_roundtrip_through_workload_property(self):
        for text in ("uniform@0.05", "transpose@0.125:w64+256"):
            spec = parse_load_workload(text)
            assert parse_load_workload(spec.workload) == spec

    @pytest.mark.parametrize("bad", [
        "uniform", "uniform@", "@0.05", "uniform@x",
        "uniform@0", "uniform@1.5", "uniform@-0.1",
        "uniform@0.05:w64", "uniform@0.05:64+128",
        "uniform@0.05:wx+128", "uniform@0.05:w64+0",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_load_workload(bad)

    def test_missing_rate_message_names_format(self):
        with pytest.raises(ValueError,
                           match=r"not 'pattern@rate"):
            parse_load_workload("uniform@")
        with pytest.raises(ValueError,
                           match=r"not 'pattern@rate"):
            parse_load_workload("uniform")

    def test_unparseable_rate_names_the_rate(self):
        with pytest.raises(ValueError,
                           match=r"bad injection rate '2x'"):
            parse_load_workload("uniform@2x")

    def test_zero_measure_window_message(self):
        with pytest.raises(ValueError,
                           match="measurement window must be positive"):
            parse_load_workload("uniform@0.05:w64+0")

    def test_negative_warmup_rejected_with_window_format(self):
        # isdigit rejects the sign, so a negative warm-up fails the
        # window format check with the expected-format message.
        with pytest.raises(ValueError,
                           match=r"bad window 'w-5\+128'"):
            parse_load_workload("uniform@0.05:w-5+128")

    def test_negative_measure_rejected(self):
        with pytest.raises(ValueError, match="bad window"):
            parse_load_workload("uniform@0.05:w64+-10")


class TestLoadSweepTraffic:
    SPEC = LoadSweepSpec("uniform", 0.1, warmup_cycles=32,
                         measure_cycles=96)

    def test_deterministic(self):
        a = load_sweep_traffic(self.SPEC, 16, seed=3)
        b = load_sweep_traffic(self.SPEC, 16, seed=3)
        assert np.array_equal(a, b)
        c = load_sweep_traffic(self.SPEC, 16, seed=4)
        assert not np.array_equal(a, c)

    def test_table_shape_and_bounds(self):
        table = load_sweep_traffic(self.SPEC, 16, seed=0)
        assert table.shape[1] == 5
        src, dst, payload, inject, mids = table.T
        assert src.min() >= 0 and src.max() < 16
        assert dst.min() >= 0 and dst.max() < 16
        assert np.all(payload == 64)
        assert inject.min() >= 0
        assert inject.max() < self.SPEC.window_cycles
        assert np.array_equal(mids, np.arange(table.shape[0]))

    def test_injection_rate_is_approximately_offered(self):
        spec = LoadSweepSpec("uniform", 0.1, warmup_cycles=256,
                             measure_cycles=1024)
        table = load_sweep_traffic(spec, 32, seed=0)
        offered = table.shape[0] / (32 * spec.window_cycles)
        assert offered == pytest.approx(0.1, rel=0.1)

    def test_patterns(self):
        n = 16
        for pattern, check in (
            ("neighbor", lambda s, d: np.all(d == (s + 1) % n)),
            ("transpose", lambda s, d: np.all(d == n - 1 - s)),
        ):
            spec = LoadSweepSpec(pattern, 0.1, 16, 48)
            table = load_sweep_traffic(spec, n, seed=1)
            assert check(table[:, 0], table[:, 1]), pattern
        hot = load_sweep_traffic(LoadSweepSpec("hotspot", 0.2, 16, 48),
                                 n, seed=1)
        counts = np.bincount(hot[:, 1], minlength=n)
        assert counts.max() >= 0.3 * hot.shape[0]

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            load_sweep_traffic(LoadSweepSpec("mystery", 0.1), 16, 0)


class TestEvaluateLoadSweepCase:
    CASE = SweepCase(arch="siam", num_chiplets=16,
                     workload="uniform@0.08:w64+192", seed=2)

    def test_metrics_are_sound(self):
        m = evaluate_load_sweep_case(self.CASE)
        assert m["injected_packets"] > 0
        assert 0 < m["steady_packets"] <= m["injected_packets"]
        assert m["offered_rate"] == pytest.approx(0.08, rel=0.25)
        assert m["steady_mean_latency"] > 0
        assert m["steady_max_latency"] >= m["steady_mean_latency"]
        assert m["makespan_cycles"] >= 256  # window at minimum
        assert 0 <= m["contended_fraction"] <= 1
        # Below saturation, accepted throughput tracks the offered rate.
        assert m["steady_throughput"] == pytest.approx(
            m["offered_rate"], rel=0.35
        )

    def test_latency_rises_with_load(self):
        low = evaluate_load_sweep_case(
            SweepCase(arch="siam", num_chiplets=16,
                      workload="uniform@0.02:w64+192", seed=2)
        )
        high = evaluate_load_sweep_case(
            SweepCase(arch="siam", num_chiplets=16,
                      workload="uniform@0.3:w64+192", seed=2)
        )
        assert high["steady_mean_latency"] > low["steady_mean_latency"]
        assert high["drain_cycles"] > low["drain_cycles"]

    def test_rides_sweep_runner_with_store(self, tmp_path):
        cases = sweep_grid(
            archs=("siam", "kite"), sizes=(16,),
            workloads=("uniform@0.05:w32+96", "uniform@0.1:w32+96"),
            seeds=(0,),
        )
        cold = SweepRunner(evaluate_load_sweep_case, workers=1,
                           store=ResultStore(tmp_path)).run(cases)
        assert not cold.failures
        assert cold.store_hits == 0
        warm = SweepRunner(evaluate_load_sweep_case, workers=1,
                           store=ResultStore(tmp_path)).run(cases)
        assert not warm.failures
        assert warm.store_hits == len(cases)
        assert warm.evaluated == 0
        for a, b in zip(cold.results, warm.results):
            assert a.metrics == b.metrics
        # Injection rate lives in the workload axis, so distinct rates
        # hash to distinct store keys.
        assert len(set(
            case_keys(evaluate_load_sweep_case, cases)
        )) == len(cases)


class TestParseSaturationWorkload:
    def test_roundtrip(self):
        spec = parse_saturation_workload("uniform@0.02-0.3/8:w64+256")
        assert spec == SaturationSpec("uniform", 0.02, 0.3, 8, 64, 256)
        assert parse_saturation_workload(spec.workload) == spec

    def test_defaults_window(self):
        spec = parse_saturation_workload("hotspot@0.05-0.5/4")
        assert spec.warmup_cycles == LOAD_SWEEP_WARMUP_CYCLES
        assert spec.measure_cycles == LOAD_SWEEP_MEASURE_CYCLES

    def test_rates_grid(self):
        spec = parse_saturation_workload("uniform@0.1-0.3/3")
        assert np.allclose(spec.rates(), [0.1, 0.2, 0.3])
        assert spec.load_spec(0.2).injection_rate == 0.2
        assert spec.load_spec(0.2).pattern == "uniform"

    @pytest.mark.parametrize("bad", [
        "uniform", "uniform@0.1/4", "uniform@0.1-0.3",
        "uniform@-0.3/4", "uniform@0.3-0.1/4", "uniform@0-0.3/4",
        "uniform@0.1-1.5/4", "uniform@0.1-0.3/1",
        "uniform@0.1-0.3/x", "uniform@x-0.3/4",
        "uniform@0.1-0.3/4:w64+0",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_saturation_workload(bad)


class TestSaturationKnee:
    def test_knee_at_first_shortfall(self):
        offered = np.array([0.1, 0.2, 0.3, 0.4])
        accepted = np.array([0.1, 0.19, 0.22, 0.22])
        knee, sat = saturation_knee(offered, accepted, tolerance=0.1)
        assert knee == 0.3
        assert sat == 0.22

    def test_never_saturated_reports_last_rate(self):
        offered = np.array([0.1, 0.2])
        accepted = np.array([0.099, 0.198])
        knee, sat = saturation_knee(offered, accepted)
        assert knee == 0.2
        assert sat == 0.198

    def test_rejects_mismatched_or_empty(self):
        with pytest.raises(ValueError):
            saturation_knee(np.array([0.1]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            saturation_knee(np.array([]), np.array([]))


class TestEvaluateSaturationCase:
    FC = (("fc_buffer_flits", 24), ("fc_credit_rtt", 2),
          ("fc_source_queue", 4))
    CASE = SweepCase(arch="siam", num_chiplets=16,
                     workload="uniform@0.05-0.35/4:w32+128",
                     noi_overrides=FC)

    def test_metrics_and_curves_sound(self):
        m = evaluate_saturation_case(self.CASE)
        offered = m["offered_rates"]
        accepted = m["accepted_throughput"]
        assert offered.shape == accepted.shape == (4,)
        # Below the knee accepted tracks offered; everywhere bounded.
        assert accepted[0] == pytest.approx(offered[0], rel=0.25)
        assert accepted.max() <= 1.05 * offered.max()
        assert m["saturation_throughput"] == pytest.approx(
            accepted.max()
        )
        assert 0 < m["knee_rate"] <= m["peak_offered"]
        assert 0 < m["peak_link_utilization"] <= 1.0
        assert np.all(np.diff(m["steady_mean_latency"]) >= 0) or (
            m["steady_mean_latency"].max()
            >= m["steady_mean_latency"][0]
        )

    def test_closed_loop_bounds_queues_where_open_loop_grows(self):
        # The behaviour the subsystem exists for: under hotspot
        # overload the open loop piles unbounded waiting queues onto
        # the hot links, while finite buffers + source queues bound the
        # in-flight population -- at the cost of visible credit stalls.
        from repro.net.flowcontrol import FlowControlParams
        from repro.net.simulator import simulate_packets
        from repro.eval.sweeps import case_topology

        case = SweepCase(arch="siam", num_chiplets=16,
                         workload="hotspot@0.35:w32+128", seed=1)
        topo = case_topology(case)
        spec = parse_load_workload(case.workload)
        table = load_sweep_traffic(spec, 16, case.seed)
        open_loop = simulate_packets(topo, table, flow_control=None,
                                     telemetry=True)
        closed = simulate_packets(
            topo, table, telemetry=True,
            flow_control=FlowControlParams(buffer_flits=6,
                                           source_queue=2,
                                           credit_rtt=2),
        )
        assert (closed.telemetry.peak_queue_flits.max()
                < 0.25 * open_loop.telemetry.peak_queue_flits.max())
        assert closed.telemetry.credit_stall_cycles.sum() > 0

    def test_rides_sweep_runner_with_store(self, tmp_path):
        cases = [self.CASE]
        cold = SweepRunner(evaluate_saturation_case, workers=1,
                           store=ResultStore(tmp_path)).run(cases)
        assert not cold.failures and cold.store_hits == 0
        warm = SweepRunner(evaluate_saturation_case, workers=1,
                           store=ResultStore(tmp_path)).run(cases)
        assert warm.store_hits == 1 and warm.evaluated == 0
        assert cold.results[0].metrics == warm.results[0].metrics
        for name, arr in cold.results[0].arrays.items():
            assert np.array_equal(arr, warm.results[0].arrays[name]), name
        # Distinct fc overrides hash to distinct keys.
        other = SweepCase(arch="siam", num_chiplets=16,
                          workload=self.CASE.workload,
                          noi_overrides=(("fc_buffer_flits", 8),))
        keys = case_keys(evaluate_saturation_case, [self.CASE, other])
        assert len(set(keys)) == 2


class TestSimCrosscheckCase:
    def test_analytic_is_sound_lower_bound(self):
        m = evaluate_sim_crosscheck_case(
            SweepCase(arch="siam", num_chiplets=16, workload="chain")
        )
        assert m["packets_delivered"] > 0
        assert m["sim_total_cycles"] >= 0.9 * m["analytic_total_cycles"]
        assert m["sim_total_cycles"] <= 2.0 * m["analytic_total_cycles"]

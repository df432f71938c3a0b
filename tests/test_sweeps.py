"""Unit tests: the SweepRunner parameter-sweep subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.sweeps import (
    WORKERS_ENV,
    SweepCase,
    SweepRunner,
    case_topology,
    evaluate_comm_case,
    evaluate_table1_case,
    evaluate_topology_case,
    evaluate_utilization_case,
    sweep_grid,
    synthetic_traffic,
)
from repro.net.analytic import communication_cost


def _boom_evaluate(case: SweepCase):
    if case.arch == "boom":
        raise RuntimeError("synthetic failure")
    return {"value": float(case.num_chiplets)}


class TestSweepCase:
    def test_case_id_includes_overrides(self):
        case = SweepCase(
            arch="siam", num_chiplets=16, workload="uniform", seed=3,
            noi_overrides=(("flit_bytes", 64),),
        )
        assert "siam/16/uniform/s3" in case.case_id
        assert "flit_bytes=64" in case.case_id

    def test_params_apply_overrides(self):
        case = SweepCase(arch="siam", noi_overrides=(("flit_bytes", 64),))
        assert case.params().flit_bytes == 64

    def test_topology_override_reaches_builder(self):
        base = case_topology(SweepCase(arch="siam", num_chiplets=16))
        wide = case_topology(SweepCase(
            arch="siam", num_chiplets=16,
            noi_overrides=(("chiplet_pitch_mm", 6.0),),
        ))
        assert (
            wide.total_link_length_mm() > base.total_link_length_mm()
        )


class TestStructureCache:
    """One graph and one routing-table build per (arch, n, pitch)."""

    def test_case_topology_is_a_view_of_the_structure(self):
        from repro.eval.experiments import floret_design, topology_for

        plain = case_topology(SweepCase(arch="kite", num_chiplets=16))
        fc = case_topology(SweepCase(
            arch="kite", num_chiplets=16,
            noi_overrides=(("fc_buffer_flits", 8), ("sim_engine", "events")),
        ))
        assert plain is topology_for("kite", 16)
        assert fc is not plain and fc.adj is plain.adj
        assert fc.params.fc_buffer_flits == 8
        assert fc.routing_tables() is plain.routing_tables()
        floret = case_topology(SweepCase(arch="floret", num_chiplets=16))
        assert floret is floret_design(16).topology

    def test_cost_override_builds_tables_once_per_value(self):
        from repro.obs.metrics import REGISTRY

        tables_built = REGISTRY.counter("routing_tables_built")
        before = tables_built.value
        cases = [
            SweepCase(arch="siam", num_chiplets=16, workload=workload,
                      seed=seed, noi_overrides=(("mm_per_cycle", 1.375),))
            for workload in ("uniform", "neighbor") for seed in (0, 1)
        ]
        views = {id(case_topology(case)) for case in cases}
        tables = {id(case_topology(case).routing_tables()) for case in cases}
        assert len(views) == len(tables) == 1
        assert tables_built.value - before == 1

    def test_one_build_per_structure_across_mix_sweep_and_dse(self):
        """A mix sweep, then a generation-0 fc DSE on the same structures."""
        from repro.eval import experiments
        from repro.eval.dse import FC_OBJECTIVES, dse_search, fc_design_space
        from repro.eval.sweeps import evaluate_mix_case
        from repro.obs.metrics import REGISTRY

        experiments._structure.cache_clear()
        experiments._view.cache_clear()
        experiments.schedule.cache_clear()
        tables_built = REGISTRY.counter("routing_tables_built")
        before = tables_built.value
        archs = ("swap", "siam")
        # Every Table II mix holds a 69-chiplet model: 100-node systems.
        mix = SweepRunner(evaluate_mix_case, workers=1).run(
            sweep_grid(archs, (100,), ("WL2",))
        )
        space = fc_design_space(
            archs, (100,), workload="uniform@0.02:w16+64",
            buffer_flits=(16, 32), credit_rtt=(1, 2),
        )
        dse = dse_search(
            space, experiments.evaluate_load_sweep_case,
            objectives=FC_OBJECTIVES, population_size=space.num_designs,
            generations=0, workers=1,
        )
        assert not mix.failures and dse.failures == 0
        assert dse.evaluations == space.num_designs == 8
        info = experiments._structure.cache_info()
        assert (info.misses, info.currsize) == (len(archs), len(archs))
        assert tables_built.value - before == len(archs)


class TestGrid:
    def test_cartesian_product(self):
        cases = sweep_grid(
            archs=("siam", "kite"), sizes=(16, 36),
            workloads=("uniform", "neighbor"), seeds=(0, 1),
        )
        assert len(cases) == 2 * 2 * 2 * 2
        assert len({c.case_id for c in cases}) == len(cases)

    def test_topology_major_order(self):
        cases = sweep_grid(archs=("siam", "kite"), workloads=("a", "b"))
        assert [c.arch for c in cases] == ["siam", "siam", "kite", "kite"]

    @pytest.mark.parametrize("over, named", [
        ((("fc_bufer_flits", 16),), "fc_bufer_flits"),
        ((("sim_engine", "warp"),), "sim_engine='warp'"),
        (("flit_bytes", 16), "'flit_bytes'"),
        (((("flit_bytes", 16),),), "flit_bytes"),
        (((16, "flit_bytes"),), "(16, 'flit_bytes')"),
    ], ids=["typo", "engine", "flat", "nested", "unnamed"])
    def test_bad_overrides_rejected_at_grid(self, over, named):
        # Fails once, up front -- not per case after a lease.
        with pytest.raises(ValueError) as info:
            sweep_grid(archs=("siam",), overrides=((), over))
        assert named in str(info.value)

    def test_valid_overrides_pass(self):
        cases = sweep_grid(archs=("siam",), overrides=(
            (), (("fc_buffer_flits", 16), ("sim_engine", "events")),
        ))
        assert cases[1].params().sim_engine == "events"


class TestSyntheticTraffic:
    @pytest.mark.parametrize(
        "pattern", ["uniform", "neighbor", "hotspot", "transpose"]
    )
    def test_patterns_deterministic(self, pattern):
        a = synthetic_traffic(pattern, 16, seed=4)
        b = synthetic_traffic(pattern, 16, seed=4)
        assert np.array_equal(a, b)
        assert a.shape[1] == 3
        assert np.all(a[:, 2] >= 1)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            synthetic_traffic("nope", 16, seed=0)


class TestRunnerInline:
    def test_inline_run_collects_metrics(self):
        cases = sweep_grid(
            archs=("siam",), sizes=(16,),
            workloads=("uniform", "neighbor"), seeds=(0, 1),
        )
        outcome = SweepRunner(evaluate_comm_case, workers=1).run(cases)
        assert len(outcome) == 4
        assert not outcome.failures
        assert outcome.workers == 1
        assert np.all(outcome.metric("latency_cycles") > 0)

    def test_inline_matches_scalar_oracle(self):
        case = SweepCase(arch="kite", num_chiplets=16, workload="uniform",
                         seed=2)
        metrics = evaluate_comm_case(case)
        topo = case_topology(case)
        oracle = communication_cost(
            topo, [tuple(r) for r in
                   synthetic_traffic("uniform", 16, 2).tolist()]
        )
        assert metrics["latency_cycles"] == oracle.latency_cycles
        assert metrics["energy_pj"] == pytest.approx(
            oracle.energy_pj, rel=1e-9
        )

    def test_errors_are_captured_not_raised(self):
        cases = [SweepCase(arch="siam", num_chiplets=16),
                 SweepCase(arch="boom", num_chiplets=16)]
        outcome = SweepRunner(_boom_evaluate, workers=1).run(cases)
        assert len(outcome.ok) == 1
        assert len(outcome.failures) == 1
        assert "synthetic failure" in outcome.failures[0].error

    def test_mix_case_rejects_unsupported_axes(self):
        from repro.eval.sweeps import evaluate_mix_case

        # The schedule path has no parameter plumbing: silently
        # returning default-parameter data for an override sweep would
        # mislabel identical results, so it must refuse.
        with pytest.raises(ValueError, match="noi_overrides"):
            evaluate_mix_case(SweepCase(
                arch="floret", num_chiplets=100, workload="WL1",
                noi_overrides=(("flit_bytes", 16),),
            ))
        with pytest.raises(ValueError, match="seed"):
            evaluate_mix_case(SweepCase(
                arch="floret", num_chiplets=100, workload="WL1", seed=3,
            ))

    def test_topology_census_metrics(self):
        outcome = SweepRunner(evaluate_topology_case, workers=1).run(
            sweep_grid(archs=("siam", "kite"), sizes=(16,))
        )
        by_arch = outcome.by_arch()
        # Kite (folded torus) has more links than a mesh at equal size.
        assert (
            by_arch["kite"][0].metrics["num_links"]
            > by_arch["siam"][0].metrics["num_links"]
        )


class TestRunnerParallel:
    def test_process_pool_or_fallback_is_correct(self):
        """Pool path when available; silently-inline otherwise -- either
        way results must equal the inline reference run."""
        cases = sweep_grid(
            archs=("siam",), sizes=(16,),
            workloads=("uniform", "neighbor", "transpose"), seeds=(0, 1),
        )
        parallel = SweepRunner(evaluate_comm_case, workers=2).run(cases)
        inline = SweepRunner(evaluate_comm_case, workers=1).run(cases)
        assert not parallel.failures
        assert [r.case for r in parallel.results] == [
            r.case for r in inline.results
        ]
        for p, i in zip(parallel.results, inline.results):
            assert p.metrics == i.metrics


class TestWorkerOverride:
    """The REPRO_SWEEP_WORKERS env knob beats both defaults and args."""

    def test_env_overrides_constructor_workers(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        runner = SweepRunner(evaluate_comm_case, workers=16)
        assert runner._resolve_workers(100) == 3

    def test_env_forces_inline(self, monkeypatch):
        # REPRO_SWEEP_WORKERS=1 turns any sweep into a deterministic,
        # pool-free run -- the documented debugging escape hatch.
        monkeypatch.setenv(WORKERS_ENV, "1")
        cases = sweep_grid(archs=("siam",), sizes=(16,),
                           workloads=("uniform", "neighbor"))
        outcome = SweepRunner(evaluate_comm_case, workers=8).run(cases)
        assert outcome.workers == 1
        assert not outcome.failures

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert SweepRunner(evaluate_comm_case)._resolve_workers(10) == 1

    def test_unset_env_picks_cpu_case_minimum(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert SweepRunner(evaluate_comm_case)._resolve_workers(1) == 1


class TestPoolDegradation:
    """Pool-level failures degrade to inline evaluation -- loudly."""

    CASES = [SweepCase(arch="siam", num_chiplets=16, workload=w)
             for w in ("uniform", "neighbor", "transpose")]

    def _broken_pool(self, exc):
        class BrokenPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

            def map(self, *args, **kwargs):
                raise exc

        return BrokenPool

    @pytest.mark.parametrize("exc", [
        __import__("concurrent.futures.process",
                   fromlist=["BrokenProcessPool"]).BrokenProcessPool(
                       "workers died"),
        OSError("no /dev/shm semaphores"),
        __import__("pickle").PicklingError("unpicklable evaluate"),
    ])
    def test_known_pool_failures_rerun_inline(self, monkeypatch, exc):
        import repro.eval.sweeps as sweeps_mod

        monkeypatch.setattr(sweeps_mod, "ProcessPoolExecutor",
                            self._broken_pool(exc))
        runner = SweepRunner(evaluate_comm_case, workers=2)
        with pytest.warns(RuntimeWarning, match="re-running.*inline"):
            outcome = runner.run(self.CASES)
        assert outcome.workers == 1
        assert not outcome.failures
        inline = SweepRunner(evaluate_comm_case, workers=1).run(self.CASES)
        for degraded, reference in zip(outcome.results, inline.results):
            assert degraded.metrics == reference.metrics

    @pytest.mark.parametrize("exc,pool_level", [
        (AttributeError("Can't pickle local object 'f.<locals>.g'"), True),
        (TypeError("cannot pickle '_thread.lock' object"), True),
        (AttributeError("'SweepCase' object has no attribute 'x'"), False),
        (TypeError("unsupported operand type(s)"), False),
        (ValueError("cannot pickle"), False),
    ])
    def test_pickle_failures_by_message(self, exc, pool_level):
        from repro.eval.sweeps import is_pool_failure

        assert is_pool_failure(exc) is pool_level

    def test_unknown_pool_failures_propagate(self, monkeypatch):
        import repro.eval.sweeps as sweeps_mod

        monkeypatch.setattr(
            sweeps_mod, "ProcessPoolExecutor",
            self._broken_pool(KeyboardInterrupt()),
        )
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(evaluate_comm_case, workers=2).run(self.CASES)

    def test_unpicklable_evaluate_degrades_for_real(self):
        # Not a monkeypatched pool: a genuine lambda evaluator cannot be
        # shipped to workers, so the real pool raises PicklingError and
        # the sweep must still complete inline.
        runner = SweepRunner(
            lambda case: {"value": float(case.num_chiplets)}, workers=2
        )
        with pytest.warns(RuntimeWarning, match="re-running.*inline"):
            outcome = runner.run(self.CASES)
        assert outcome.workers == 1
        assert [r.metrics["value"] for r in outcome.results] == [16.0] * 3


class TestStoreIntegration:
    def test_gather_runner_cold_then_warm(self, tmp_path):
        from repro.eval.store import ResultStore

        cases = sweep_grid(archs=("siam",), sizes=(16,),
                           workloads=("uniform", "neighbor"), seeds=(0, 1))
        cold = SweepRunner(evaluate_comm_case, workers=1,
                           store=ResultStore(tmp_path)).run(cases)
        assert cold.store_hits == 0
        assert cold.evaluated == len(cases)
        warm = SweepRunner(evaluate_comm_case, workers=1,
                           store=ResultStore(tmp_path)).run(cases)
        assert warm.store_hits == len(cases)
        assert warm.evaluated == 0
        for a, b in zip(warm.results, cold.results):
            assert a.case == b.case
            assert a.metrics == b.metrics
        assert warm.pivot("energy_pj") == cold.pivot("energy_pj")

    def test_case_keys_track_evaluator(self):
        cases = [SweepCase(arch="siam", num_chiplets=16)]
        keys_comm = SweepRunner(evaluate_comm_case).case_keys(cases)
        keys_topo = SweepRunner(evaluate_topology_case).case_keys(cases)
        assert keys_comm != keys_topo


class TestExperimentEvaluators:
    """The Fig. 4 / Table I evaluators reject unsupported axes loudly."""

    def test_utilization_rejects_unsupported_axes(self):
        with pytest.raises(ValueError, match="noi_overrides"):
            evaluate_utilization_case(SweepCase(
                arch="swap", num_chiplets=100, workload="WL3",
                noi_overrides=(("flit_bytes", 16),),
            ))
        with pytest.raises(ValueError, match="seed"):
            evaluate_utilization_case(SweepCase(
                arch="swap", num_chiplets=100, workload="WL3", seed=2,
            ))

    def test_table1_census_matches_zoo(self):
        from repro.workloads.zoo import table1_model

        metrics = evaluate_table1_case(
            SweepCase(arch="floret", workload="DNN10")
        )
        model = table1_model("DNN10")
        assert metrics["measured_params_millions"] == pytest.approx(
            model.total_params / 1e6
        )
        assert metrics["paper_params_millions"] > 0

    def test_moo_case_rejects_wrong_system(self):
        from repro.eval.sweeps import evaluate_moo_case

        with pytest.raises(ValueError, match="Floret-3D"):
            evaluate_moo_case(SweepCase(arch="siam", num_chiplets=100,
                                        workload="DNN10"))
        with pytest.raises(ValueError, match="100-PE"):
            evaluate_moo_case(SweepCase(arch="floret", num_chiplets=36,
                                        workload="DNN10"))


class TestAggregation:
    @pytest.fixture(scope="class")
    def outcome(self):
        cases = sweep_grid(
            archs=("siam", "kite"), sizes=(16,),
            workloads=("uniform", "neighbor"), seeds=(0,),
        )
        return SweepRunner(evaluate_comm_case, workers=1).run(cases)

    def test_pivot_table(self, outcome):
        table = outcome.pivot("energy_pj")
        assert set(table) == {"uniform", "neighbor"}
        assert set(table["uniform"]) == {"siam", "kite"}

    def test_rows_for_format_table(self, outcome):
        rows = outcome.rows(["latency_cycles", "energy_pj"])
        assert len(rows) == 4
        assert all(len(r) == 3 for r in rows)

    def test_group_by_workload(self, outcome):
        groups = outcome.group_by(lambda c: c.workload)
        assert {len(v) for v in groups.values()} == {2}

"""Unit tests: design-space exploration vs the exhaustive scalar oracle."""

from __future__ import annotations

import random

import pytest

from repro.eval.dse import (
    DesignSpace,
    design_space,
    dse_search,
    extract_objectives,
    reference_search,
)
from repro.eval.store import ResultStore
from repro.eval.sweeps import SweepCase, evaluate_comm_case


def _synthetic_evaluate(case: SweepCase):
    """Deterministic metrics with a controlled latency/energy trade-off.

    Latency falls and energy rises with flit width, so every flit value
    of the smallest system is Pareto-optimal -- a known multi-point
    front to pin the search against.
    """
    flit = dict(case.noi_overrides).get("flit_bytes", 32)
    latency = case.num_chiplets * 1000.0 / flit
    energy = case.num_chiplets * float(flit)
    if case.arch == "kite":  # strictly worse twin of siam
        latency += 1.0
        energy += 1.0
    return {"latency_cycles": latency, "energy_pj": energy}


def _exploding_36(case: SweepCase):
    """Module-level (store-fingerprintable) evaluator that breaks on 36."""
    if case.num_chiplets == 36:
        raise RuntimeError("bad size")
    return _synthetic_evaluate(case)


SPACE = design_space(
    ("siam", "kite"), (16, 36), flit_bytes=(16, 32, 64),
    workload="uniform", tag="test",
)


class TestDesignSpace:
    def test_enumeration_is_complete_and_distinct(self):
        genomes = SPACE.all_genomes()
        assert len(genomes) == SPACE.num_designs == 2 * 2 * 3
        assert len(set(genomes)) == len(genomes)
        case_ids = {c.case_id for c in SPACE.all_cases()}
        assert len(case_ids) == len(genomes)

    def test_case_materialisation(self):
        case = SPACE.case(("siam", 16, 64))
        assert case.arch == "siam"
        assert case.num_chiplets == 16
        assert case.noi_overrides == (("flit_bytes", 64),)
        assert case.workload == "uniform"
        assert case.tag == "test"

    def test_genome_length_validated(self):
        with pytest.raises(ValueError, match="genome length"):
            SPACE.case(("siam", 16))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DesignSpace(archs=())
        with pytest.raises(ValueError, match="empty"):
            design_space(("siam",), flit_bytes=())

    def test_operators_stay_in_space(self):
        rng = random.Random(0)
        axes = SPACE.axes()
        for _ in range(100):
            a = SPACE.random_genome(rng)
            b = SPACE.random_genome(rng)
            for genome in (a, b, SPACE.mutate(a, rng),
                           SPACE.crossover(a, b, rng)):
                assert len(genome) == len(axes)
                for value, (_, values) in zip(genome, axes):
                    assert value in values

    def test_mutation_changes_at_most_one_axis(self):
        rng = random.Random(1)
        genome = ("siam", 16, 32)
        for _ in range(50):
            mutated = SPACE.mutate(genome, rng)
            differing = sum(x != y for x, y in zip(genome, mutated))
            assert differing <= 1


class TestObjectives:
    def test_direct_extraction(self):
        assert extract_objectives(
            {"latency_cycles": 2.0, "energy_pj": 3.0},
            ("latency_cycles", "energy_pj"),
        ) == (2.0, 3.0)

    def test_edp_derived(self):
        assert extract_objectives(
            {"latency_cycles": 2.0, "energy_pj": 3.0}, ("edp",)
        ) == (6.0,)

    def test_explicit_edp_preferred(self):
        assert extract_objectives(
            {"latency_cycles": 2.0, "energy_pj": 3.0, "edp": 5.0}, ("edp",)
        ) == (5.0,)

    def test_unknown_objective_raises(self):
        with pytest.raises(KeyError, match="not derivable"):
            extract_objectives({"latency_cycles": 1.0}, ("watts",))


class TestOracleEquivalence:
    def test_reference_front_is_the_known_one(self):
        front = reference_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
        )
        # All three flit widths of the 16-chiplet siam trade off
        # latency against energy; everything else is dominated.
        assert {p.genome for p in front} == {
            ("siam", 16, 16), ("siam", 16, 32), ("siam", 16, 64),
        }

    def test_search_equals_oracle_when_population_covers_space(self):
        """The pinned equivalence: exhaustive NSGA-II == scalar oracle."""
        reference = reference_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
        )
        result = dse_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
            population_size=SPACE.num_designs, generations=2,
            seed=5, workers=1,
        )
        assert tuple(p.genome for p in result.pareto_front) == tuple(
            p.genome for p in reference
        )
        assert tuple(p.objectives for p in result.pareto_front) == tuple(
            p.objectives for p in reference
        )

    def test_search_equals_oracle_on_real_evaluator(self):
        small = design_space(("siam", "kite"), (16,), flit_bytes=(16, 32),
                             workload="uniform")
        reference = reference_search(small, evaluate_comm_case)
        result = dse_search(
            small, evaluate_comm_case,
            population_size=small.num_designs, generations=1,
            seed=0, workers=1,
        )
        assert result.front_case_ids() == tuple(
            p.case.case_id for p in reference
        )

    def test_partial_search_front_is_mutually_nondominated(self):
        result = dse_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
            population_size=4, generations=3, seed=11, workers=1,
        )
        front = result.pareto_front
        assert front
        for p in front:
            assert not any(q.dominates(p) for q in result.archive)
        assert result.evaluations <= SPACE.num_designs
        assert len(result.archive) == result.evaluations


class TestStoreBackedSearch:
    def test_second_search_is_all_cache_hits(self, tmp_path):
        first = dse_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
            population_size=SPACE.num_designs, generations=1,
            seed=2, workers=1, store=ResultStore(tmp_path),
        )
        assert first.store_hits == 0
        assert first.evaluations == SPACE.num_designs
        second = dse_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
            population_size=SPACE.num_designs, generations=1,
            seed=2, workers=1, store=ResultStore(tmp_path),
        )
        assert second.evaluations == 0
        assert second.store_hits == SPACE.num_designs
        assert second.front_case_ids() == first.front_case_ids()
        assert tuple(p.objectives for p in second.pareto_front) == tuple(
            p.objectives for p in first.pareto_front
        )

    def test_generations_tag_their_cases(self, tmp_path):
        # The store doubles as a per-generation archive: every stored
        # case carries "<space tag>@g<generation>".
        dse_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
            population_size=4, generations=3, seed=2, workers=1,
            store=ResultStore(tmp_path),
        )
        tags = {record["case"]["tag"]
                for _key, record in ResultStore(tmp_path).iter_records()}
        assert f"{SPACE.tag}@g0" in tags
        assert all(tag.startswith(f"{SPACE.tag}@g")
                   and tag.rsplit("@g", 1)[1].isdigit() for tag in tags)

    def test_failed_candidates_warn_and_are_excluded(self):
        def exploding(case):
            if case.num_chiplets == 36:
                raise RuntimeError("bad size")
            return _synthetic_evaluate(case)

        with pytest.warns(RuntimeWarning, match="DSE evaluation failed"):
            result = dse_search(
                SPACE, exploding,
                objectives=("latency_cycles", "energy_pj"),
                population_size=SPACE.num_designs, generations=3,
                seed=0, workers=1,
            )
        assert all(p.case.num_chiplets != 36 for p in result.archive)
        # Failed genomes are memoised: each of the six 36-chiplet
        # designs fails exactly once even though tournament offspring
        # re-propose them across three generations.
        assert result.failures == 2 * 1 * 3  # archs x sizes{36} x flits


class TestFlowControlSpace:
    def test_axes_span_the_fc_knobs(self):
        from repro.eval.dse import fc_design_space

        space = fc_design_space()
        axes = dict(space.axes())
        assert axes["fc_buffer_flits"] == (4, 16)
        assert axes["fc_credit_rtt"] == (1, 2)
        assert space.num_designs == 4

    def test_cases_carry_fc_overrides(self):
        from repro.eval.dse import fc_design_space

        space = fc_design_space()
        case = space.case(space.all_genomes()[0])
        over = dict(case.noi_overrides)
        assert set(over) == {"fc_buffer_flits", "fc_credit_rtt"}
        params = case.params()
        assert params.fc_buffer_flits == over["fc_buffer_flits"]
        assert params.fc_credit_rtt == over["fc_credit_rtt"]

    def test_search_equals_oracle_on_closed_loop_evaluator(self):
        """Pinned reference for the stock flow-control space.

        The oracle runs every candidate through the credit-backpressure
        simulator; deeper buffers must dominate on this contended load
        (shallow 4-flit buffers stall the steady-state tail), so the
        front pins to the 16-flit designs.
        """
        from repro.eval.dse import FC_OBJECTIVES, fc_design_space
        from repro.eval.experiments import evaluate_load_sweep_case

        space = fc_design_space()
        reference = reference_search(
            space, evaluate_load_sweep_case, objectives=FC_OBJECTIVES
        )
        searched = dse_search(
            space, evaluate_load_sweep_case, objectives=FC_OBJECTIVES,
            population_size=space.num_designs, generations=1,
            seed=0, workers=1,
        )
        assert searched.front_case_ids() == tuple(
            p.case.case_id for p in reference
        )
        assert tuple(p.objectives for p in searched.pareto_front) == tuple(
            p.objectives for p in reference
        )
        assert all(
            dict(p.case.noi_overrides)["fc_buffer_flits"] == 16
            for p in reference
        )


class TestShardedSearch:
    def test_every_shard_returns_the_reference_result(self, tmp_path):
        from repro.eval.shard import ShardSpec

        reference = dse_search(
            SPACE, _synthetic_evaluate,
            objectives=("latency_cycles", "energy_pj"),
            population_size=8, generations=2, seed=3, workers=1,
        )
        sharded = [
            dse_search(
                SPACE, _synthetic_evaluate,
                objectives=("latency_cycles", "energy_pj"),
                population_size=8, generations=2, seed=3, workers=1,
                store=ResultStore(tmp_path), shard=ShardSpec(i, 2),
                sync_timeout_s=60.0,
            )
            for i in range(2)
        ]
        for result in sharded:
            assert result.front_case_ids() == reference.front_case_ids()
            assert tuple(p.objectives for p in result.pareto_front) == (
                tuple(p.objectives for p in reference.pareto_front)
            )
        # The fleet split the evaluations: together they evaluated the
        # reference's workload exactly once (worker 0 ran first and
        # stole the absent peer's share; worker 1 replayed hits).
        assert sum(r.evaluations for r in sharded) == reference.evaluations
        assert sharded[1].evaluations == 0
        assert sharded[1].store_hits > 0

    def test_shard_without_store_rejected(self):
        from repro.eval.shard import ShardSpec

        with pytest.raises(ValueError, match="store"):
            dse_search(
                SPACE, _synthetic_evaluate,
                objectives=("latency_cycles", "energy_pj"),
                shard=ShardSpec(0, 2),
            )

    def test_sharded_failures_stay_deterministic(self, tmp_path):
        """Broken designs fail on every worker, never poison the store."""
        from repro.eval.shard import ShardSpec

        with pytest.warns(RuntimeWarning, match="DSE evaluation failed"):
            result = dse_search(
                SPACE, _exploding_36,
                objectives=("latency_cycles", "energy_pj"),
                population_size=SPACE.num_designs, generations=1,
                seed=0, workers=1,
                store=ResultStore(tmp_path), shard=ShardSpec(0, 1),
            )
        assert all(p.case.num_chiplets != 36 for p in result.archive)
        assert result.failures == 6
        # Errors were never cached: the store holds only good designs.
        assert len(ResultStore(tmp_path)) == SPACE.num_designs - 6

"""Design-space exploration over NoI topologies and parameters.

Turns the reproduction from "re-run the paper's figures" into a search:
a :class:`DesignSpace` spans architecture, system size and discrete
``NoIParams`` knob values; :func:`dse_search` runs an NSGA-II-style
multi-objective loop (reusing :mod:`repro.core.moo`'s dominance
machinery) that proposes candidate :class:`~repro.eval.sweeps.SweepCase`
genomes, evaluates each generation through
:meth:`SweepRunner.stream <repro.eval.sweeps.SweepRunner.stream>` on a
store-backed runner (or, with ``shard=``, through
:func:`repro.eval.shard.drain_cases`), and returns the Pareto front
over minimised objectives -- latency, energy and EDP by default.

Two properties keep it honest:

* **Archive semantics.**  Every evaluated design lands in an archive
  keyed by its genome; the reported front is the non-dominated subset
  of the *archive*, not of the last generation, so the search never
  "forgets" a good design.  With a :class:`~repro.eval.store.ResultStore`
  attached, repeated searches (or a widened re-search) replay evaluated
  genomes from disk.
* **Oracle pattern.**  :func:`reference_search` is the scalar reference:
  exhaustive inline evaluation of the whole space plus a naive
  O(n^2) dominance filter, with no NSGA-II, no pool and no store.  The
  equivalence test pins ``dse_search`` to it on a small grid.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, replace
from itertools import product
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.moo import (
    crowding_distance_objectives,
    dominates_objectives,
    non_dominated_sort_objectives,
    pareto_front_indices,
)
from ..obs.trace import resolve_tracer
from .sweeps import Overrides, SweepCase, SweepRunner

__all__ = [
    "DEFAULT_OBJECTIVES",
    "DSEResult",
    "DesignPoint",
    "DesignSpace",
    "FC_OBJECTIVES",
    "dse_search",
    "extract_objectives",
    "fc_design_space",
    "reference_search",
]

#: Default minimised objectives; ``edp`` is derived when absent.
DEFAULT_OBJECTIVES: Tuple[str, ...] = (
    "latency_cycles", "energy_pj", "edp",
)

#: A genome: one value per design axis, in :meth:`DesignSpace.axes`
#: order -- hashable so archives and dedup sets can key on it.
Genome = Tuple[object, ...]


def extract_objectives(
    metrics: Mapping[str, float], names: Sequence[str]
) -> Tuple[float, ...]:
    """Objective vector from a metric dict, deriving ``edp`` on demand.

    ``edp`` (energy-delay product) falls back to
    ``latency_cycles * energy_pj`` when the evaluator does not report it
    directly.
    """
    values = []
    for name in names:
        if name in metrics:
            values.append(float(metrics[name]))
        elif name == "edp":
            values.append(
                float(metrics["latency_cycles"]) * float(metrics["energy_pj"])
            )
        else:
            raise KeyError(
                f"objective {name!r} not in metrics "
                f"{sorted(metrics)} and not derivable"
            )
    return tuple(values)


@dataclass(frozen=True)
class DesignSpace:
    """Discrete search space over (arch, size, ``NoIParams`` knobs).

    Attributes:
        archs: Architecture axis (``"floret"``, ``"siam"``, ...).
        sizes: System-size axis (chiplet counts).
        knobs: ``NoIParams`` field -> candidate values, as a tuple of
            ``(field, (value, ...))`` pairs (hashable); use
            :func:`design_space` to build one from keyword arguments.
        workload: Fixed evaluation workload -- objectives are only
            comparable across designs evaluated on the same traffic.
        seed: Fixed workload RNG seed, same rationale.
        tag: Label stamped on every generated case.
    """

    archs: Tuple[str, ...]
    sizes: Tuple[int, ...] = (36,)
    knobs: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    workload: str = "uniform"
    seed: int = 0
    tag: str = "dse"

    def __post_init__(self) -> None:
        for name, values in (("archs", self.archs), ("sizes", self.sizes)):
            if not values:
                raise ValueError(f"empty design axis {name!r}")
        for knob, values in self.knobs:
            if not values:
                raise ValueError(f"empty value set for knob {knob!r}")

    # -- axes --------------------------------------------------------------

    def axes(self) -> List[Tuple[str, Tuple[object, ...]]]:
        """All design axes as ``(name, values)``, genome order."""
        return [
            ("arch", tuple(self.archs)),
            ("num_chiplets", tuple(self.sizes)),
            *[(knob, tuple(values)) for knob, values in self.knobs],
        ]

    @property
    def num_designs(self) -> int:
        n = 1
        for _, values in self.axes():
            n *= len(values)
        return n

    # -- genome <-> case ---------------------------------------------------

    def case(self, genome: Genome) -> SweepCase:
        """Materialise a genome as a sweep case."""
        axes = self.axes()
        if len(genome) != len(axes):
            raise ValueError(
                f"genome length {len(genome)} != {len(axes)} axes"
            )
        overrides: Overrides = tuple(
            (name, value)
            for (name, _), value in zip(axes[2:], genome[2:])
        )
        return SweepCase(
            arch=genome[0],
            num_chiplets=genome[1],
            workload=self.workload,
            seed=self.seed,
            noi_overrides=overrides,
            tag=self.tag,
        )

    def all_genomes(self) -> List[Genome]:
        """Every genome in the space, axis-major order."""
        return [
            tuple(combo)
            for combo in product(*(values for _, values in self.axes()))
        ]

    def all_cases(self) -> List[SweepCase]:
        return [self.case(g) for g in self.all_genomes()]

    # -- variation operators ----------------------------------------------

    def random_genome(self, rng: random.Random) -> Genome:
        return tuple(rng.choice(values) for _, values in self.axes())

    def mutate(self, genome: Genome, rng: random.Random) -> Genome:
        """Reassign one uniformly chosen axis to a random value."""
        axes = self.axes()
        index = rng.randrange(len(axes))
        mutated = list(genome)
        mutated[index] = rng.choice(axes[index][1])
        return tuple(mutated)

    def crossover(
        self, a: Genome, b: Genome, rng: random.Random
    ) -> Genome:
        """Uniform crossover: each axis inherits from either parent."""
        return tuple(
            x if rng.random() < 0.5 else y for x, y in zip(a, b)
        )


def design_space(
    archs: Sequence[str],
    sizes: Sequence[int] = (36,),
    *,
    workload: str = "uniform",
    seed: int = 0,
    tag: str = "dse",
    **knobs: Sequence[float],
) -> DesignSpace:
    """Convenience builder: ``NoIParams`` knobs as keyword arguments.

    >>> space = design_space(("siam", "kite"), (16, 36),
    ...                      flit_bytes=(16, 32, 64))
    """
    return DesignSpace(
        archs=tuple(archs),
        sizes=tuple(sizes),
        knobs=tuple(
            (name, tuple(values)) for name, values in sorted(knobs.items())
        ),
        workload=workload,
        seed=seed,
        tag=tag,
    )


#: Minimised objectives for closed-loop flow-control searches: the
#: load-sweep evaluator reports no ``latency_cycles``/``energy_pj``;
#: under backpressure the interesting trade-off is mean steady-state
#: latency against the tail.
FC_OBJECTIVES: Tuple[str, ...] = (
    "steady_mean_latency", "steady_max_latency",
)


def fc_design_space(
    archs: Sequence[str] = ("siam",),
    sizes: Sequence[int] = (16,),
    *,
    workload: str = "uniform@0.05:w64+256",
    buffer_flits: Sequence[int] = (4, 16),
    credit_rtt: Sequence[int] = (1, 2),
    seed: int = 0,
    tag: str = "dse-fc",
) -> DesignSpace:
    """Stock closed-loop flow-control space: buffer depth x credit RTT.

    Spans the ``NoIParams.fc_buffer_flits`` / ``fc_credit_rtt`` knobs
    over a :func:`~repro.eval.experiments.parse_load_workload` traffic
    string, so :func:`~repro.eval.experiments.evaluate_load_sweep_case`
    runs every candidate through the credit-backpressure simulator.
    Search it with ``objectives=FC_OBJECTIVES`` -- finite buffers trade
    mean steady-state latency against the stalled tail, which is the
    trade-off the DSE should surface.  Keep ``buffer_flits`` values
    comfortably above 1 on ring-like architectures: tiny buffers
    genuinely deadlock there
    (:class:`~repro.net.flowcontrol.FlowControlDeadlockError`), and an
    oracle search propagates the failure instead of skipping it.
    """
    return design_space(
        archs, sizes,
        workload=workload, seed=seed, tag=tag,
        fc_buffer_flits=tuple(int(v) for v in buffer_flits),
        fc_credit_rtt=tuple(int(v) for v in credit_rtt),
    )


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design: its case, metrics and objective vector."""

    genome: Genome
    case: SweepCase
    metrics: Dict[str, float]
    objectives: Tuple[float, ...]

    def dominates(self, other: "DesignPoint") -> bool:
        return dominates_objectives(self.objectives, other.objectives)


@dataclass(frozen=True)
class DSEResult:
    """Outcome of one design-space search."""

    pareto_front: Tuple[DesignPoint, ...]
    objectives: Tuple[str, ...]
    archive: Tuple[DesignPoint, ...]
    evaluations: int
    store_hits: int
    generations: int
    failures: int

    def front_case_ids(self) -> Tuple[str, ...]:
        return tuple(p.case.case_id for p in self.pareto_front)


def _front_of(
    points: Sequence[DesignPoint],
) -> Tuple[DesignPoint, ...]:
    """Non-dominated subset, sorted by objective vector (deterministic)."""
    indices = pareto_front_indices([p.objectives for p in points])
    front = [points[i] for i in indices]
    front.sort(key=lambda p: (p.objectives, p.case.case_id))
    return tuple(front)


def reference_search(
    space: DesignSpace,
    evaluate,
    *,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> Tuple[DesignPoint, ...]:
    """Scalar oracle: exhaustive inline evaluation + naive O(n^2) front.

    No NSGA-II, no process pool, no store -- deliberately the slowest,
    most obviously correct implementation, following the repo's oracle
    pattern.  Evaluation errors propagate (an oracle must not skip).
    """
    points = []
    for genome in space.all_genomes():
        case = space.case(genome)
        metrics = dict(evaluate(case))
        scalar_metrics = {
            k: float(v) for k, v in metrics.items()
            if isinstance(v, (int, float))
        }
        points.append(
            DesignPoint(
                genome=genome,
                case=case,
                metrics=scalar_metrics,
                objectives=extract_objectives(scalar_metrics,
                                              tuple(objectives)),
            )
        )
    front = [
        p for p in points
        if not any(q.dominates(p) for q in points)
    ]
    front.sort(key=lambda p: (p.objectives, p.case.case_id))
    return tuple(front)


def _drain_generation(
    store, evaluate, cases, *, shard, lease_ttl_s, deadline_s, trace=None
):
    """Drain one generation's cases across the worker fleet.

    Runs this worker's :func:`repro.eval.shard.drain_cases` share (own
    shard slice first, then lease-claimed takeover of orphaned work),
    then reads the whole generation back from the shared store --
    the inter-worker barrier every generation's selection needs.

    Returns ``(results, own_evaluations)`` with ``results`` aligned to
    ``cases``: the stored :class:`~repro.eval.sweeps.SweepResult`, this
    worker's own failure record (store contract: errors are never
    cached), or ``None`` for a case no worker could complete.
    """
    from .shard import drain_cases
    from .store import case_keys

    report = drain_cases(
        store, evaluate, cases,
        shard=shard, lease_ttl_s=lease_ttl_s, deadline_s=deadline_s,
        trace=trace,
    )
    local_failures = {r.case.case_id: r for r in report.failures}
    results = []
    for case, key in zip(cases, case_keys(evaluate, cases)):
        result = store.get(key, case)
        if result is None:
            result = local_failures.get(case.case_id)
        results.append(result)
    return results, report.evaluated


def dse_search(
    space: DesignSpace,
    evaluate,
    *,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    population_size: int = 16,
    generations: int = 8,
    mutation_rate: float = 0.3,
    seed: int = 0,
    workers: Optional[int] = None,
    chunksize: int = 4,
    store=None,
    shard=None,
    lease_ttl_s: float = 30.0,
    sync_timeout_s: Optional[float] = None,
    trace=None,
) -> DSEResult:
    """NSGA-II-style search for the Pareto-optimal designs of ``space``.

    Each generation's unevaluated genomes go through a store-backed
    :class:`~repro.eval.sweeps.SweepRunner` stream (parallel
    across worker processes, cache-hot across searches); selection is
    binary tournament on (non-domination rank, crowding distance);
    variation is uniform crossover plus per-axis mutation.  When the
    population covers the whole space (small grids), generation zero
    already evaluates every design and the result equals
    :func:`reference_search` -- the equivalence test pins exactly that.

    **Sharded generations.**  With ``shard=ShardSpec(i, n)`` (requires
    ``store``), each generation's population drains across the worker
    fleet before selection: this process evaluates its deterministic
    slice through :func:`repro.eval.shard.drain_cases` -- own cases
    first, then lease-claimed work stolen from crashed or slow peers --
    and reads the rest of the generation back from the shared store.
    The search itself (RNG, selection, variation) runs redundantly and
    identically on every worker, since all of them fold the same
    store-exact metrics with the same ``seed``: launching ``n`` workers
    with the same arguments and shards ``0/n .. n-1/n`` yields the same
    :class:`DSEResult` on each, ``n`` times faster per generation.
    ``evaluations``/``store_hits`` count *this worker's* share.
    ``sync_timeout_s`` bounds the per-generation drain (a dead fleet
    raises ``TimeoutError`` instead of hanging the barrier).

    ``trace=`` (a tracer, a trace directory, or the ``REPRO_TRACE``
    default) emits one ``dse_generation`` span per generation carrying
    population, fresh-evaluation and Pareto-front sizes.
    """
    objectives = tuple(objectives)
    if shard is not None and store is None:
        raise ValueError(
            "sharded DSE needs a shared ResultStore: the store is how "
            "generation results cross worker processes"
        )
    rng = random.Random(seed)
    tracer = resolve_tracer(trace)
    runner = SweepRunner(
        evaluate, workers=workers, chunksize=chunksize, store=store,
        trace=trace,
    )
    archive: Dict[Genome, DesignPoint] = {}
    #: Genomes that failed evaluation -- memoised so tournament
    #: offspring re-proposing a deterministically broken design do not
    #: burn an evaluation (and a warning) every generation.
    failed: set = set()
    evaluations = 0
    store_hits = 0
    failures = 0

    def evaluate_batch(genomes: Sequence[Genome], generation: int) -> None:
        nonlocal evaluations, store_hits, failures
        fresh = [
            g for g in dict.fromkeys(genomes)
            if g not in archive and g not in failed
        ]
        if not fresh:
            return
        # The generation index rides the case tag ("dse@g3").  Tags are
        # excluded from store keys, so relabelling costs nothing, and
        # the store becomes a per-generation archive that
        # ``repro.viz.render_pareto_fronts`` can replay.
        cases = [
            replace(space.case(g), tag=f"{space.tag}@g{generation}")
            for g in fresh
        ]
        if shard is not None:
            results, own_evaluations = _drain_generation(
                store, evaluate, cases,
                shard=shard, lease_ttl_s=lease_ttl_s,
                deadline_s=sync_timeout_s, trace=trace,
            )
            evaluations += own_evaluations
            store_hits += (
                sum(1 for r in results if r is not None and r.ok)
                - own_evaluations
            )
        else:
            results = list(runner.stream(cases))
            evaluations += len(fresh) - runner.last_store_hits
            store_hits += runner.last_store_hits
        for genome, result in zip(fresh, results):
            if result is None or not result.ok:
                failures += 1
                failed.add(genome)
                case_id = space.case(genome).case_id
                error = result.error if result is not None else (
                    "evaluation failed on every worker that attempted it "
                    "(errors are never cached; see the worker logs)"
                )
                warnings.warn(
                    f"DSE evaluation failed for {case_id}: {error}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            archive[genome] = DesignPoint(
                genome=genome,
                case=result.case,
                metrics=dict(result.metrics),
                objectives=extract_objectives(result.metrics, objectives),
            )

    # Generation zero: distinct random sample (the whole space if the
    # population covers it).
    all_genomes = space.all_genomes()
    if len(all_genomes) <= population_size:
        population = list(all_genomes)
    else:
        population = rng.sample(all_genomes, population_size)
    with tracer.span("dse_generation", generation=0,
                     population=len(population)) as gen_span:
        evaluate_batch(population, 0)
        gen_span.add(archive=len(archive))

    for _generation in range(generations):
        with tracer.span("dse_generation", generation=_generation + 1,
                         population=len(population)) as gen_span:
            parents = [g for g in population if g in archive]
            if not parents:
                break
            points = [archive[g] for g in parents]
            fronts = non_dominated_sort_objectives(
                [p.objectives for p in points]
            )
            gen_span.add(fronts=[len(front) for front in fronts])
            rank: Dict[int, int] = {}
            crowding: Dict[int, float] = {}
            for depth, front in enumerate(fronts):
                dist = crowding_distance_objectives(
                    [p.objectives for p in points], front
                )
                for i in front:
                    rank[i] = depth
                    crowding[i] = dist[i]

            def tournament() -> Genome:
                a = rng.randrange(len(parents))
                b = rng.randrange(len(parents))
                if rank[a] != rank[b]:
                    return parents[a if rank[a] < rank[b] else b]
                return parents[a if crowding[a] >= crowding[b] else b]

            offspring: List[Genome] = []
            while len(offspring) < population_size:
                child = space.crossover(tournament(), tournament(), rng)
                if rng.random() < mutation_rate:
                    child = space.mutate(child, rng)
                offspring.append(child)
            evaluate_batch(offspring, _generation + 1)
            gen_span.add(fresh_archive=len(archive))
            population = offspring

    points = list(archive.values())
    tracer.flush()
    return DSEResult(
        pareto_front=_front_of(points),
        objectives=objectives,
        archive=tuple(points),
        evaluations=evaluations,
        store_hits=store_hits,
        generations=generations,
        failures=failures,
    )

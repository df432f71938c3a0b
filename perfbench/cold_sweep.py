"""``cold_sweep``: a fresh interpreter runs the paper-figure sweep and an fc DSE.

Every sweep runs in a new process with empty caches and a new store, so
topology builds, routing tables and the queue index are paid inside the
measured region, as a user running one sweep from the shell pays them.
Phases, both inline (``workers=1``):

1. the paper-figure sweep: ``evaluate_mix_case`` over ``ALL_ARCHS`` x
   the five Table II mixes at 100 chiplets;
2. one generation-0 flow-control DSE (``dse_search`` over
   ``fc_design_space``, population covering the space) for siam+kite at
   256 nodes and swap at 100 nodes.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace

from common import (
    REFERENCE_PASS_S,
    HostSpeed,
    Outcome,
    digest,
    median,
    peak_rss_mb,
    remove_dir,
    reset_peak_rss,
    run_child,
    same_metrics,
    scratch_dir,
)

MIXES = ("WL1", "WL2", "WL3", "WL4", "WL5")
MIX_CHIPLETS = 100
#: (archs, size, buffer depths, credit RTTs) of each DSE.  No seed
#: deadlocks at these depths (4- and 8-flit buffers deadlock on swap).
#: The 24 designs outnumber the 19 cheaper mix cases, so the case
#: median falls among cold DSE cases, not on the edge between groups.
DSE_SPACES = (
    (("siam", "kite"), 256, (16, 32), (1, 2)),
    (("swap",), 100, (16, 24, 32, 48), (1, 2, 3, 4)),
)
DSE_WORKLOAD = "uniform@0.05:w64+256"
#: Memory touched before the timed region (about the sweep's peak RSS).
#: A process in a fresh VM otherwise pays first-touch page faults whose
#: cost depends on the host's memory state, not on this code: sweeps
#: started right after another one ran 2.8-3.3 cases/s, others 1.8-2.1.
PREFAULT_MB = 512
#: Set-up-only children per run, for a median ``setup_s``.
SETUP_SAMPLES = 3
#: Cold sweeps per run at least.  The host-speed adjustment leaves about
#: 0.1 of run-to-run spread on one sweep; a second halves its weight.
MIN_SWEEPS = 2


def child_setup() -> dict:
    """The set-up a cold sweep pays: a fresh interpreter that imports
    the package (done by ``run.py``) and opens an empty store."""
    from repro.eval import ResultStore

    path = scratch_dir("cold-setup-")
    ResultStore(path)
    remove_dir(path)
    return {}


def _spaces(seed: int):
    from repro.eval import fc_design_space

    return [
        fc_design_space(archs, (size,), workload=DSE_WORKLOAD,
                        buffer_flits=buffers, credit_rtt=rtts,
                        seed=seed, tag=f"dse{size}")
        for archs, size, buffers, rtts in DSE_SPACES
    ]


#: Cases a case's host-speed factor is taken over, centred on it.
CASE_WINDOW = 5


class SweepSpeed(HostSpeed):
    """Host speed sampled before every case of a sweep."""

    def __init__(self) -> None:
        super().__init__()
        #: ``case_id`` of the case each sample preceded.
        self.case_ids = []

    def before(self, case) -> None:
        self.sample()
        self.case_ids.append(case.case_id)

    def case_factor(self, case_id: str) -> float:
        """Factor of the :data:`CASE_WINDOW` samples around a case's."""
        i = self.case_ids.index(case_id)
        window = self.samples[max(0, i - CASE_WINDOW // 2):
                              i + CASE_WINDOW // 2 + 1]
        return REFERENCE_PASS_S / median(window)


#: The running sweep's :class:`SweepSpeed`.  Module state, because the
#: sweep machinery fingerprints an evaluator by its source and rejects
#: the closures and partials that could carry it.
_speed = None


def sampled_mix_case(case):
    """``evaluate_mix_case`` after a host-speed sample."""
    from repro.eval import evaluate_mix_case

    _speed.before(case)
    return evaluate_mix_case(case)


def sampled_load_sweep_case(case):
    """``evaluate_load_sweep_case`` after a host-speed sample."""
    from repro.eval import evaluate_load_sweep_case

    _speed.before(case)
    return evaluate_load_sweep_case(case)


def _dse(space, store):
    from repro.eval import FC_OBJECTIVES, dse_search

    # Failed designs are counted from DSEResult.failures, not warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return dse_search(
            space, sampled_load_sweep_case, objectives=FC_OBJECTIVES,
            population_size=space.num_designs, generations=0, workers=1,
            store=store,
        )


def child_sweep(seed: int, trace: bool) -> dict:
    """One cold sweep in this (fresh) interpreter; JSON-ready summary."""
    from repro.eval import (
        ALL_ARCHS,
        ResultStore,
        SweepRunner,
        evaluate_load_sweep_case,
        sweep_grid,
    )
    from repro.eval.store import case_from_record

    global _speed

    import numpy as np

    np.ones(PREFAULT_MB << 17).sum()
    reset_peak_rss()  # the sweep's own peak, not the prefault's
    path = scratch_dir("cold-")
    store = ResultStore(path)
    _speed = speed = SweepSpeed()
    spaces = _spaces(seed)
    clock = None
    if trace:
        from shims import LayerClock

        clock = LayerClock().install()

    def phase(fn):
        """(result, wall s less the samples in it, mean sample s, factor)
        of a phase whose evaluator samples before every case."""
        since = len(speed.samples)
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        sampled = speed.samples[since:]
        return (result, wall - sum(sampled), sum(sampled) / len(sampled),
                speed.factor(since))

    try:
        mix, mix_s, _, mix_factor = phase(
            lambda: SweepRunner(sampled_mix_case, workers=1,
                                store=store).run(
                sweep_grid(ALL_ARCHS, (MIX_CHIPLETS,), MIXES)))
        dse_results, dse_walls, dse_samples, dse_factors = [], [], [], []
        for space in spaces:
            result, wall, sample, factor = phase(lambda: _dse(space, store))
            dse_results.append(result)
            dse_walls.append(wall)
            dse_samples.append(sample)
            dse_factors.append(factor)
    finally:
        snapshot = clock.snapshot() if clock else None
        if clock:
            clock.uninstall()
    rss_mb = peak_rss_mb()
    puts = store.stats.puts

    records = [rec for _, rec in store.iter_records()]
    dse_records = [r for r in records if r["case"]["tag"].startswith("dse")]
    # A case's elapsed time includes the sample before it.
    latencies = []
    for case_id, elapsed in ([(r.case.case_id, r.elapsed_s)
                              for r in mix.results]
                             + [(case_from_record(r).case_id, r["elapsed_s"])
                                for r in dse_records]):
        host_s = elapsed - speed.samples[speed.case_ids.index(case_id)]
        latencies.append((host_s, host_s * speed.case_factor(case_id)))
    cases = len(mix) + sum(space.num_designs for space in spaces)
    failed_cases = len(mix.failures) + sum(r.failures for r in dse_results)

    errors = []
    if mix.failures:
        errors.append(f"mix sweep: {len(mix.failures)} failed cases")
    for result in mix.ok:
        if not all(v == v and v >= 0 for v in result.metrics.values()):
            errors.append(f"mix {result.case.case_id}: bad metrics")
    if puts != cases - failed_cases:
        errors.append(f"store kept {puts} of {cases - failed_cases} results")
    for space, result in zip(spaces, dse_results):
        replay = _dse(space, store)
        if replay.evaluations != 0:
            errors.append(f"{space.tag}: warm replay evaluated "
                          f"{replay.evaluations} cases")
        if ([(p.case.case_id, p.objectives) for p in replay.pareto_front]
                != [(p.case.case_id, p.objectives)
                    for p in result.pareto_front]):
            errors.append(f"{space.tag}: warm replay changed the front")
        checked = set()
        for point in result.archive:
            structure = (point.case.arch, point.case.num_chiplets)
            if structure in checked:
                continue
            checked.add(structure)
            oracle = replace(point.case, noi_overrides=(
                point.case.noi_overrides + (("sim_engine", "events"),)))
            if not same_metrics(evaluate_load_sweep_case(oracle),
                                point.metrics):
                errors.append(f"{point.case.case_id}: events engine "
                              "disagrees with auto")
    outputs = sorted(
        [r.case.case_id, r.metrics] for r in mix.ok
    ) + sorted(
        [p.case.case_id, p.metrics] for res in dse_results
        for p in res.archive
    )
    remove_dir(path)
    return {
        "timed_s": mix_s + sum(dse_walls),
        "quiet_s": mix_s * mix_factor + sum(
            w * f for w, f in zip(dse_walls, dse_factors)),
        "speed": speed.samples,
        "latencies_s": latencies,
        "cases": cases,
        "failed_cases": failed_cases,
        "puts": puts,
        "packets": sum(r["metrics"]["injected_packets"]
                       for r in dse_records),
        "dse_overhead_s": sum(dse_walls) - sum(r["elapsed_s"]
                                               for r in dse_records)
        + sum(sample * space.num_designs
              for space, sample in zip(spaces, dse_samples)),
        "rss_mb": rss_mb,
        "errors": errors,
        "digest": digest(outputs),
        "layers": snapshot,
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_SAMPLES):
        _, wall, factor = speed.around(lambda: run_child("cold_setup"))
        setups.append((wall, wall * factor))
    start = time.perf_counter()
    sweeps = []
    checked = sweeps
    overhead = 0.0
    if trace:
        plain = run_child("cold_sweep", str(seed), "0")
        sweeps.append(run_child("cold_sweep", str(seed), "1"))
        overhead = sweeps[0]["timed_s"] / plain["timed_s"] - 1.0
        checked = sweeps + [plain]
    else:
        while True:
            t0 = time.perf_counter()
            sweeps.append(run_child("cold_sweep", str(seed), "0"))
            # Start another sweep only if it should end within the run,
            # so the sweep count does not flip with host speed.
            now = time.perf_counter()
            if (len(sweeps) >= MIN_SWEEPS
                    and now - start + (now - t0) > seconds):
                break

    out = Outcome()
    cases = sum(s["cases"] for s in sweeps)
    failed_cases = sum(s["failed_cases"] for s in sweeps)
    puts = sum(s["puts"] for s in sweeps)
    latencies = [tuple(t) for s in sweeps for t in s["latencies_s"]]
    rounds = [(s["cases"], s["packets"], s["timed_s"], s["quiet_s"])
              for s in sweeps]
    rss_mb = median([s["rss_mb"] for s in sweeps])
    # Every case is one attempt and each successful case one put.
    out.attempted = cases + (cases - failed_cases)
    out.failed = failed_cases + (cases - failed_cases - puts)
    for s in checked:
        out.errors += s["errors"]
    digests = {s["digest"] for s in checked}
    out.check(len(digests) == 1, f"cold sweeps disagree: {sorted(digests)}")
    out.digest = sweeps[0]["digest"]
    out.end_to_end(setups=setups, rounds=rounds, latencies=latencies,
                   rss_mb=rss_mb, speed=speed.samples + [
                       t for s in sweeps for t in s["speed"]])
    out.details.update({
        "sweeps": (len(sweeps), "count"),
        "cases": (cases, "count"),
        "cases_per_s": out.metrics["ops_per_s"],
        "case_p50_ms": out.metrics["op_p50_ms"],
        "sim_packets_per_s": out.metrics["items_per_s"],
        "failed_frac": (out.failed_frac, "ratio"),
    })
    if trace:
        from shims import layer_metrics

        out.layers = layer_metrics(
            sweeps[0]["layers"],
            dse_overhead_s=sweeps[0]["dse_overhead_s"],
            http_overhead_ms=0.0,
            overhead_frac=overhead,
            failed_frac=out.failed_frac,
        )
    return out

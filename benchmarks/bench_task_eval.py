"""Task-evaluation bench: batched engine + schedule-memo speedup gates.

Two acceptance gates for the cross-layer batched task evaluator:

1. **Batched ratio**: over the Table I / Table II mix grid (every
   distinct (model, placement) pair of the paper's mixes, placed with
   each architecture's own mapper), the cross-layer batched
   ``evaluate_task`` must be at least 3x faster than the pinned
   ``evaluate_task_perlayer`` oracle -- with the equivalence itself
   enforced by ``tests/test_perf.py`` (bit-exact ints, 1e-9 floats).
   The gate asserts the *ratio* of the two engines on the same host
   and the same grid, so it is robust to runner variance.
2. **Memo ratio**: on a repeat-heavy mix (the Table II pattern: one
   mid-size DNN repeated far beyond the system's concurrency), a
   memoizing ``SystemScheduler`` must finish at least 5x faster than
   a cold one (``memoize=False``) while producing a bit-identical
   ``ScheduleResult`` and registering cache hits in the
   ``sched_taskperf_cache_hits`` counter.  Each side is the median of
   :data:`MEMO_REPEATS` runs, each on a fresh scheduler: one run takes
   only 10-20 ms, so a single timing would carry the host's noise into
   the ratio.

``REPRO_SWEEP_QUICK=1`` shrinks the grids (two architectures at 64
chiplets, fewer repeats) but keeps both ratio floors armed at 3x/5x:
the batched ratio is per-task and the memo ratio saturates with
repeats/slots, so neither floor needs relaxing on small grids.

Every run appends its measured ratios to ``ratio-history.jsonl``
inside ``REPRO_STORE_DIR`` (uploaded with the sweep-results artifact)
and *warns* -- never fails -- when a ratio drifts more than 20% below
the trailing median: the hard floor catches cliffs, the history watch
catches slow drift.
"""

from __future__ import annotations

import os
import statistics
import time
import warnings
from pathlib import Path

from _bench_utils import quick_mode, run_once

from repro.core.scheduler import SystemScheduler
from repro.eval import (
    ALL_ARCHS,
    append_ratio_history,
    format_table,
    load_ratio_history,
    ratio_drift_warning,
)
from repro.eval.experiments import (
    mapper_for,
    mix_task_placements,
    topology_for,
)
from repro.net.perf import evaluate_task, evaluate_task_perlayer
from repro.obs.metrics import REGISTRY
from repro.workloads.tasks import DNNTask
from repro.workloads.zoo import table1_model

BATCHED_FLOOR = 3.0
MEMO_FLOOR = 5.0

#: Mixes whose distinct-model union covers the Table I DNNs the mapper
#: can place (the batched-gate grid).
GATE_MIXES = ("WL1", "WL2")
GATE_MIXES_QUICK = ("WL2",)

#: The repeat-heavy memo mix: one deep DNN (Table I DNN6 = ResNet-152,
#: the priciest evaluation per task relative to its mapping overhead)
#: repeated far beyond the system's concurrent task slots.
MEMO_DNN = "DNN6"
MEMO_TASKS = 120
MEMO_TASKS_QUICK = 60
#: Timed runs per side of the memo gate; the gate compares medians.
MEMO_REPEATS = 5


def _gate_grid():
    if quick_mode():
        return ("floret", "siam"), 64, GATE_MIXES_QUICK, 3
    return ALL_ARCHS, 100, GATE_MIXES, 5


def _memo_grid():
    if quick_mode():
        return 64, MEMO_TASKS_QUICK
    return 100, MEMO_TASKS


def _run_batched_gate():
    archs, size, mixes, rounds = _gate_grid()
    rows = []
    totals = {"batched": 0.0, "perlayer": 0.0}
    for arch in archs:
        topo = topology_for(arch, size)
        topo.routing_tables()
        grid = []
        seen = set()
        for mix in mixes:
            for model, plan, ids in mix_task_placements(arch, mix, size):
                if (model.name, model.dataset) in seen:
                    continue
                seen.add((model.name, model.dataset))
                grid.append((model, plan, ids))
        # Warm every code path and the plan/model derivation caches
        # outside the timed region, for both engines alike.
        for model, plan, ids in grid:
            evaluate_task(topo, model, plan, ids)
            evaluate_task_perlayer(topo, model, plan, ids)

        timed = {}
        for engine, fn in (("batched", evaluate_task),
                           ("perlayer", evaluate_task_perlayer)):
            t0 = time.perf_counter()
            for _ in range(rounds):
                for model, plan, ids in grid:
                    fn(topo, model, plan, ids)
            timed[engine] = time.perf_counter() - t0
            totals[engine] += timed[engine]
        rows.append((
            f"{arch}/{size}", len(grid), rounds,
            timed["perlayer"], timed["batched"],
            timed["perlayer"] / max(timed["batched"], 1e-12),
        ))
    return rows, totals


def _run_memo_gate():
    size, num_tasks = _memo_grid()
    topo = topology_for("floret", size)
    topo.routing_tables()
    model = table1_model(MEMO_DNN)
    tasks = [
        DNNTask(task_id=f"memo/{i:03d}", dnn_id=MEMO_DNN, model=model)
        for i in range(num_tasks)
    ]

    def scheduler(memoize):
        return SystemScheduler(
            topo, mapper_for("floret", size), memoize=memoize
        )

    # Warm the plan/model derivation caches and every code path so the
    # cold run measures the evaluation engine, not one-time setup.
    scheduler(memoize=False).run(tasks[:4])

    def timed(memoize):
        """(result, median seconds) over fresh schedulers."""
        times, results = [], []
        for _ in range(MEMO_REPEATS):
            t0 = time.perf_counter()
            results.append(scheduler(memoize=memoize).run(tasks))
            times.append(time.perf_counter() - t0)
        assert all(r == results[0] for r in results)
        return results[0], statistics.median(times)

    cold, cold_s = timed(memoize=False)
    hits_before = REGISTRY.counter("sched_taskperf_cache_hits").value
    memo, memo_s = timed(memoize=True)
    hits = REGISTRY.counter("sched_taskperf_cache_hits").value - hits_before

    assert memo == cold, (
        "memoized ScheduleResult differs from the cold run"
    )
    assert hits > 0, "memoized run registered no cache hits"
    return cold, cold_s, memo_s, hits // MEMO_REPEATS, num_tasks


def _run():
    gate_rows, totals = _run_batched_gate()
    memo_result, cold_s, memo_s, hits, num_tasks = _run_memo_gate()
    return gate_rows, totals, memo_result, cold_s, memo_s, hits, num_tasks


def test_task_eval(benchmark):
    (gate_rows, totals, memo_result, cold_s, memo_s, hits,
     num_tasks) = run_once(benchmark, _run)

    speedup = totals["perlayer"] / max(totals["batched"], 1e-12)
    memo_speedup = cold_s / max(memo_s, 1e-12)

    print()
    print(format_table(
        ["grid", "cases", "rounds", "perlayer (s)", "batched (s)",
         "speedup"],
        gate_rows,
        title="Batched-engine gate: cross-layer evaluate_task vs "
              "per-layer oracle",
    ))
    print(format_table(
        ["tasks", "makespan", "cold median (s)", "memoized median (s)",
         "hits/run", "speedup"],
        [(num_tasks, memo_result.makespan_cycles, cold_s, memo_s,
          hits, memo_speedup)],
        title=f"Schedule-memo gate: {MEMO_DNN} x{num_tasks} on "
              "floret (bit-identical results)",
    ))

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        history = load_ratio_history(history_path)
        for bench, ratio, cases in (
            ("task_eval", speedup, sum(r[1] for r in gate_rows)),
            ("task_eval_memo", memo_speedup, num_tasks),
        ):
            prior = [
                rec for rec in history
                if rec.get("bench") == bench
                and rec.get("quick") == quick_mode()
            ]
            drift = ratio_drift_warning(prior, ratio, tolerance=0.2)
            if drift is not None:
                warnings.warn(f"{bench} drift watch: {drift}",
                              RuntimeWarning)
                print(f"WARNING: {drift}")
            append_ratio_history(history_path, {
                "bench": bench,
                "quick": quick_mode(),
                "speedup": round(ratio, 4),
                "cases": cases,
                "unix_time": round(time.time(), 3),
            })

    assert speedup >= BATCHED_FLOOR, (
        f"batched evaluate_task only {speedup:.1f}x faster than the "
        f"per-layer oracle (floor {BATCHED_FLOOR}x) over the mix grid"
    )
    assert memo_speedup >= MEMO_FLOOR, (
        f"memoized scheduler only {memo_speedup:.1f}x faster than cold "
        f"(floor {MEMO_FLOOR}x) on {num_tasks} repeated tasks"
    )

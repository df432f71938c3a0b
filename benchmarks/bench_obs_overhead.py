"""Observability-overhead gate: tracing must be free when disabled.

The whole ``repro.obs`` layer rests on one promise: an *untraced* run
pays nothing measurable.  This bench holds that promise to a number and
prices the enabled path honestly:

1. **Disabled-tracer gate (hard).**  With ``REPRO_TRACE`` unset, a
   load-sweep-style case loop through the instrumented
   :func:`~repro.eval.sweeps._evaluate_one` path (Stopwatch, registry
   counters, latency histogram, null-tracer check) must stay within
   **3%** of the bare ``evaluate(case)`` call.  The gate measures the
   difference, not two totals that host load moves apart: the
   wrapper's cost is timed alone, around an evaluator that replays
   recorded metrics (median of :data:`PAIRS` alternating blocks), and
   set against the CPU time of a median real case.  The
   measured ratio (baseline / instrumented, ~1.0) is appended to
   ``ratio-history.jsonl`` under ``REPRO_STORE_DIR`` with the usual
   >20% drift warning.

2. **Enabled-tracer price list (informational).**  Per engine tier
   (``events`` / ``epochs``), the same contended packet grid is
   resolved with ``profile=False`` and ``profile=True`` (phase timings
   and dispatch counters); and one traced
   :func:`~repro.eval.shard.drain_cases` run is compared against an
   untraced one.  These rows quantify what switching ``REPRO_TRACE``
   on actually costs -- they are printed, not gated, because enabled
   tracing is allowed to cost.

3. **Attribution-off gate (hard) + attribution price list.**  The
   latency-attribution layer (``attribution=True`` on
   ``simulate_packets`` + :func:`~repro.net.journey.latency_breakdown`)
   follows the same promise: with ``sim_attribution`` left at its
   default, the load-sweep evaluator must stay within **3%** of the
   pre-attribution path -- measured by draining the same grid with and
   without an explicit ``sim_attribution=0.0`` override (the override
   path exercises the knob plumbing without enabling collection), as
   the median ratio of :data:`PAIRS` passes that time each case on
   both sides back to back.  The
   ratio is drift-watched under ``bench="attr_off_overhead"``.  The
   informational side prices ``attribution=True`` per engine tier:
   trace collection + the order-invariant breakdown reduction.
"""

from __future__ import annotations

import os
import statistics
import time
import warnings
from dataclasses import replace
from pathlib import Path

from _bench_utils import quick_mode, run_once

from repro.eval import (
    ResultStore,
    append_ratio_history,
    evaluate_load_sweep_case,
    format_table,
    load_ratio_history,
    ratio_drift_warning,
    sweep_grid,
)
from repro.eval.shard import drain_cases
from repro.eval.sweeps import (
    _evaluate_one,
    case_topology,
    evaluate_comm_case,
)
from repro.net.journey import latency_breakdown
from repro.net.simulator import simulate, simulate_packets
from repro.obs import REGISTRY

ENGINES = ("events", "epochs")
#: Disabled-path overhead ceiling: instrumented <= 1.03x bare.
OVERHEAD_CEILING = 1.03
#: Timing repeats of the informational price lists (best of).
REPEATS = 5
#: Alternating timed pairs of each gate (the gate takes their median).
PAIRS = 31
#: Calls of each case per timed block of the disabled-tracer gate.
BLOCK_CALLS = 50
#: Real evaluations per case that the disabled-tracer gate's case time
#: is the fastest of.
CASE_PASSES = 5


def _gate_grid():
    """The load-sweep grid the disabled-tracer gate times."""
    seeds = (0,) if quick_mode() else (0, 1)
    return sweep_grid(
        archs=("siam", "kite"), sizes=(36,),
        workloads=("uniform@0.04", "uniform@0.06"), seeds=seeds,
    )


def _drain_grid():
    """A cheap comm grid for the traced-drain price-list row."""
    seeds = (0, 1) if quick_mode() else (0, 1, 2, 3)
    return sweep_grid(
        archs=("siam", "kite"), sizes=(36,),
        workloads=("uniform", "transpose", "hotspot"), seeds=seeds,
    )


def _best_of(fn, *args):
    """Minimum wall-clock of ``REPEATS`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _disabled_gate():
    """Per-case cost of the instrumented ``_evaluate_one`` wrapper.

    The wrapper's work (stopwatch, metrics split, registry counters,
    latency histogram, null-tracer check) does not depend on what the
    evaluator computes, so it is timed alone, around an evaluator that
    only returns each case's recorded metrics: :data:`PAIRS`
    alternating blocks of bare and wrapped calls, the median of their
    per-call differences.  The overhead is that cost over the median
    case's CPU time (each case's fastest of :data:`CASE_PASSES`).
    """
    assert not os.environ.get("REPRO_TRACE"), (
        "the disabled-tracer gate must run with REPRO_TRACE unset"
    )
    cases = _gate_grid()
    # The first pass warms topology/routing caches.  A case's time is
    # its fastest later pass: host contention only ever adds to it.
    recorded, fastest = {}, {}
    for rep in range(CASE_PASSES + 1):
        for case in cases:
            t0 = time.process_time()
            recorded[case] = evaluate_load_sweep_case(case)
            if rep:
                fastest[case] = min(fastest.get(case, float("inf")),
                                    time.process_time() - t0)
    case_s = statistics.median(fastest.values())

    def replay(case):
        return recorded[case]

    def bare():
        for case in cases:
            replay(case)

    def instrumented():
        for case in cases:
            assert _evaluate_one(replay, case).ok

    diffs = []
    for p in range(PAIRS):
        spent = {}
        for fn in (bare, instrumented) if p % 2 == 0 else (instrumented,
                                                            bare):
            t0 = time.process_time()
            for _ in range(BLOCK_CALLS):
                fn()
            spent[fn] = time.process_time() - t0
        diffs.append((spent[instrumented] - spent[bare])
                     / (BLOCK_CALLS * len(cases)))
    instr_s = max(statistics.median(diffs), 0.0)
    return {
        "cases": len(cases),
        "bare_s": case_s,
        "instr_s": case_s + instr_s,
        "overhead": (case_s + instr_s) / case_s,
        "ratio": case_s / (case_s + instr_s),
    }


def _attr_off_gate():
    """Default evaluator path vs an explicit ``sim_attribution=0.0``.

    Both sides run :func:`evaluate_load_sweep_case`; the override side
    pays the knob plumbing (override resolution, a distinct topology
    cache entry, the ``attribution`` branch test in the simulator) but
    must not pay for trace collection itself.  Each of :data:`PAIRS`
    passes times every case on both sides back to back, alternating
    which goes first; the overhead is the median of the passes' ratios.
    CPU time (``process_time``) leaves out time the host gives to other
    processes.
    """
    plain_cases = _gate_grid()
    off_cases = [
        replace(c, noi_overrides=(("sim_attribution", 0.0),),
                tag="attr-off")
        for c in plain_cases
    ]
    # Warm topology/routing caches on both sides.
    for case in plain_cases + off_cases:
        evaluate_load_sweep_case(case)

    ratios, plain_totals, off_totals = [], [], []
    for p in range(PAIRS):
        spent = {True: 0.0, False: 0.0}
        for i, pair in enumerate(zip(plain_cases, off_cases)):
            for off in (False, True) if (p + i) % 2 == 0 else (True, False):
                t0 = time.process_time()
                evaluate_load_sweep_case(pair[off])
                spent[off] += time.process_time() - t0
        ratios.append(spent[True] / max(spent[False], 1e-12))
        plain_totals.append(spent[False] / len(plain_cases))
        off_totals.append(spent[True] / len(plain_cases))
    overhead = statistics.median(ratios)
    return {
        "cases": len(plain_cases),
        "bare_s": statistics.median(plain_totals),
        "off_s": statistics.median(off_totals),
        "overhead": overhead,
        "ratio": 1.0 / overhead,
    }


def _simulate_plain(topo, table, engine):
    simulate(topo, table, engine=engine)


def _simulate_profiled(topo, table, engine):
    simulate(topo, table, engine=engine, profile=True)


def _simulate_attributed(topo, table, engine):
    sim = simulate_packets(topo, table, engine=engine, attribution=True)
    latency_breakdown(sim, topo)


def _engine_price_list(tmp):
    """Enabled-profiling cost per engine tier + traced-drain cost."""
    from repro.eval.experiments import load_sweep_traffic, \
        parse_load_workload
    from repro.eval.sweeps import SweepCase

    size, workload = (64, "uniform@0.08") if quick_mode() else \
        (100, "uniform@0.08")
    case = SweepCase(arch="siam", num_chiplets=size, workload=workload)
    topo = case_topology(case)
    table = load_sweep_traffic(parse_load_workload(workload), size, seed=1)
    topo.routing_tables().queue_index()

    rows = []
    attr_rows = []
    for engine in ENGINES:
        simulate(topo, table[:64], engine=engine)  # warm the code path
        plain_s = _best_of(_simulate_plain, topo, table, engine)
        # profile=True: phase timings + dispatch counters, no tracer.
        profiled_s = _best_of(_simulate_profiled, topo, table, engine)
        rows.append((
            engine, plain_s, profiled_s,
            profiled_s / max(plain_s, 1e-12),
        ))
        # attribution=True: grant-trace collection + the journey
        # reduction into a LatencyBreakdown.
        _simulate_attributed(topo, table[:64], engine)
        attr_s = _best_of(_simulate_attributed, topo, table, engine)
        attr_rows.append((
            engine, plain_s, attr_s, attr_s / max(plain_s, 1e-12),
        ))

    # One traced drain vs one untraced drain of the same small grid.
    cases = _drain_grid()
    untraced_s = _best_of(
        lambda: drain_cases(ResultStore(_fresh_dir(tmp)),
                            evaluate_comm_case, cases, worker="plain")
    )
    traced_s = _best_of(
        lambda: drain_cases(ResultStore(_fresh_dir(tmp)),
                            evaluate_comm_case, cases, worker="traced",
                            trace=_fresh_dir(tmp))
    )
    rows.append((
        "drain+trace", untraced_s, traced_s,
        traced_s / max(untraced_s, 1e-12),
    ))
    return rows, attr_rows


_DIR_SEQ = [0]


def _fresh_dir(tmp) -> Path:
    _DIR_SEQ[0] += 1
    return Path(tmp) / f"scratch-{_DIR_SEQ[0]}"


def _run(tmp):
    gate = _disabled_gate()
    attr_gate = _attr_off_gate()
    price_list, attr_prices = _engine_price_list(tmp)
    return gate, attr_gate, price_list, attr_prices


def test_obs_overhead(benchmark, tmp_path):
    gate, attr_gate, price_list, attr_prices = run_once(
        benchmark, _run, tmp_path
    )

    print()
    print(format_table(
        ["path", "cases", "bare (s/case)", "instrumented (s/case)",
         "overhead"],
        [("disabled tracer", gate["cases"], gate["bare_s"],
          gate["instr_s"], gate["overhead"]),
         ("attribution off", attr_gate["cases"], attr_gate["bare_s"],
          attr_gate["off_s"], attr_gate["overhead"])],
        title="Disabled-path gates: median case vs the same plus the "
              "_evaluate_one wrapper's cost (REPRO_TRACE unset), and "
              "default vs sim_attribution=0.0 override",
        float_format="{:.4f}",
    ))
    print(format_table(
        ["tier", "plain (s)", "profiled/traced (s)", "overhead"],
        price_list,
        title="Enabled-observability price list (informational)",
        float_format="{:.4f}",
    ))
    print(format_table(
        ["tier", "plain (s)", "attributed (s)", "overhead"],
        attr_prices,
        title="Latency-attribution price list (informational): "
              "simulate_packets(attribution=True) + latency_breakdown",
        float_format="{:.4f}",
    ))

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        history = load_ratio_history(history_path)
        for bench, measured in (("obs_overhead", gate),
                                ("attr_off_overhead", attr_gate)):
            prior = [
                rec for rec in history
                if rec.get("bench") == bench
                and rec.get("quick") == quick_mode()
            ]
            drift = ratio_drift_warning(prior, measured["ratio"],
                                        tolerance=0.2)
            if drift is not None:
                warnings.warn(f"{bench} drift watch: {drift}",
                              RuntimeWarning)
                print(f"WARNING: {drift}")
            append_ratio_history(history_path, {
                "bench": bench,
                "quick": quick_mode(),
                "speedup": round(measured["ratio"], 4),
                "cases": measured["cases"],
                "unix_time": round(time.time(), 3),
            })

    assert gate["overhead"] <= OVERHEAD_CEILING, (
        f"disabled-tracer instrumentation costs "
        f"{(gate['overhead'] - 1) * 100:.1f}% of a median case "
        f"(ceiling {(OVERHEAD_CEILING - 1) * 100:.0f}%)"
    )
    assert attr_gate["overhead"] <= OVERHEAD_CEILING, (
        f"attribution-off path costs "
        f"{(attr_gate['overhead'] - 1) * 100:.1f}% over the default "
        f"evaluator loop (ceiling {(OVERHEAD_CEILING - 1) * 100:.0f}%)"
    )
    # The registry counters did run (they are the always-on part).
    snapshot = REGISTRY.snapshot()["counters"]
    assert snapshot.get("cases_evaluated", 0) >= gate["cases"]

"""Load-sweep bench: latency vs injection rate + engine speedup gate.

Two acceptance gates for the epoch-synchronous contention engine:

1. **Speedup ratio**: on a majority-contended packet grid (open-loop
   Bernoulli injection near saturation), ``engine="epochs"`` must
   resolve the same packets at least 5x faster than the
   ``engine="events"`` heap oracle -- with bit-identical results.  The
   gate asserts the *ratio* of the two engines on the same host and
   the same packets, not wall-clock, so it is robust to runner
   variance (both engines slow down together on a loaded machine).
2. **Sweep layer**: the latency-vs-injection-rate experiment family
   (``evaluate_load_sweep_case``) rides ``SweepRunner`` with a
   ``ResultStore``, so saturation sweeps cache and resume like every
   other figure bench.  ``REPRO_STORE_DIR`` points the store at a
   persistent directory (CI uploads it with the sweep-results
   artifact).

``REPRO_SWEEP_QUICK=1`` shrinks both grids and relaxes the ratio gate
to 2x (small grids amortise less of the vectorized engine's fixed
per-epoch cost).

Every run also appends its measured speedup ratio to
``ratio-history.jsonl`` inside ``REPRO_STORE_DIR`` (uploaded with the
sweep-results artifact) and *warns* -- never fails -- when a ratio
drifts more than 20% below the trailing median: the hard floor catches
cliffs, the history watch catches slow drift.
"""

from __future__ import annotations

import os
import time
import warnings
from pathlib import Path

from _bench_utils import quick_mode, run_once

from repro.eval import (
    ResultStore,
    SweepRunner,
    append_ratio_history,
    evaluate_load_sweep_case,
    format_table,
    load_ratio_history,
    ratio_drift_warning,
    sweep_grid,
)
from repro.eval.experiments import load_sweep_traffic, parse_load_workload
from repro.eval.sweeps import SweepCase, case_topology
from repro.net.simulator import simulate

#: (arch, num_chiplets, workload) cases for the timed speedup gate --
#: large systems near saturation, where virtually every packet shares a
#: link with another ("majority-contended").
GATE_CASES = (
    ("siam", 196, "uniform@0.06"),
    ("siam", 256, "uniform@0.06"),
    ("kite", 256, "uniform@0.05"),
)
GATE_CASES_QUICK = (
    ("siam", 100, "uniform@0.1"),
)

#: The latency-vs-injection-rate figure grid.
SWEEP_ARCHS = ("floret", "siam", "kite", "swap")
SWEEP_RATES = ("uniform@0.02", "uniform@0.05", "uniform@0.08")
SWEEP_RATES_QUICK = ("uniform@0.02", "uniform@0.06")


def _gate_cases():
    return GATE_CASES_QUICK if quick_mode() else GATE_CASES


def _sweep_cases():
    if quick_mode():
        cases = sweep_grid(archs=("siam", "kite"), sizes=(36,),
                           workloads=SWEEP_RATES_QUICK, seeds=(0,))
    else:
        cases = sweep_grid(archs=SWEEP_ARCHS, sizes=(64,),
                           workloads=SWEEP_RATES, seeds=(0,))
    # One attribution-on case (distinct rate so the pivot keeps a clean
    # row): its per-packet/per-link breakdown arrays ride the store's
    # npz payloads and its attr_* counters land in any trace this bench
    # runs under, so CI's merged trace report exercises the
    # attribution section end to end.
    cases += sweep_grid(
        archs=("siam",), sizes=(36,) if quick_mode() else (64,),
        workloads=("uniform@0.07",), seeds=(0,),
        overrides=((("sim_attribution", 1.0),),), tag="attr",
    )
    return cases


def _assert_reports_identical(events, epochs, label):
    assert events.makespan_cycles == epochs.makespan_cycles, label
    assert events.mean_packet_latency == epochs.mean_packet_latency, label
    assert events.max_packet_latency == epochs.max_packet_latency, label
    assert events.packets_delivered == epochs.packets_delivered, label
    assert events.message_completion == epochs.message_completion, label


def _run_gate():
    rows = []
    totals = {"events": 0.0, "epochs": 0.0}
    for arch, size, workload in _gate_cases():
        case = SweepCase(arch=arch, num_chiplets=size, workload=workload)
        topo = case_topology(case)
        spec = parse_load_workload(workload)
        table = load_sweep_traffic(spec, size, seed=1)
        # Warm the routing tables, queue index and every code path
        # outside the timed region, for every engine alike.
        topo.routing_tables().queue_index()
        for engine in totals:
            simulate(topo, table[:64], engine=engine)

        timed = {}
        reports = {}
        for engine in totals:
            t0 = time.perf_counter()
            reports[engine] = simulate(topo, table, engine=engine)
            timed[engine] = time.perf_counter() - t0
            totals[engine] += timed[engine]

        label = f"{arch}/{size}/{workload}"
        events, epochs = reports["events"], reports["epochs"]
        _assert_reports_identical(events, epochs, label)
        contended = 1.0 - (
            epochs.batched_packets / epochs.packets_delivered
        )
        assert contended > 0.5, (
            f"{label}: grid not majority-contended ({contended:.2f})"
        )
        rows.append((
            label, events.packets_delivered, f"{contended:.2f}",
            timed["events"], timed["epochs"],
            timed["events"] / max(timed["epochs"], 1e-12),
            epochs.epochs,
        ))
    return rows, totals


def _run():
    gate_rows, totals = _run_gate()
    store_dir = os.environ.get("REPRO_STORE_DIR")
    store = ResultStore(store_dir) if store_dir else None
    runner = SweepRunner(evaluate_load_sweep_case, workers=4, store=store)
    outcome = runner.run(_sweep_cases())
    assert not outcome.failures, outcome.failures
    return gate_rows, totals, outcome


def test_load_sweep(benchmark):
    gate_rows, totals, outcome = run_once(benchmark, _run)
    events_s, epochs_s = totals["events"], totals["epochs"]

    table = format_table(
        ["case", "packets", "contended", "events (s)", "epochs (s)",
         "speedup", "epochs run"],
        gate_rows,
        title="Contended-engine gate: event heap vs epoch-synchronous",
    )
    print()
    print(table)
    latency = outcome.pivot("steady_mean_latency")
    throughput = outcome.pivot("steady_throughput")
    archs = tuple(a for a in SWEEP_ARCHS
                  if any(a in cols for cols in latency.values()))
    fig_rows = [
        [workload]
        + [latency[workload].get(a, float("nan")) for a in archs]
        + [throughput[workload].get(a, float("nan")) for a in archs]
        for workload in sorted(latency)
    ]
    print(format_table(
        ["workload"]
        + [f"lat:{a}" for a in archs]
        + [f"thr:{a}" for a in archs],
        fig_rows,
        title="Steady-state latency (cycles) and accepted throughput "
              "(pkt/node/cycle) vs injection rate",
    ))

    speedup = events_s / max(epochs_s, 1e-12)
    floor = 2.0 if quick_mode() else 5.0

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        prior = [
            rec for rec in load_ratio_history(history_path)
            if rec.get("bench") == "load_sweep"
            and rec.get("quick") == quick_mode()
        ]
        drift = ratio_drift_warning(prior, speedup, tolerance=0.2)
        if drift is not None:
            warnings.warn(f"load_sweep drift watch: {drift}",
                          RuntimeWarning)
            print(f"WARNING: {drift}")
        append_ratio_history(history_path, {
            "bench": "load_sweep",
            "quick": quick_mode(),
            "speedup": round(speedup, 4),
            "cases": len(gate_rows),
            "unix_time": round(time.time(), 3),
        })

    assert speedup >= floor, (
        f"epoch engine only {speedup:.1f}x faster than the event heap "
        f"(floor {floor}x) over {len(gate_rows)} majority-contended cases"
    )

"""Sweep-engine benchmark: vectorized vs scalar over 100+ scenarios.

Acceptance gate for the vectorized evaluation engine: a sweep over at
least 100 (topology, workload, parameter) scenarios must complete at
least 5x faster on the batched NumPy engine than on the scalar
reference path, while producing identical integer metrics and energies
within 1e-9 relative tolerance.

The scalar pass reuses the same warmed topologies and route caches as
the vectorized pass, so the measured ratio isolates the per-flow Python
accumulation cost -- exactly what the engine removed.  Set
``REPRO_SWEEP_QUICK=1`` (the CI smoke invocation) to shrink the grid
and skip the timing assertion, which is hardware-dependent.
"""

from __future__ import annotations

import time

from _bench_utils import quick_mode, run_once

from repro.eval import (
    RunningPivot,
    RunningStats,
    SweepRunner,
    evaluate_comm_case,
    format_table,
    sweep_grid,
)
from repro.eval.sweeps import case_topology, synthetic_traffic
from repro.net.analytic import communication_cost
from repro.net.vectorized import communication_cost_vec

ARCHS = ("floret", "siam", "kite", "swap")
PATTERNS = ("uniform", "neighbor", "hotspot", "transpose")
FLIT_OVERRIDES = ((), (("flit_bytes", 16),), (("flit_bytes", 64),))


def _grid():
    if quick_mode():
        return sweep_grid(archs=("siam", "kite"), sizes=(16,),
                          workloads=("uniform", "neighbor"), seeds=(0,))
    cases = []
    for seeds in ((0, 1, 2),):
        cases += sweep_grid(
            archs=ARCHS, sizes=(36, 64), workloads=PATTERNS,
            seeds=seeds, overrides=FLIT_OVERRIDES,
        )
    return cases


def _timed_pass(cases, evaluate):
    t0 = time.perf_counter()
    reports = [evaluate(c) for c in cases]
    return reports, time.perf_counter() - t0


def _scalar_case(case):
    topo = case_topology(case)
    transfers = [
        tuple(row)
        for row in synthetic_traffic(
            case.workload, case.num_chiplets, case.seed
        ).tolist()
    ]
    return communication_cost(topo, transfers)


def _vector_case(case):
    topo = case_topology(case)
    return communication_cost_vec(
        topo, synthetic_traffic(case.workload, case.num_chiplets, case.seed)
    )


def _run():
    cases = _grid()
    # Warm every topology and its routing tables outside the timed
    # region so both passes see identical cached state.
    for case in cases:
        case_topology(case).routing_tables()
    scalar_reports, scalar_s = _timed_pass(cases, _scalar_case)
    vector_reports, vector_s = _timed_pass(cases, _vector_case)
    # The SweepRunner path (process fan-out) must agree with the inline
    # vectorized pass.
    outcome = SweepRunner(evaluate_comm_case, workers=4).run(cases)
    assert not outcome.failures, outcome.failures
    # The streaming path folds the same grid into running aggregations
    # with bounded memory; its aggregates must match gather-at-end.
    stream_aggs = (RunningPivot("energy_pj"),
                   RunningStats("latency_cycles"))
    stream_out = SweepRunner(
        evaluate_comm_case, workers=4
    ).run_stream(cases, stream_aggs)
    assert not stream_out.failures, stream_out.failures
    return (cases, scalar_reports, scalar_s, vector_reports, vector_s,
            outcome, stream_aggs)


def test_sweep_engine_speedup(benchmark):
    (cases, scalar_reports, scalar_s, vector_reports, vector_s, outcome,
     stream_aggs) = run_once(benchmark, _run)
    # Streamed aggregation == gather-at-end aggregation on the full grid.
    stream_pivot, stream_latency = stream_aggs
    gather_pivot = outcome.pivot("energy_pj")
    table = stream_pivot.table()
    assert set(table) == set(gather_pivot)
    for row, cols in gather_pivot.items():
        assert set(table[row]) == set(cols)
        for col, mean in cols.items():
            assert abs(table[row][col] - mean) <= 1e-12 * max(1.0, abs(mean))
    latencies = outcome.metric("latency_cycles")
    assert stream_latency.count == len(latencies)
    assert abs(stream_latency.sum - latencies.sum()) <= (
        1e-12 * max(1.0, abs(latencies.sum()))
    )
    speedup = scalar_s / max(vector_s, 1e-12)
    table = format_table(
        ["scenarios", "scalar (s)", "vectorized (s)", "speedup",
         "sweep workers", "sweep (s)"],
        [(len(cases), scalar_s, vector_s, speedup,
          outcome.workers, outcome.elapsed_s)],
        title="Vectorized engine sweep: scalar oracle vs batched NumPy",
    )
    print()
    print(table)

    if not quick_mode():
        assert len(cases) >= 100
        assert speedup >= 5.0, (
            f"vectorized sweep only {speedup:.1f}x faster than scalar"
        )

    for case, scalar, vector, swept in zip(
        cases, scalar_reports, vector_reports, outcome.results
    ):
        assert vector.latency_cycles == scalar.latency_cycles, case.case_id
        assert vector.serial_latency_cycles == scalar.serial_latency_cycles
        assert vector.total_flits == scalar.total_flits
        assert vector.packet_count == scalar.packet_count
        assert abs(vector.energy_pj - scalar.energy_pj) <= (
            1e-9 * max(1.0, abs(scalar.energy_pj))
        ), case.case_id
        assert swept.metrics["latency_cycles"] == scalar.latency_cycles
        assert abs(swept.metrics["energy_pj"] - scalar.energy_pj) <= (
            1e-9 * max(1.0, abs(scalar.energy_pj))
        )

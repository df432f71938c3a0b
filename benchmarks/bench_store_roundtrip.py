"""Store round-trip gate: cold sweep populates, warm sweep replays free.

Acceptance gate for the result-store subsystem: a streamed sweep over
at least 100 (topology, workload, parameter) scenarios runs cold into a
:class:`~repro.eval.store.ResultStore`, then a second runner with a
fresh store handle on the same directory must answer **every** case
from disk -- zero evaluations, 100% hits -- and reproduce the cold
run's aggregates bit-for-bit (deterministic emission order + exact JSON
float round-trip make this an equality, not a tolerance).

``REPRO_STORE_DIR`` points the store at a persistent directory (CI
uploads it as the sweep-results artifact); unset, a temp directory is
used.  The grid stays at full size in ``REPRO_SWEEP_QUICK`` mode -- the
16-chiplet vectorized cases are milliseconds each -- so the >= 100-case
guarantee holds in the CI smoke too.
"""

from __future__ import annotations

import os

from _bench_utils import run_once

from repro.eval import (
    ResultStore,
    RunningPivot,
    RunningStats,
    SweepRunner,
    evaluate_comm_case,
    format_table,
    sweep_grid,
)

ARCHS = ("floret", "siam", "kite", "swap")
PATTERNS = ("uniform", "neighbor", "hotspot", "transpose")
FLIT_OVERRIDES = ((), (("flit_bytes", 16),))


def _grid():
    return sweep_grid(
        archs=ARCHS, sizes=(16,), workloads=PATTERNS,
        seeds=(0, 1, 2, 3), overrides=FLIT_OVERRIDES,
    )


def _store_root(tmp_path_factory):
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return env
    return tmp_path_factory.mktemp("result-store")


def _aggregators():
    return (RunningPivot("energy_pj"), RunningStats("latency_cycles"))


def _roundtrip(root, cases):
    cold_aggs = _aggregators()
    cold = SweepRunner(
        evaluate_comm_case, workers=4, store=ResultStore(root)
    ).run_stream(cases, cold_aggs)
    assert not cold.failures, cold.failures
    warm_aggs = _aggregators()
    warm = SweepRunner(
        evaluate_comm_case, workers=4, store=ResultStore(root)
    ).run_stream(cases, warm_aggs)
    assert not warm.failures, warm.failures
    return cold, cold_aggs, warm, warm_aggs


def test_store_roundtrip(benchmark, tmp_path_factory):
    cases = _grid()
    assert len(cases) >= 100
    root = _store_root(tmp_path_factory)
    cold, cold_aggs, warm, warm_aggs = run_once(
        benchmark, _roundtrip, root, cases
    )
    table = format_table(
        ["phase", "cases", "evaluated", "store hits", "elapsed (s)"],
        [
            ("cold", cold.total, cold.evaluated, cold.store_hits,
             cold.elapsed_s),
            ("warm", warm.total, warm.evaluated, warm.store_hits,
             warm.elapsed_s),
        ],
        title=f"Result-store round trip over {len(cases)} scenarios",
    )
    print()
    print(table)

    # Warm replay of a completed sweep performs ZERO evaluations.
    assert warm.store_hits == len(cases)
    assert warm.evaluated == 0
    # A pre-populated REPRO_STORE_DIR legitimately warms the "cold" run
    # (that is the point of a persistent store); only a fresh directory
    # must start fully cold.
    if cold.store_hits == 0:
        assert cold.evaluated == len(cases)

    # Aggregates reproduce exactly -- not approximately.
    cold_pivot, cold_latency = cold_aggs
    warm_pivot, warm_latency = warm_aggs
    assert warm_pivot.table() == cold_pivot.table()
    assert warm_latency.count == cold_latency.count
    assert warm_latency.sum == cold_latency.sum
    assert warm_latency.min == cold_latency.min
    assert warm_latency.max == cold_latency.max

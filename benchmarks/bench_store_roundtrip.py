"""Store round-trip gate: cold sweep populates, warm sweep replays free.

Acceptance gate for the result-store subsystem: a streamed sweep over
at least 100 (topology, workload, parameter) scenarios runs cold into a
:class:`~repro.eval.store.ResultStore`, then a second runner with a
fresh store handle on the same directory must answer **every** case
from disk -- zero evaluations, 100% hits -- and reproduce the cold
run's aggregates bit-for-bit (deterministic emission order + exact JSON
float round-trip make this an equality, not a tolerance).

After the warm replay, a cold ``query_results`` on a fresh store handle
is timed five times with the store's index snapshot (``index.idx``)
deleted first (that open decodes every shard and writes the snapshot
anew) and five times with it present (it loads it and decodes
nothing).  Both must answer byte for byte alike, and the bytes each
open decodes are counted: every shard byte without the snapshot, none
with it -- so a snapshot file renamed out from under this bench fails
it instead of reading as a 1x ratio.  The ratio of the two ``process_time``
medians is printed and, under ``REPRO_STORE_DIR``, appended to
``ratio-history.jsonl`` with the usual >20% drift warning (on
``speedup``, snapshot-free ÷ snapshot-loaded).  There is no bound: a
128-record store opens in milliseconds, so the ratio is noisy.

``REPRO_STORE_DIR`` points the store at a persistent directory (CI
uploads it as the sweep-results artifact); unset, a temp directory is
used.  The grid stays at full size in ``REPRO_SWEEP_QUICK`` mode -- the
16-chiplet vectorized cases are milliseconds each -- so the >= 100-case
guarantee holds in the CI smoke too.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from statistics import median

from _bench_utils import run_once

import repro.eval.store as store_module
from repro.eval import (
    ResultQuery,
    ResultStore,
    RunningPivot,
    RunningStats,
    SweepRunner,
    append_ratio_history,
    evaluate_comm_case,
    format_table,
    load_ratio_history,
    query_results,
    ratio_drift_warning,
    sweep_grid,
)

ARCHS = ("floret", "siam", "kite", "swap")
PATTERNS = ("uniform", "neighbor", "hotspot", "transpose")
FLIT_OVERRIDES = ((), (("flit_bytes", 16),))
#: The cold query: a full-scan aggregate plus a pivot and one page.
COLD_QUERY = ResultQuery(metrics=("latency_cycles", "energy_pj"),
                         pivot="energy_pj", limit=20)
COLD_REPEATS = 5


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


def test_store_roundtrip(benchmark, tmp_path_factory, monkeypatch):
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

    _log_cold_open(root, monkeypatch)


def _cold_queries(root, keep_snapshot, monkeypatch):
    """``process_time`` of ``COLD_REPEATS`` cold queries, each on a
    fresh handle, their answers as JSON and the bytes each decoded."""
    times, answers, decoded = [], [], []
    real = store_module._decode_lines

    def counting(data, offset=0):
        decoded[-1] += len(data)
        return real(data, offset)

    monkeypatch.setattr(store_module, "_decode_lines", counting)
    for _ in range(COLD_REPEATS):
        if not keep_snapshot:
            (Path(root) / "index.idx").unlink(missing_ok=True)
        decoded.append(0)
        t0 = time.process_time()
        answer = query_results(ResultStore(root), COLD_QUERY)
        times.append(time.process_time() - t0)
        answers.append(json.dumps(answer, sort_keys=True))
    monkeypatch.undo()
    return times, answers, decoded


def _log_cold_open(root, monkeypatch):
    shard_bytes = sum(p.stat().st_size
                      for p in Path(root).glob("shard-*.jsonl"))
    without, plain, decoded = _cold_queries(root, False, monkeypatch)
    assert decoded == [shard_bytes] * COLD_REPEATS
    loaded, answers, decoded = _cold_queries(root, True, monkeypatch)
    assert decoded == [0] * COLD_REPEATS
    assert set(plain) == set(answers) and len(set(answers)) == 1
    ratio = median(without) / median(loaded)
    print(format_table(
        ["snapshot", "median ms", "min ms"],
        [["deleted", f"{1e3 * median(without):.1f}",
          f"{1e3 * min(without):.1f}"],
         ["present", f"{1e3 * median(loaded):.1f}",
          f"{1e3 * min(loaded):.1f}"]],
        title=f"Cold query on a fresh handle: snapshot-free / "
              f"snapshot-loaded {ratio:.2f}x",
    ))
    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        prior = [rec for rec in load_ratio_history(history_path)
                 if rec.get("bench") == "store_cold_open"]
        drift = ratio_drift_warning(prior, ratio, key="speedup",
                                    tolerance=0.2)
        if drift is not None:
            warnings.warn(f"store_cold_open drift watch: {drift}",
                          RuntimeWarning)
            print(f"WARNING: {drift}")
        append_ratio_history(history_path, {
            "bench": "store_cold_open",
            "speedup": round(ratio, 4),
            "without_ms": round(1e3 * median(without), 2),
            "with_ms": round(1e3 * median(loaded), 2),
            "unix_time": round(time.time(), 3),
        })

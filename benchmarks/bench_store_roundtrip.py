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

A tail phase follows on a copy of the store: records are put past a
fresh snapshot until the tail reaches the rewrite bound, 1/
``DECODE_PER_LOAD`` of the bytes the snapshot covers.  Checked by
decoded-byte counts, not timings: cold queries with the tail one put
short of the bound decode exactly that tail and leave ``index.idx``
alone, the first cold query at the bound decodes it and rewrites
``index.idx``, and the next one decodes only the lines put since.  The
ratio of cold-query ``process_time`` medians, tail just under the
bound ÷ fresh snapshot, is printed and logged the same way as
``store_cold_tail`` (on ``slowdown``), warned on and never gated.

``REPRO_STORE_DIR`` points the store at a persistent directory (CI
uploads it as the sweep-results artifact); unset, a temp directory is
used.  The grid stays at full size in ``REPRO_SWEEP_QUICK`` mode -- the
16-chiplet vectorized cases are milliseconds each -- so the >= 100-case
guarantee holds in the CI smoke too.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import warnings
from dataclasses import replace
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
    case_key,
    evaluate_comm_case,
    format_table,
    load_ratio_history,
    query_results,
    ratio_drift_warning,
    sweep_grid,
)
from repro.eval.store import DECODE_PER_LOAD

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
    _log_cold_tail(root, tmp_path_factory, monkeypatch)


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
    _log_ratio("store_cold_open", "speedup", ratio,
               without_ms=round(1e3 * median(without), 2),
               with_ms=round(1e3 * median(loaded), 2))


def _log_ratio(bench, key, ratio, **extra):
    """Under ``REPRO_STORE_DIR``, append ``ratio`` (as ``key``) to
    ``ratio-history.jsonl``, warning on >20% drift from the median of
    the prior records of ``bench``."""
    store_dir = os.environ.get("REPRO_STORE_DIR")
    if not store_dir:
        return
    history_path = Path(store_dir) / "ratio-history.jsonl"
    prior = [rec for rec in load_ratio_history(history_path)
             if rec.get("bench") == bench]
    drift = ratio_drift_warning(prior, ratio, key=key, tolerance=0.2)
    if drift is not None:
        warnings.warn(f"{bench} drift watch: {drift}", RuntimeWarning)
        print(f"WARNING: {drift}")
    append_ratio_history(history_path, {
        "bench": bench, key: round(ratio, 4), **extra,
        "unix_time": round(time.time(), 3),
    })


def _shard_sizes(root):
    return {p.name: p.stat().st_size for p in Path(root).glob(
        "shard-*.jsonl")}


def _put_copy(writer, result, seed):
    """Put ``result`` again, as its case with seed ``seed``."""
    case = replace(result.case, seed=seed)
    writer.put(case_key(case, "bench-tail"), replace(result, case=case))


def _append_tail(root, results, tail):
    """Put copies of ``results`` under new seeds into ``root`` until the
    bytes past the snapshot reach ``tail``; returns the shard sizes
    before the last put and the seed to go on from."""
    writer = ResultStore(root)
    covered = sum(_shard_sizes(root).values())
    for seed, result in enumerate(results, 1000):
        before = _shard_sizes(root)
        _put_copy(writer, result, seed)
        if sum(_shard_sizes(root).values()) - covered >= tail:
            return before, seed + 1
    raise AssertionError("too few records to reach the bound")


def _log_cold_tail(root, tmp_path_factory, monkeypatch):
    """The tail phase, on a copy of the store whose ``index.idx``
    covers every shard.  Lines go past it until the tail reaches the
    rewrite bound (1/``DECODE_PER_LOAD`` of the covered bytes).  By
    decoded-byte counts: cold queries with the tail one put short of
    the bound decode exactly it and leave ``index.idx`` alone; the
    cold query at the bound decodes exactly it and rewrites
    ``index.idx``; the one after decodes only the lines put since.
    Logs the cold-query ``process_time`` ratio, tail just under the
    bound / fresh snapshot, like the cold-open ratio: warned on, never
    gated."""
    copy = tmp_path_factory.mktemp("store-tail")
    for name in _shard_sizes(root):
        shutil.copyfile(Path(root) / name, copy / name)
    if (Path(root) / "arrays").exists():
        shutil.copytree(Path(root) / "arrays", copy / "arrays")
    query_results(ResultStore(copy), COLD_QUERY)  # writes index.idx
    covered = sum(_shard_sizes(copy).values())
    fresh, answers, decoded = _cold_queries(copy, True, monkeypatch)
    assert decoded == [0] * COLD_REPEATS
    results = list(ResultStore(copy).iter_results()) * 4
    before, seed = _append_tail(copy, results,
                                -(-covered // DECODE_PER_LOAD))
    at_bound = _shard_sizes(copy)
    last = next(name for name in at_bound
                if at_bound[name] != before.get(name, 0))
    line = (copy / last).read_bytes()[before.get(last, 0):]
    os.truncate(copy / last, before.get(last, 0))
    snapshot = (copy / "index.idx").read_bytes()
    under, _, decoded = _cold_queries(copy, True, monkeypatch)
    assert decoded == [sum(before.values()) - covered] * COLD_REPEATS
    assert (copy / "index.idx").read_bytes() == snapshot
    with open(copy / last, "ab") as fh:
        fh.write(line)
    _, rewritten, decoded = _cold_queries(copy, True, monkeypatch)
    assert decoded[0] == sum(at_bound.values()) - covered
    assert decoded[1:] == [0] * (COLD_REPEATS - 1)
    writer = ResultStore(copy)
    for result in results[:2]:
        _put_copy(writer, result, seed)
        seed += 1
    _, _, decoded = _cold_queries(copy, True, monkeypatch)
    assert decoded[0] == sum(_shard_sizes(copy).values()) - sum(
        at_bound.values())
    assert len(set(answers)) == 1 and len(set(rewritten)) == 1
    ratio = median(under) / median(fresh)
    print(format_table(
        ["index.idx", "tail bytes", "median ms", "min ms"],
        [["fresh", 0, f"{1e3 * median(fresh):.1f}",
          f"{1e3 * min(fresh):.1f}"],
         ["tail under the bound", sum(before.values()) - covered,
          f"{1e3 * median(under):.1f}", f"{1e3 * min(under):.1f}"]],
        title=f"Cold query on a fresh handle: tail under the bound / "
              f"fresh snapshot {ratio:.2f}x ({covered} bytes covered)",
    ))
    _log_ratio("store_cold_tail", "slowdown", ratio,
               fresh_ms=round(1e3 * median(fresh), 2),
               tail_ms=round(1e3 * median(under), 2))

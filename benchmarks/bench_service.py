"""Service load gate: warm queries are fast and never re-evaluate.

Acceptance gate for the HTTP sweep service (``repro/svc``).  One
in-process service is stood up over a fresh store and hit the way the
millions-of-users story says it will be:

1. **Cold sweep**: ``POST /v1/sweeps`` with a novel comm grid; the
   in-process worker pool drains it through the lease substrate.  The
   job must evaluate every case exactly once (zero duplicates across
   the pool's drain threads).
2. **Warm swarm**: N concurrent clients mix re-POSTs of the *same*
   grid (pure cache replay) with repeated ``/v1/results`` aggregate
   queries (aggregates, pivots, axis and override filters) and
   progress/metrics reads.  Gates: every warm sweep performs **zero
   evaluations**, the warm-query p99 latency stays under
   ``P99_FLOOR_S`` -- repeated queries over a quiescent store read
   the in-memory index, not files, and the latency budget is how
   that shows up externally -- and every answer the clients got equals
   ``query_results`` on a freshly opened store, so the service's
   index, extended by new lines as clients query it, never serves a
   torn or stale view under concurrent clients.

Between the two, warm re-POSTs of the same grid run alone (no other
client, status polled every :data:`TIMED_POLL_S`, as for the cold
sweep), so the replay speedup measures store replay rather than the
swarm's contention: the median of :data:`COLD_SWEEPS` cold sweeps, each
on a fresh store, over the median of :data:`SOLO_REPLAYS` solo
replays.  A single cold sweep over a single replay spread 3.6-7.6x on
one tree in quick mode (8 cases, 49-95 ms cold).
It joins the drift-watched ``ratio-history.jsonl`` under
``REPRO_STORE_DIR`` as ``bench="service_replay"`` (warn-only, like the
other ratio gates).  When ``REPRO_STORE_DIR`` is set the service store
itself lives underneath it, so the per-job trace directories
(``svc-store/svc-traces/<job>/``) ship inside the sweep-results
artifact.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
import urllib.request
import warnings
from pathlib import Path

from _bench_utils import quick_mode, run_once

from urllib.parse import parse_qs, urlsplit

from repro.eval import (
    ResultStore,
    SweepRunner,
    append_ratio_history,
    evaluate_comm_case,
    format_table,
    load_ratio_history,
    parse_result_query,
    query_results,
    ratio_drift_warning,
    sweep_grid,
)
from repro.svc import start_service

#: Concurrent warm-phase clients.
CLIENTS = 4
#: Warm query iterations per client.
QUERIES_PER_CLIENT = 25
#: Warm re-POSTed sweeps per client.
SWEEPS_PER_CLIENT = 2
#: Status-poll interval of the timed sweeps (cold, solo replay);
#: the swarm's clients poll every 20 ms.
TIMED_POLL_S = 0.002
#: Cold sweeps (each on a fresh store) and solo replays timed for the
#: replay speedup, which divides their medians.
COLD_SWEEPS = 3
SOLO_REPLAYS = 5
#: Hard gate on the warm /v1/results p99 (seconds).  Real values are
#: single-digit milliseconds; the floor absorbs CI-runner noise.
P99_FLOOR_S = 1.0

QUERY_PATHS = (
    "/v1/results?metric=latency_cycles,energy_pj&limit=20",
    "/v1/results?arch=siam&pivot=latency_cycles",
    "/v1/results?workload=uniform&metric=latency_cycles&offset=4&limit=4",
    "/v1/results?seed=0&metric=energy_pj",
    "/v1/results?override=flit_bytes=64&pivot=energy_pj&metric=energy_pj",
    "/v1/results?arch=kite&override=flit_bytes=64&metric=total_flits",
)


def _grid() -> dict:
    if quick_mode():
        return {
            "archs": ["siam", "kite"], "sizes": [16],
            "workloads": ["uniform", "transpose"], "seeds": [0, 1],
            "tag": "svc-bench",
        }
    return {
        "archs": ["siam", "kite", "floret"], "sizes": [16, 36],
        "workloads": ["uniform", "transpose"], "seeds": [0, 1, 2, 3],
        "tag": "svc-bench",
    }


def _put_override_results(root, grid) -> None:
    """Evaluate the grid's seed-0 cases with a ``flit_bytes`` override
    straight into the store, for the override-filter queries.  Kept
    out of the POSTed grid so the cold-vs-replay ratio keeps measuring
    the same sweep."""
    cases = sweep_grid(
        archs=grid["archs"], sizes=grid["sizes"],
        workloads=grid["workloads"], seeds=[0],
        overrides=[(("flit_bytes", 64),)], tag=grid["tag"],
    )
    outcome = SweepRunner(evaluate_comm_case, workers=1,
                          store=ResultStore(root)).run(cases)
    assert not outcome.failures, outcome.failures


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return json.loads(response.read())


def _post(base, path, body):
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _run_sweep(base, grid, poll_s=0.02):
    """POST the grid, wait for completion, return final progress."""
    job = _post(base, "/v1/sweeps", {
        "grid": grid, "evaluator": "evaluate_comm_case",
    })
    deadline = time.perf_counter() + 300
    while True:
        progress = _get(base, job["status_url"])
        if progress["state"] == "done":
            assert not progress["worker_errors"], progress["worker_errors"]
            assert progress["failed"] == 0, progress["failures"]
            return progress
        assert time.perf_counter() < deadline, "sweep never finished"
        time.sleep(poll_s)


def _warm_client(base, grid, latencies, sweep_walls, evaluated, answers):
    """One warm-phase client: cached sweeps + repeated queries."""
    for _ in range(SWEEPS_PER_CLIENT):
        t0 = time.perf_counter()
        progress = _run_sweep(base, grid)
        sweep_walls.append(time.perf_counter() - t0)
        evaluated.append(progress["evaluated"])
    for i in range(QUERIES_PER_CLIENT):
        path = QUERY_PATHS[i % len(QUERY_PATHS)]
        t0 = time.perf_counter()
        payload = _get(base, path)
        latencies.append(time.perf_counter() - t0)
        assert payload["total"] > 0
        answers.append((path, payload))
    latencies.append(_timed_get(base, "/v1/metrics"))
    latencies.append(_timed_get(base, "/v1/healthz"))


def _timed_get(base, path):
    t0 = time.perf_counter()
    _get(base, path)
    return time.perf_counter() - t0


def _stale_answers(root, answers):
    """Paths whose swarm answer differs from a fresh store's."""
    fresh = ResultStore(root)
    want = {
        path: json.loads(json.dumps(query_results(
            fresh, parse_result_query(parse_qs(urlsplit(path).query)))))
        for path in QUERY_PATHS
    }
    return sorted({path for path, payload in answers
                   if payload != want[path]})


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(int(q * (len(ordered) - 1) + 0.999999),
                       len(ordered) - 1)]


def _start(root):
    """Serve a fresh store at ``root``; return (service, base URL)."""
    shutil.rmtree(root, ignore_errors=True)
    service = start_service(root, workers=2)
    threading.Thread(target=service.serve_forever, daemon=True).start()
    host, port = service.server_address[:2]
    return service, f"http://{host}:{port}"


def _stop(service):
    service.shutdown()
    service.server_close()


def _timed_cold_sweep(base, grid, total):
    """Wall time of one cold sweep that evaluates every case once."""
    t0 = time.perf_counter()
    cold = _run_sweep(base, grid, TIMED_POLL_S)
    cold_s = time.perf_counter() - t0
    assert cold["done"] == total
    assert cold["evaluated"] == total, (
        f"cold sweep evaluated {cold['evaluated']} of {total} "
        "(duplicate or missing evaluations)"
    )
    return cold_s


def _run(tmp):
    store_dir = os.environ.get("REPRO_STORE_DIR")
    # The bench owns this subdirectory; start cold even when a prior
    # local run left results behind.
    root = (Path(store_dir) if store_dir else tmp) / "svc-store"
    grid = _grid()
    total = 1
    for axis in ("archs", "sizes", "workloads", "seeds"):
        total *= len(grid[axis])
    # 1. Cold sweeps: the spare stores live under ``tmp``, the last
    # one at ``root`` serves the rest of the bench.
    cold_times = []
    for i in range(COLD_SWEEPS - 1):
        service, base = _start(tmp / f"svc-cold-{i}")
        try:
            cold_times.append(_timed_cold_sweep(base, grid, total))
        finally:
            _stop(service)
    service, base = _start(root)
    try:
        cold_times.append(_timed_cold_sweep(base, grid, total))

        # Warm re-POSTs alone: the replay speedup's denominator.
        replay_times = []
        for _ in range(SOLO_REPLAYS):
            t0 = time.perf_counter()
            replay = _run_sweep(base, grid, TIMED_POLL_S)
            replay_times.append(time.perf_counter() - t0)
            assert replay["evaluated"] == 0, replay

        # The service's index covers the grid's results, then the
        # swarm's queries extend it over the override results.
        _get(base, QUERY_PATHS[0])
        _put_override_results(root, grid)

        # 2. Warm swarm: concurrent cached sweeps + repeated queries.
        latencies: list = []
        sweep_walls: list = []
        evaluated: list = []
        answers: list = []
        clients = [
            threading.Thread(
                target=_warm_client,
                args=(base, grid, latencies, sweep_walls, evaluated,
                      answers),
            )
            for _ in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        warm_phase_s = time.perf_counter() - t0
    finally:
        _stop(service)
    stale = _stale_answers(root, answers)
    cold_s = statistics.median(cold_times)
    replay_s = statistics.median(replay_times)

    return {
        "total": total,
        "cold_s": cold_s,
        "replay_s": replay_s,
        "warm_phase_s": warm_phase_s,
        "warm_sweeps": len(sweep_walls),
        "warm_sweep_mean_s": sum(sweep_walls) / len(sweep_walls),
        "warm_evaluated": sum(evaluated),
        "queries": len(latencies),
        "answers": len(answers),
        "stale": stale,
        "p50_s": _percentile(latencies, 0.50),
        "p99_s": _percentile(latencies, 0.99),
        "replay_speedup": cold_s / max(replay_s, 1e-9),
    }


def test_service_load(benchmark, tmp_path):
    out = run_once(benchmark, _run, tmp_path)

    print()
    print(format_table(
        ["phase", "requests", "wall (s)", "p50 (s)", "p99 (s)"],
        [
            ("cold sweep (median)", COLD_SWEEPS, out["cold_s"], "-", "-"),
            ("solo replay (median)", SOLO_REPLAYS, out["replay_s"],
             "-", "-"),
            (f"warm swarm x{CLIENTS}", out["queries"],
             out["warm_phase_s"], out["p50_s"], out["p99_s"]),
        ],
        title=f"Sweep service over {out['total']} comm cases "
              f"({CLIENTS} concurrent clients, shared store)",
        float_format="{:.4f}",
    ))
    print(
        f"warm swarm: {out['warm_sweeps']} re-POSTed sweeps, "
        f"{out['warm_evaluated']} evaluations (must be 0), "
        f"mean {out['warm_sweep_mean_s']:.4f}s each; "
        f"replay speedup (median cold / median solo replay) "
        f"{out['replay_speedup']:.1f}x"
    )

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        prior = [
            record for record in load_ratio_history(history_path)
            if record.get("bench") == "service_replay"
            and record.get("quick") == quick_mode()
        ]
        drift = ratio_drift_warning(prior, out["replay_speedup"],
                                    tolerance=0.2)
        if drift is not None:
            warnings.warn(f"service_replay drift watch: {drift}",
                          RuntimeWarning)
            print(f"WARNING: {drift}")
        append_ratio_history(history_path, {
            "bench": "service_replay",
            "quick": quick_mode(),
            "speedup": round(out["replay_speedup"], 4),
            "warm_p99_s": round(out["p99_s"], 6),
            "cases": out["total"],
            "clients": CLIENTS,
            "unix_time": round(time.time(), 3),
        })

    # Hard gates: cached work is free, fast, and answers what a fresh
    # reader of the same store would.
    assert out["answers"] == CLIENTS * QUERIES_PER_CLIENT
    assert not out["stale"], (
        f"warm answers differ from a fresh store's for {out['stale']}"
    )
    assert out["warm_evaluated"] == 0, (
        f"warm sweeps re-evaluated {out['warm_evaluated']} cases; "
        "cached cases must never be recomputed"
    )
    assert out["p99_s"] < P99_FLOOR_S, (
        f"warm-query p99 {out['p99_s']:.3f}s over the "
        f"{P99_FLOOR_S}s budget"
    )

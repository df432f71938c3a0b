"""``contended_sim``: warm packet simulation of contended load sweeps.

Set-up builds every structure, its routing tables and its queue index
(that is ``setup_s``).  The timed loop then runs whole rounds of
``evaluate_load_sweep_case`` with ``sim_engine`` left at ``auto``, each
round on fresh traffic seeds, so packet resolution does almost all the
work and routing costs nothing inside the loop.
"""

from __future__ import annotations

import time
from dataclasses import replace

from common import (
    HostSpeed,
    Outcome,
    digest,
    peak_rss_mb,
    run_child,
    same_metrics,
)

#: (arch, size, load workload, overrides) of one round.  neighbor@0.1
#: splits into ~100 contention components; uniform@0.06 into 1-3; the
#: last case is closed loop (finite buffers, credit backpressure).
ROUND = (
    ("floret", 100, "neighbor@0.1", ()),
    ("siam", 100, "neighbor@0.1", ()),
    ("siam", 256, "uniform@0.06", ()),
    ("kite", 256, "uniform@0.06", ()),
    ("kite", 256, "uniform@0.05", (("fc_buffer_flits", 16),)),
)
#: Rounds per run at least, so the case median has 10 samples above it.
MIN_ROUNDS = 4
SETUP_SAMPLES = 2


def round_cases(seed: int, index: int):
    from repro.eval import SweepCase

    return [
        SweepCase(arch, size, workload, seed * 1000 + index, overrides,
                  tag="contended")
        for arch, size, workload, overrides in ROUND
    ]


def setup() -> float:
    """Build every structure with its routing tables and queue index."""
    from repro.eval import case_topology

    t0 = time.perf_counter()
    for case in round_cases(0, 0):
        case_topology(case).routing_tables().queue_index()
    return time.perf_counter() - t0


def child_setup() -> dict:
    import repro.eval  # noqa: F401  (import is not part of this set-up)

    return {"setup_s": setup()}


def _round(seed, index, outcome, speed, latencies, results):
    """Evaluate round ``index``, a host-speed sample before each case.

    Appends each case's (host s, quiet-host s) to ``latencies``; returns
    (cases done, packets, host s, quiet-host s) of the round.
    """
    from repro.eval import evaluate_load_sweep_case

    done = packets = 0
    since = len(speed.samples)
    times = []
    for case in round_cases(seed, index):
        speed.sample()
        outcome.attempted += 1
        t_case = time.perf_counter()
        try:
            metrics = evaluate_load_sweep_case(case)
        except Exception as exc:  # a deadlock is a failed case
            outcome.failed += 1
            outcome.errors.append(f"{case.case_id}: {exc!r}")
            continue
        times.append(time.perf_counter() - t_case)
        done += 1
        packets += int(metrics["injected_packets"])
        results.append((case, metrics))
    factor = speed.factor(since)
    latencies.extend((t, t * factor) for t in times)
    return done, packets, sum(times), sum(times) * factor


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    import repro.eval  # noqa: F401

    speed = HostSpeed()
    setups = [speed.seconds(lambda: run_child("contended_setup")["setup_s"])
              for _ in range(SETUP_SAMPLES)]
    setups.append(speed.seconds(setup))
    out = Outcome()
    latencies, results = [], []
    rounds = []
    overhead = 0.0
    snapshot = None
    count = 0
    start = time.perf_counter()
    if trace:
        from shims import LayerClock

        # Same rounds twice, untraced then traced: the wall-time ratio
        # is the shims' overhead.
        while count < 2 or time.perf_counter() - start < seconds / 2:
            _round(seed, count, out, speed, [], [])
            count += 1
        plain_s = time.perf_counter() - start
        with LayerClock() as clock:
            start = time.perf_counter()
            for index in range(count):
                rounds.append(_round(seed, index, out, speed, latencies,
                                    results))
            overhead = (time.perf_counter() - start) / plain_s - 1.0
            snapshot = clock.snapshot()
    else:
        while count < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rounds.append(_round(seed, count, out, speed, latencies,
                                results))
            count += 1
    rss_mb = peak_rss_mb()

    # Output check: the first case of every structure, re-run on the
    # event-heap oracle, must give identical simulated metrics.
    from repro.eval import evaluate_load_sweep_case

    for case, metrics in results[:len(ROUND)]:
        oracle = replace(case, noi_overrides=(
            case.noi_overrides + (("sim_engine", "events"),)))
        out.check(same_metrics(evaluate_load_sweep_case(oracle), metrics),
                  f"{case.case_id}: events engine disagrees with auto")
    # Every run reaches two rounds, so their outputs make the digest.
    out.digest = digest([[c.case_id, m] for c, m in results[:2 * len(ROUND)]])

    out.end_to_end(setups=setups, rounds=rounds, latencies=latencies,
                   rss_mb=rss_mb, speed=speed.samples)
    out.details.update({
        "rounds": (count, "count"),
        "cases": (len(latencies), "count"),
        "cases_per_s": out.metrics["ops_per_s"],
        "case_p50_ms": out.metrics["op_p50_ms"],
        "sim_packets_per_s": out.metrics["items_per_s"],
        "failed_frac": (out.failed_frac, "ratio"),
    })
    if trace:
        from shims import layer_metrics

        out.layers = layer_metrics(
            snapshot, dse_overhead_s=0.0, http_overhead_ms=0.0,
            overhead_frac=overhead,
            failed_frac=out.failed_frac,
        )
    return out

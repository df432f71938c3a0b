"""SWAP anneal vs its from-scratch objective, swap/100 (informational).

``build_swap`` anneals chord placement against design-time traffic and
updates the objective move by move instead of recomputing it.  This
times one ``build_swap(100)`` and one from-scratch ``_traffic_cost`` on
the built graph in the same interpreter, and reports
``iterations × objective ÷ build``: how many of today's builds one
from-scratch objective per move would cost.  The anneal that recomputed
the objective after every move read 0.82 on a 2-CPU x86 host (its
objective kept no witness paths, so a pass cost ~1.4x less than now).
Each run is a fresh interpreter; the median of three runs is printed
and, under ``REPRO_STORE_DIR``, appended to ``ratio-history.jsonl``
with the usual >20% drift warning (on ``scratch_over_build``, where
higher is better).  There is no bound: a wall-clock ratio on a shared
runner flakes.

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_swap_anneal.py
"""

from __future__ import annotations

import os
import time
import warnings
from pathlib import Path
from statistics import median

from _bench_utils import fresh_interpreter_floats
from repro.eval import (
    append_ratio_history,
    format_table,
    load_ratio_history,
    ratio_drift_warning,
)

RUNS = 3

#: Prints one build_swap(100) and `iterations` from-scratch objectives,
#: both in ms.
COMMAND = """
import time
from repro.noi.swap import (SwapSynthesisConfig, _traffic_cost,
                            build_swap, design_time_traffic)
t = time.perf_counter(); topology = build_swap(100)
build = time.perf_counter() - t
traffic, reps = design_time_traffic(100), 50
t = time.perf_counter()
for _ in range(reps):
    _traffic_cost(topology.adj, traffic)
objective = (time.perf_counter() - t) / reps
print(1e3 * build, 1e3 * objective * SwapSynthesisConfig().iterations)
"""


def test_swap100_anneal_over_scratch_objective():
    runs = [fresh_interpreter_floats(COMMAND) for _ in range(RUNS)]
    ratio = median(scratch / build for build, scratch in runs)
    print()
    print(format_table(
        ["run", "build ms", "iterations x objective ms", "ratio"],
        [[i, f"{build:.0f}", f"{scratch:.0f}", f"{scratch / build:.2f}"]
         for i, (build, scratch) in enumerate(runs)],
        title=f"swap/100 anneal: median iterations x from-scratch "
              f"objective / build_swap {ratio:.2f}x",
    ))

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        prior = [
            rec for rec in load_ratio_history(history_path)
            if rec.get("bench") == "swap100_anneal"
        ]
        drift = ratio_drift_warning(prior, ratio, key="scratch_over_build",
                                    tolerance=0.2)
        if drift is not None:
            warnings.warn(f"swap100_anneal drift watch: {drift}",
                          RuntimeWarning)
            print(f"WARNING: {drift}")
        append_ratio_history(history_path, {
            "bench": "swap100_anneal",
            "scratch_over_build": round(ratio, 4),
            "build_ms": round(median(b for b, _ in runs), 1),
            "scratch_ms": round(median(s for _, s in runs), 1),
            "unix_time": round(time.time(), 3),
        })

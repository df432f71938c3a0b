"""Cold vs warm cost of one kite/256 load-sweep case (informational).

The first case on a structure pays the topology build and the routing
tables (the per-link queue constants cached on them cost well under a
millisecond); a second case on the same structure that changes only
``fc_buffer_flits`` (a params view sharing the tables) pays traffic
and simulation alone.  Each run is a fresh interpreter
that times one cold case, then one warm case.  The median of three
runs' cold ÷ warm ratio is printed and, under ``REPRO_STORE_DIR``,
appended to ``ratio-history.jsonl`` with the usual >20% drift warning
(on ``warm_over_cold``, where higher is better).  There is no bound:
a wall-clock ratio on a shared runner flakes.

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_cold_tables.py
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

#: One cold then one warm case in a fresh interpreter; prints both in ms.
COMMAND = """
import time
from repro.eval import SweepCase, evaluate_load_sweep_case as ev
def ms(b):
    c = SweepCase('kite', 256, 'uniform@0.05:w64+256', 1,
                  (('fc_buffer_flits', b),))
    t = time.perf_counter(); ev(c)
    return 1e3 * (time.perf_counter() - t)
print(ms(16), ms(32))
"""


def test_kite256_cold_over_warm():
    runs = [fresh_interpreter_floats(COMMAND) for _ in range(RUNS)]
    ratio = median(cold / warm for cold, warm in runs)
    print()
    print(format_table(
        ["run", "cold ms", "warm ms", "cold / warm"],
        [[i, f"{cold:.0f}", f"{warm:.0f}", f"{cold / warm:.2f}"]
         for i, (cold, warm) in enumerate(runs)],
        title=f"kite/256 uniform@0.05:w64+256: median cold / warm "
              f"{ratio:.2f}x",
    ))

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        prior = [
            rec for rec in load_ratio_history(history_path)
            if rec.get("bench") == "kite256_cold_warm"
        ]
        drift = ratio_drift_warning(prior, 1.0 / ratio,
                                    key="warm_over_cold", tolerance=0.2)
        if drift is not None:
            warnings.warn(f"kite256_cold_warm drift watch: {drift}",
                          RuntimeWarning)
            print(f"WARNING: {drift}")
        append_ratio_history(history_path, {
            "bench": "kite256_cold_warm",
            "cold_over_warm": round(ratio, 4),
            "warm_over_cold": round(1.0 / ratio, 4),
            "cold_ms": round(median(cold for cold, _ in runs), 1),
            "warm_ms": round(median(warm for _, warm in runs), 1),
            "unix_time": round(time.time(), 3),
        })

"""Credit-starved vs relaxed swap/100 fc case (informational).

The closed-loop epoch engine pays per epoch for the outstanding credit
release schedule, and one credit-starved packet keeps that schedule
long.  This times one swap/100 load-sweep case with 16-flit buffers and
a 1-cycle credit RTT (starved) against the same case with 48-flit
buffers and a 4-cycle RTT (relaxed), on a structure built beforehand.
Each run is a fresh interpreter; the median of three runs' starved ÷
relaxed ratio is printed and, under ``REPRO_STORE_DIR``, appended to
``ratio-history.jsonl`` with the usual >20% drift warning (on
``relaxed_over_starved``, where higher is better).  There is no bound:
a wall-clock ratio on a shared runner flakes.

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_credit_starved.py
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

#: Builds the structure, then prints the starved and relaxed case in ms.
COMMAND = """
import time
from repro.eval import SweepCase, evaluate_load_sweep_case as ev
def ms(b, r, seed):
    c = SweepCase('swap', 100, 'uniform@0.05:w64+256', seed,
                  (('fc_buffer_flits', b), ('fc_credit_rtt', r)))
    t = time.perf_counter(); ev(c)
    return 1e3 * (time.perf_counter() - t)
ms(16, 1, 99)  # build the structure
print(ms(16, 1, 1), ms(48, 4, 1))
"""


def test_swap100_starved_over_relaxed():
    runs = [fresh_interpreter_floats(COMMAND) for _ in range(RUNS)]
    ratio = median(starved / relaxed for starved, relaxed in runs)
    print()
    print(format_table(
        ["run", "16/1 ms", "48/4 ms", "starved / relaxed"],
        [[i, f"{starved:.0f}", f"{relaxed:.0f}", f"{starved / relaxed:.2f}"]
         for i, (starved, relaxed) in enumerate(runs)],
        title=f"swap/100 uniform@0.05:w64+256: median 16-flit RTT 1 / "
              f"48-flit RTT 4 {ratio:.2f}x",
    ))

    store_dir = os.environ.get("REPRO_STORE_DIR")
    if store_dir:
        history_path = Path(store_dir) / "ratio-history.jsonl"
        prior = [
            rec for rec in load_ratio_history(history_path)
            if rec.get("bench") == "swap100_credit_starved"
        ]
        drift = ratio_drift_warning(prior, 1.0 / ratio,
                                    key="relaxed_over_starved",
                                    tolerance=0.2)
        if drift is not None:
            warnings.warn(f"swap100_credit_starved drift watch: {drift}",
                          RuntimeWarning)
            print(f"WARNING: {drift}")
        append_ratio_history(history_path, {
            "bench": "swap100_credit_starved",
            "starved_over_relaxed": round(ratio, 4),
            "relaxed_over_starved": round(1.0 / ratio, 4),
            "starved_ms": round(median(s for s, _ in runs), 1),
            "relaxed_ms": round(median(r for _, r in runs), 1),
            "unix_time": round(time.time(), 3),
        })

"""Shared benchmark helpers.

Kept in a plainly-named module instead of conftest.py: importing from
``conftest`` is ambiguous whenever more than one conftest.py directory
is on ``sys.path`` (it used to shadow the unit suite's helpers).

Heavy experiment drivers are timed with a single round (they are
deterministic end-to-end system evaluations, not microbenchmarks), and
each benchmark prints the regenerated table/figure rows so the paper
comparison is visible in the benchmark log.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` with one warm round and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def fresh_interpreter_floats(command: str):
    """Run ``command`` in a fresh interpreter on this checkout's ``src``;
    return the floats it prints."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c", command], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return [float(v) for v in out.split()]


def quick_mode() -> bool:
    """Whether the CI smoke invocation asked for a reduced sweep."""
    return os.environ.get("REPRO_SWEEP_QUICK", "") not in ("", "0")


def mix_sweep_normalized(metric, *, mixes, num_chiplets=100, workers=4):
    """Sweep every (arch x mix) schedule and normalise ``metric`` to Floret.

    Shared driver of ``bench_fig3_latency`` and ``bench_fig5_energy``
    (identical sweep shape, different aggregated metric).  Returns
    ``{mix: {arch: value / floret_value}}``.  Cases are chunked one
    architecture per worker so each process reuses its cached topology
    and schedules.
    """
    from repro.eval import (
        ALL_ARCHS,
        SweepRunner,
        evaluate_mix_case,
        sweep_grid,
    )

    cases = sweep_grid(
        archs=ALL_ARCHS, sizes=(num_chiplets,), workloads=mixes
    )
    runner = SweepRunner(
        evaluate_mix_case, workers=workers, chunksize=len(mixes)
    )
    outcome = runner.run(cases)
    assert not outcome.failures, outcome.failures
    pivot = outcome.pivot(metric)
    return {
        mix: {a: v / by_arch["floret"] for a, v in by_arch.items()}
        for mix, by_arch in pivot.items()
    }

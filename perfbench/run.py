"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Runs one workload against the package under ``src/`` of this checkout
and prints, above the result, the workload's own figures and a host
fingerprint as ``#`` lines.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_sweep", "contended_sim", "results_query")
DEFAULT_SEED = 1

#: ``--child NAME ARGS...``: work that must run in a fresh interpreter.
CHILDREN = {
    "cold_setup": ("cold_sweep", "child_setup"),
    "cold_sweep": ("cold_sweep", "child_sweep"),
    "contended_setup": ("contended_sim", "child_setup"),
}


def _pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on one CPU.

    On a small shared host the simulator's component thread pool and the
    HTTP service's threads otherwise contend for the GIL across CPUs, and
    the run's speed follows whatever else holds the second CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'repro'}; run from "
                         "a checkout of the repository")
    sys.path.insert(0, str(src))
    os.environ.pop("REPRO_TRACE", None)  # the repo's own tracer stays off
    os.environ["REPRO_SWEEP_WORKERS"] = "1"
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {src}")


def fingerprint(workload: str, seed: int, outputs: str) -> dict:
    """Host and model identity: never compare runs that differ here."""
    import numpy
    import repro

    try:
        from repro.net.grantkernel import NUMBA_AVAILABLE as numba
    except ImportError:
        numba = importlib.util.find_spec("numba") is not None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": bool(numba),
        "repro": repro.__version__,
        "outputs": outputs,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a (fewer than 10 samples beyond it)"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_source()
    _pin_to_one_cpu()

    if args.child:
        module, func = CHILDREN[args.child[0]]
        extra = args.child[1:]
        call_args = ([int(extra[0]), extra[1] == "1"] if extra else [])
        result = getattr(importlib.import_module(module), func)(*call_args)
        print(json.dumps(result))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    outcome = importlib.import_module(args.workload).run(
        args.seed, args.seconds, bool(args.trace)
    )
    for name, (value, unit) in {**outcome.metrics,
                                **outcome.details}.items():
        print(f"# {args.workload} {name} = {_fmt(value)} {unit}")
    print("# fingerprint "
          + json.dumps(fingerprint(args.workload, args.seed,
                                   outcome.digest)))
    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    metrics = outcome.layers if args.trace else outcome.metrics
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

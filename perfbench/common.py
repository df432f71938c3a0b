"""Helpers shared by the benchmark workloads: stats, memory, children."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for stores, inside the checkout and git-ignored.
SCRATCH = ROOT / ".perfbench_tmp"

#: A child process that has not finished by then is killed.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: End-to-end metrics, ``name -> (value, unit)``.
    metrics: dict = field(default_factory=dict)
    #: Per-layer metrics (traced runs), ``name -> (value, unit)``.
    layers: dict = field(default_factory=dict)
    #: Workload-specific figures printed above the result line.
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output checks that did not hold, one line each.
    errors: list = field(default_factory=list)
    #: Digest of the simulated / queried outputs.
    digest: str = ""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted

    def end_to_end(self, *, setups, rounds, latencies, rss_mb,
                   speed) -> None:
        """Fill :attr:`metrics`, the same six names on every workload, in
        quiet-host time, and start :attr:`details` with the same timings
        in this host's time (``host_*``).

        ``setups`` and ``latencies`` hold (host s, quiet-host s) pairs;
        ``rounds`` holds (ops done, items done, host s, quiet-host s) per
        round or sweep; ``speed`` is every :class:`HostSpeed` sample.
        """
        # Rates are all the work over all the time.  With the host's
        # drift taken out per round, that spread less over five seeds
        # than the median of per-round rates (0.06 against 0.10).
        ops = sum(r[0] for r in rounds)
        items = sum(r[1] for r in rounds)

        def timings(which):
            p50 = percentile([pair[which] for pair in latencies], 50)
            seconds = sum(r[2 + which] for r in rounds)
            return {
                "setup_s": (median([s[which] for s in setups]), "s"),
                "ops_per_s": (ops / seconds, "1/s"),
                "op_p50_ms": (1e3 * p50 if p50 is not None else 0.0, "ms"),
                "items_per_s": (items / seconds, "1/s"),
            }

        self.metrics = {
            **timings(1),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": (1.0 - self.failed_frac, "ratio"),
        }
        self.details = {
            **{f"host_{name}": value
               for name, value in timings(0).items()},
            "host_slowdown": (median(speed) / REFERENCE_PASS_S, "ratio"),
        }


#: Wall time of one :meth:`HostSpeed.sample` pass on a quiet host of
#: the kind the benchmark was written on (2-vCPU Xeon at 2.1 GHz).
#: Timings are reported as if the host ran at that speed.
REFERENCE_PASS_S = 0.010
#: Samples :meth:`HostSpeed.around` takes on each side of a timing.  One
#: pass reads 10-25 ms as the host bursts, so a median needs several.
AROUND_SAMPLES = 5


class HostSpeed:
    """Host speed through a run, from timed passes of a reference kernel.

    A shared host runs the same code 1.3-1.6x slower for minutes at a
    time (other tenants on the same cores; no steal time shows).  Each
    timing is taken between reference samples and multiplied by
    ``REFERENCE_PASS_S / (median of the nearby samples)``: the seconds
    it would have taken on the quiet host.  Code changes still move
    the adjusted figure; the host's drift mostly cancels.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._keys = rng.integers(0, 4096, 16384)
        self._values = rng.random(16384)
        #: Wall time of every reference pass taken, s.
        self.samples = []
        self._pass()  # the first pass in a process pays for warm-up

    def sample(self) -> float:
        value = self._pass()
        self.samples.append(value)
        return value

    def _pass(self) -> float:
        """Time one pass of a fixed kernel that mixes interpreted Python
        with NumPy sorts, scans and scatters, as the simulator, the store
        and the query fold do.  It calls nothing in ``repro``."""
        import numpy as np

        keys, values = self._keys, self._values
        t0 = time.perf_counter()
        acc, counts = 0, {}
        for i in range(6000):
            acc += (i * 2654435761) % 1009
            counts[i & 255] = counts.get(i & 255, 0) + 1
        for _ in range(4):
            order = np.argsort(keys, kind="stable")
            np.cumsum(values[order])
            np.unique(keys)
            np.bincount(keys, weights=values, minlength=4096)
            np.maximum.accumulate(values)
        return time.perf_counter() - t0

    def factor(self, since: int = 0) -> float:
        """Multiplier from this host's seconds to quiet-host seconds, from
        the samples taken since ``len(self.samples)`` was ``since``."""
        return REFERENCE_PASS_S / median(self.samples[since:])

    def around(self, fn) -> tuple:
        """Call ``fn`` between two runs of :data:`AROUND_SAMPLES`
        samples; returns (its result, its wall time in host s, the factor
        of those samples)."""
        since = len(self.samples)
        for _ in range(AROUND_SAMPLES):
            self.sample()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        for _ in range(AROUND_SAMPLES):
            self.sample()
        return result, wall, self.factor(since)

    def seconds(self, seconds_fn) -> tuple:
        """:meth:`around` for a ``seconds_fn`` that times itself and
        returns host seconds; returns (host s, quiet-host s)."""
        seconds, _, factor = self.around(seconds_fn)
        return seconds, seconds * factor


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int):
    """``q``-th percentile, or ``None`` unless 10 samples lie beyond it."""
    values = sorted(values)
    if len(values) * (100 - q) / 100 < 10:
        return None
    if q == 50:
        return median(values)
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[q - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process since start or the last
    :func:`reset_peak_rss`, MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Restart the peak-RSS count from the current resident set."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def scratch_dir(prefix: str) -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()  # only succeeds once every run's store is gone
    except OSError:
        pass


def digest(payload) -> str:
    """Stable short hash of a JSON-serialisable output summary."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def same_metrics(a: dict, b: dict, ignore=("sim_epochs",)) -> bool:
    """Exact equality of two metric dicts, minus engine-specific keys."""
    for key in (set(a) | set(b)) - set(ignore):
        x, y = a.get(key), b.get(key)
        if x != y and not (isinstance(x, float) and isinstance(y, float)
                           and math.isnan(x) and math.isnan(y)):
            return False
    return True


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)  # the repo's own tracer stays off
    env["REPRO_SWEEP_WORKERS"] = "1"
    return env


def run_child(*args: str) -> dict:
    """Run ``run.py --child ...`` in a fresh interpreter; its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--child",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env=child_env(),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])

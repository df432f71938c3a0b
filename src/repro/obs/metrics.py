"""Process-local metrics: counters, gauges and log-bucket histograms.

The registry names the load-bearing signals of the sweep/shard/engine
stack -- cases evaluated/cached/stolen, lease claims/reaps, store
hits/misses/puts, per-engine dispatch decisions, epoch and
contention-component counts -- so a trace carries *what happened how
often*, not just where the time went.  Instruments are cheap plain
attributes (an increment is one float add), live per process, and ride
into trace files as one ``metrics`` record per worker at tracer close;
:func:`~repro.obs.report.summarize_metrics` re-aggregates a fleet's
records order-invariantly.

:class:`StreamingStats` is the Neumaier-compensated count/sum/extrema
machinery shared with the streaming sweep aggregators --
:class:`repro.eval.stream.RunningStats` is now a thin result-folding
wrapper around it, so the million-sample drift guarantee is implemented
exactly once.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKET_BOUNDS_S",
    "MetricsRegistry",
    "REGISTRY",
    "StreamingStats",
]


class StreamingStats:
    """Count/sum/extrema of a value stream, folded one sample at a time.

    The sum is Neumaier-compensated (Kahan's variant that also survives
    addends larger than the running sum) so a million-sample stream
    does not drift; the mean is ``sum / count``.
    """

    def __init__(self) -> None:
        self.count = 0
        self._sum = 0.0
        self._compensation = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Fold ``values`` in order, exactly as repeated :meth:`add` would.

        The one home of the arithmetic: the Neumaier step per value and
        first-wins extrema (a later value equal to the current min/max,
        such as ``-0.0`` after ``0.0``, does not replace it).
        """
        total, comp, count = self._sum, self._compensation, self.count
        lo, hi = self.min, self.max
        for value in values:
            value = float(value)
            count += 1
            t = total + value
            if abs(total) >= abs(value):
                comp += (total - t) + value
            else:
                comp += (value - t) + total
            total = t
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self._sum, self._compensation, self.count = total, comp, count
        self.min, self.max = lo, hi

    @property
    def sum(self) -> float:
        return self._sum + self._compensation

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-observed value of a signal (fleet sizes, window depths)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Default latency buckets: factor-4 log spacing from 1 microsecond to
#: ~67 seconds (14 buckets plus overflow) -- wide enough for a single
#: grant-loop epoch and a whole shard drain alike.
LATENCY_BUCKET_BOUNDS_S: Tuple[float, ...] = tuple(
    1e-6 * (4.0 ** i) for i in range(14)
)


class Histogram:
    """Fixed log-bucket histogram with Neumaier summary statistics.

    ``bounds`` are ascending upper bucket edges; sample ``v`` lands in
    the first bucket whose edge is ``>= v`` (one extra overflow bucket
    catches the rest).  Non-finite samples are dropped -- a NaN
    duration is an instrumentation bug, not a latency.
    """

    def __init__(
        self, name: str,
        bounds: Tuple[float, ...] = LATENCY_BUCKET_BOUNDS_S,
    ) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError(f"histogram bounds must ascend, got {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.stats = StreamingStats()

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        self.counts[bisect_right(self.bounds, value)] += 1
        # bisect_right: a sample equal to an edge overflows into the
        # next bucket, so edge values bucket consistently with > edge.
        self.stats.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.stats.count,
            "sum": self.stats.sum,
            "min": self.stats.min if self.stats.count else None,
            "max": self.stats.max if self.stats.count else None,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Named instruments, get-or-create, one registry per process.

    Creation is lock-guarded; increments are bare attribute updates
    (single bytecode under the GIL -- the instruments are process-local
    diagnostics, not a concurrency primitive).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(
        self, name: str,
        bounds: Tuple[float, ...] = LATENCY_BUCKET_BOUNDS_S,
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, bounds)
                )
        return histogram

    def empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state: what a ``metrics`` trace record carries."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop all instruments (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide default registry every instrumented layer uses.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY

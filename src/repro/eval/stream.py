"""Bounded-memory folds over a sweep's result stream.

:meth:`SweepRunner.stream <repro.eval.sweeps.SweepRunner.stream>` is the
one case-execution loop: it yields :class:`SweepResult`\\ s in
submission order (a reorder buffer behind a bounded in-flight pool
window) and checkpoints each to an attached
:class:`~repro.eval.store.ResultStore` as it is emitted.  This module
folds that stream without retaining it:

* Running aggregators (:class:`RunningStats`, :class:`RunningPivot`,
  :class:`RunningGroups`) fold each result into O(groups) state instead
  of retaining O(cases) results.
* :class:`StreamingSweepRunner` is a :class:`SweepRunner` with a
  ``window`` argument and :meth:`~StreamingSweepRunner.run_stream`,
  which feeds the stream to aggregators and returns a
  :class:`StreamOutcome` of counts and failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.clock import Stopwatch
from ..obs.metrics import StreamingStats
from .sweeps import SweepCase, SweepResult, SweepRunner

__all__ = [
    "RunningGroups",
    "RunningPivot",
    "RunningStats",
    "StreamOutcome",
    "StreamingSweepRunner",
]


# ---------------------------------------------------------------------------
# running aggregators: bounded-memory folds over the result stream


class RunningStats(StreamingStats):
    """Count/sum/extrema of one metric, folded one result at a time.

    The numeric machinery -- Neumaier-compensated sum (Kahan's variant
    that also survives addends larger than the running sum, so a
    million-case stream does not drift), extrema, ``mean = sum /
    count`` -- lives in :class:`repro.obs.metrics.StreamingStats`; this
    class binds it to one named metric of a result stream.

    A successful result that lacks the metric raises ``KeyError`` --
    the same contract as ``SweepOutcome.metric`` -- so a typo'd metric
    name fails on the first result instead of silently producing empty
    aggregates.  Failed results are skipped.
    """

    def __init__(self, metric: str) -> None:
        super().__init__()
        self.metric = metric

    def update(self, result: SweepResult) -> None:
        if not result.ok:
            return
        self.add(float(result.metrics[self.metric]))


class RunningPivot:
    """Streaming counterpart of :meth:`SweepOutcome.pivot`.

    Keeps one :class:`RunningStats` per ``(row, col)`` cell -- memory is
    bounded by the number of distinct cells, not the number of cases.
    ``table()`` returns the same ``{row: {col: mean}}`` shape as
    :meth:`SweepOutcome.pivot` (cell means agree to float summation
    order); like it, a successful result lacking the metric raises
    ``KeyError``.
    """

    def __init__(
        self,
        metric: str,
        row: Callable[[SweepCase], object] = lambda c: c.workload,
        col: Callable[[SweepCase], object] = lambda c: c.arch,
    ) -> None:
        self.metric = metric
        self._row = row
        self._col = col
        self._cells: Dict[object, Dict[object, RunningStats]] = {}

    def update(self, result: SweepResult) -> None:
        if not result.ok:
            return
        if self.metric not in result.metrics:
            raise KeyError(
                f"metric {self.metric!r} absent from "
                f"{result.case.case_id} (has {sorted(result.metrics)})"
            )
        value = float(result.metrics[self.metric])
        cols = self._cells.setdefault(self._row(result.case), {})
        col = self._col(result.case)
        cell = cols.get(col)
        if cell is None:
            cell = cols[col] = RunningStats(self.metric)
        cell.add(value)

    def table(self) -> Dict[object, Dict[object, float]]:
        return {
            rk: {ck: stats.mean for ck, stats in cols.items()}
            for rk, cols in self._cells.items()
        }


class RunningGroups:
    """Streaming counterpart of :meth:`SweepOutcome.group_by`.

    Folds per-group counts and per-metric :class:`RunningStats` instead
    of retaining the grouped results themselves.
    """

    def __init__(
        self,
        key: Callable[[SweepCase], object],
        metrics: Sequence[str] = (),
    ) -> None:
        self._key = key
        self._metric_names = tuple(metrics)
        self.counts: Dict[object, int] = {}
        self.stats: Dict[object, Dict[str, RunningStats]] = {}

    def update(self, result: SweepResult) -> None:
        if not result.ok:
            return
        group = self._key(result.case)
        self.counts[group] = self.counts.get(group, 0) + 1
        per_metric = self.stats.get(group)
        if per_metric is None:
            per_metric = self.stats[group] = {
                name: RunningStats(name) for name in self._metric_names
            }
        for stats in per_metric.values():
            stats.update(result)


@dataclass(frozen=True)
class StreamOutcome:
    """Summary of one streamed sweep: counts, not retained results.

    Only failures are kept verbatim (they are rare and need their
    tracebacks); successful results live in the aggregators and, when a
    store is attached, on disk.
    """

    total: int
    ok_count: int
    failures: Tuple[SweepResult, ...]
    elapsed_s: float
    workers: int
    store_hits: int
    aggregators: Tuple[object, ...] = ()

    @property
    def evaluated(self) -> int:
        """Cases that actually ran the evaluation function."""
        return self.total - self.store_hits


# ---------------------------------------------------------------------------
# streaming runner


class StreamingSweepRunner(SweepRunner):
    """A :class:`SweepRunner` that folds its stream into aggregators.

    Args:
        evaluate, workers, chunksize, store, shard: as for
            :class:`SweepRunner`.  A ``shard`` restricts every stream
            to this worker's deterministic slice of the grid (the
            store directory is the shards' common substrate; the
            coordinator merge in :func:`repro.eval.shard.merge_stream`
            reassembles the full-grid aggregates).
        window: Maximum chunks in flight in the pool at once
            (backpressure + reorder-buffer bound).  Default:
            ``2 * workers``.
    """

    def __init__(
        self,
        evaluate,
        *,
        workers: Optional[int] = None,
        chunksize: int = 4,
        store=None,
        shard=None,
        window: Optional[int] = None,
        trace=None,
    ) -> None:
        super().__init__(evaluate, workers=workers, chunksize=chunksize,
                         store=store, shard=shard, trace=trace)
        self.window = window

    def run_stream(
        self,
        cases: Iterable[SweepCase],
        aggregators: Sequence[object] = (),
    ) -> StreamOutcome:
        """Consume the stream, folding each result into ``aggregators``.

        Each aggregator only needs an ``update(result)`` method; the
        built-ins above cover metric stats, pivot tables and group
        counts.  Memory stays bounded by the aggregator state -- no
        result list is retained.
        """
        tracer = self._tracer()
        watch = Stopwatch()
        total = 0
        ok_count = 0
        failures: List[SweepResult] = []
        with tracer.span("stream_run") as span:
            for result in self.stream(cases):
                total += 1
                if result.ok:
                    ok_count += 1
                else:
                    failures.append(result)
                for aggregator in aggregators:
                    aggregator.update(result)
            span.add(
                total=total,
                failures=len(failures),
                store_hits=self.last_store_hits,
                workers=self.last_workers,
            )
        tracer.flush()
        return StreamOutcome(
            total=total,
            ok_count=ok_count,
            failures=tuple(failures),
            elapsed_s=watch.elapsed_s,
            workers=self.last_workers,
            store_hits=self.last_store_hits,
            aggregators=tuple(aggregators),
        )

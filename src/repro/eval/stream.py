"""Bounded-memory folds over a sweep's result stream.

:meth:`SweepRunner.stream <repro.eval.sweeps.SweepRunner.stream>` is the
one case-execution loop: it yields :class:`SweepResult`\\ s in
submission order (a reorder buffer behind a bounded in-flight pool
window) and checkpoints each to an attached
:class:`~repro.eval.store.ResultStore` as it is emitted.
:meth:`SweepRunner.run_stream <repro.eval.sweeps.SweepRunner.run_stream>`
feeds that stream to the running aggregators of this module
(:class:`RunningStats`, :class:`RunningPivot`, :class:`RunningGroups`),
which fold each result into O(groups) state instead of retaining
O(cases) results.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..obs.metrics import StreamingStats
from .sweeps import SweepCase, SweepResult

__all__ = [
    "RunningGroups",
    "RunningPivot",
    "RunningStats",
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

"""Streaming sweep execution with bounded-memory aggregation.

:class:`~repro.eval.sweeps.SweepRunner` gathers every result before
returning -- fine for hundreds of cases, wrong for the very large grids
the ROADMAP targets.  This module replaces gather-at-end with an
incremental pipeline:

* :class:`StreamingSweepRunner.stream` yields :class:`SweepResult`\\ s
  one by one as worker processes complete them.  Futures retire via
  ``as_completed`` under a bounded in-flight window (backpressure: at
  most ``window`` chunks are submitted at once), and a small reorder
  buffer re-emits them in submission order, so downstream consumers see
  a deterministic sequence regardless of worker scheduling -- which is
  what makes warm re-runs reproduce cold-run aggregates bit-for-bit.
* Running aggregators (:class:`RunningStats`, :class:`RunningPivot`,
  :class:`RunningGroups`) fold each result into O(groups) state instead
  of retaining O(cases) results.
* A :class:`~repro.eval.store.ResultStore` attached to the runner turns
  the stream into a checkpoint: results are appended as they complete,
  cached cases short-circuit the pool entirely, and re-running an
  interrupted sweep resumes from the last persisted case.

Pool-level failures (restricted sandboxes, crashed workers, unpicklable
evaluators) degrade to inline evaluation mid-stream with a loud
``RuntimeWarning``, mirroring ``SweepRunner``.
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.clock import Stopwatch
from ..obs.metrics import REGISTRY, StreamingStats
from .sweeps import (
    SweepCase,
    SweepResult,
    SweepRunner,
    _evaluate_one,
    is_pool_failure,
)

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
    the same contract as the gather-path ``SweepOutcome.metric`` -- so
    a typo'd metric name fails on the first result instead of silently
    producing empty aggregates.  Failed results are skipped.
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
    ``table()`` returns the same ``{row: {col: mean}}`` shape as the
    gather-at-end pivot (cell means agree to float summation order);
    like it, a successful result lacking the metric raises ``KeyError``.
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


def _evaluate_chunk(evaluate, chunk: List[SweepCase]) -> List[SweepResult]:
    """Worker-side: evaluate one chunk of cases (amortises IPC)."""
    return [_evaluate_one(evaluate, case) for case in chunk]


class _OrderedPoolDrain:
    """Iterator of chunk results in submission order, eagerly primed.

    The first window of chunks is submitted at *construction* -- not on
    first ``next`` -- so workers start evaluating while the consumer is
    still replaying a store-hit prefix.  Chunks retire through
    ``wait(FIRST_COMPLETED)`` (the ``as_completed`` primitive); a
    reorder buffer restores submission order, and the window bounds
    pending AND completed-but-unemitted chunks, so one slow head chunk
    stalls submission instead of letting the buffer absorb the grid.

    The owner must call :meth:`close` when done or abandoning the
    iterator (cancels queued futures, releases the pool).
    """

    def __init__(self, evaluate, chunks: List[List[SweepCase]],
                 workers: int, window: int) -> None:
        self._evaluate = evaluate
        self._chunks = chunks
        self._window = window
        self._pending: Dict[object, int] = {}
        self._buffered: Dict[int, List[SweepResult]] = {}
        self._next_submit = 0
        self._next_emit = 0
        self._pool = ProcessPoolExecutor(max_workers=workers)
        try:
            self._submit_more()
        except BaseException:
            self.close()
            raise

    def _submit_more(self) -> None:
        while (self._next_submit < len(self._chunks)
               and len(self._pending) + len(self._buffered) < self._window):
            future = self._pool.submit(
                _evaluate_chunk, self._evaluate,
                self._chunks[self._next_submit],
            )
            self._pending[future] = self._next_submit
            self._next_submit += 1

    def __iter__(self) -> "_OrderedPoolDrain":
        return self

    def __next__(self) -> List[SweepResult]:
        if self._next_emit >= len(self._chunks):
            raise StopIteration
        while self._next_emit not in self._buffered:
            done, _ = wait(self._pending, return_when=FIRST_COMPLETED)
            for future in done:
                self._buffered[self._pending.pop(future)] = future.result()
        out = self._buffered.pop(self._next_emit)
        self._next_emit += 1
        self._submit_more()
        return out

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class StreamingSweepRunner(SweepRunner):
    """A :class:`SweepRunner` that yields results as they complete.

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
        #: Workers the most recent stream actually used (1 after
        #: inline degradation); mirrors ``SweepOutcome.workers``.
        self.last_workers = 1
        self.last_store_hits = 0

    # -- the stream itself -------------------------------------------------

    def stream(self, cases: Iterable[SweepCase]) -> Iterator[SweepResult]:
        """Yield one :class:`SweepResult` per case, in submission order.

        Store-cached cases are emitted without touching the pool; fresh
        results are appended to the store the moment they are emitted,
        so abandoning this generator mid-flight leaves a resumable
        checkpoint: a later call with the same store re-evaluates only
        the cases that never completed.
        """
        cases = self._shard_slice(list(cases))
        tracer = self._tracer()
        keys: Optional[List[str]] = None
        hit_indices: set = set()
        if self.store is not None:
            keys = self.case_keys(cases)
            # Membership probes only (misses counted, payloads not
            # loaded): hits are loaded lazily at emission so a warm
            # replay of a huge grid never materialises all payloads at
            # once.
            hit_indices = {
                i for i in range(len(cases)) if self.store.probe(keys[i])
            }
        self.last_store_hits = len(hit_indices)
        miss_indices = [i for i in range(len(cases))
                        if i not in hit_indices]
        workers = self._resolve_workers(len(miss_indices))
        self.last_workers = workers if len(miss_indices) > 1 else 1
        # Built (and pool-primed) eagerly: workers start on the misses
        # while the cached prefix below replays.
        fresh, close_fresh = self._stream_evaluate(
            [cases[i] for i in miss_indices], workers
        )
        try:
            for i, case in enumerate(cases):
                if i in hit_indices:
                    replay = Stopwatch()
                    hit = self.store.get(keys[i], case)
                    if hit is None:
                        # Payload vanished between probe and emission
                        # (a concurrent cleanup, a lost npz): evaluate
                        # inline rather than dropping the case.
                        hit = _evaluate_one(self.evaluate, case)
                        self.store.put(keys[i], hit)
                        self.last_store_hits -= 1
                    else:
                        REGISTRY.counter("cases_cached").inc()
                        if tracer.enabled:
                            from ..obs.clock import wall

                            tracer.record_span(
                                "replay_case",
                                wall() - replay.elapsed_s,
                                replay.elapsed_s,
                                case=case.case_id,
                            )
                    yield hit
                    continue
                result = next(fresh)
                if self.store is not None and keys is not None:
                    self.store.put(keys[i], result)
                yield result
        finally:
            # Runs on abandonment too (GeneratorExit): queued futures
            # are cancelled even if no miss was ever consumed.
            close_fresh()
            tracer.flush()

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

    # -- evaluation paths --------------------------------------------------

    def _stream_evaluate(
        self, cases: List[SweepCase], workers: int
    ) -> Tuple[Iterator[SweepResult], Callable[[], None]]:
        """Per-case result iterator plus its cleanup callable.

        Not a generator itself: pool construction and the first window
        of submissions happen HERE, at call time, so callers that emit
        a store-hit prefix before consuming a miss still overlap replay
        with evaluation.  The cleanup must be invoked by the caller
        (also on abandonment) -- closing an unstarted generator would
        never reach a ``finally`` inside it.
        """
        if workers <= 1 or len(cases) <= 1:
            return (
                (_evaluate_one(self.evaluate, case) for case in cases),
                lambda: None,
            )
        chunks = [
            cases[i: i + self.chunksize]
            for i in range(0, len(cases), self.chunksize)
        ]
        window = self.window if self.window is not None else 2 * workers
        try:
            drain = _OrderedPoolDrain(self.evaluate, chunks, workers,
                                      max(1, window))
        except Exception as exc:
            if not is_pool_failure(exc):
                raise
            self._warn_degrade(exc, len(cases))
            self.last_workers = 1
            return (
                (_evaluate_one(self.evaluate, case) for case in cases),
                lambda: None,
            )
        return self._drain_results(drain, cases), drain.close

    def _drain_results(
        self, drain: _OrderedPoolDrain, cases: List[SweepCase]
    ) -> Iterator[SweepResult]:
        emitted = 0
        try:
            for chunk_results in drain:
                for result in chunk_results:
                    emitted += 1
                    yield result
        except Exception as exc:
            # Same contract as SweepRunner._run_pool: known pool-level
            # failures degrade to inline evaluation -- loudly -- and the
            # stream picks up exactly where the pool stopped emitting
            # (the reorder buffer guarantees `emitted` is a clean
            # submission-order prefix).
            if not is_pool_failure(exc):
                raise
            self._warn_degrade(exc, len(cases) - emitted)
            self.last_workers = 1
            drain.close()
            for case in cases[emitted:]:
                yield _evaluate_one(self.evaluate, case)

    @staticmethod
    def _warn_degrade(exc: BaseException, remaining: int) -> None:
        warnings.warn(
            f"streaming sweep pool failed ({exc!r}); evaluating "
            f"remaining {remaining} cases inline",
            RuntimeWarning,
            stacklevel=3,
        )

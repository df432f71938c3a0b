"""Parallel parameter-sweep runner over (topology x workload x params).

The vectorized engine (:mod:`repro.net.vectorized`) makes one scenario
cheap; this module makes *many* scenarios cheap by fanning a grid of
:class:`SweepCase` descriptors across worker processes and aggregating
the per-case metric dictionaries into a structured
:class:`SweepOutcome`.  Benchmarks (``benchmarks/bench_fig*.py``,
``benchmarks/bench_sweep_engine.py``) and future scaling work all drive
their scenario fan-out through :class:`SweepRunner`.

Design notes:

* One case-execution loop: :meth:`SweepRunner.stream` checks the
  store, evaluates the misses and puts each result as it is emitted;
  :meth:`SweepRunner.run` is a fold of that stream into a
  :class:`SweepOutcome`, :meth:`SweepRunner.run_stream` a fold into
  running aggregators (:mod:`repro.eval.stream`) and a
  :class:`StreamOutcome`.
* Cases and results are small picklable dataclasses; evaluation
  functions must be module-level callables so the process pool can ship
  them (the built-ins below cover communication sweeps, full mix
  schedules and structural topology censuses).
* ``workers <= 1`` runs inline -- deterministic, dependency-free, and
  what the unit tests use.  Pool failures (restricted sandboxes without
  POSIX semaphores, for instance) degrade to the inline path with one
  ``RuntimeWarning`` instead of erroring, so a sweep always completes.
* Per-process caches (topology builders, routing tables) are warmed
  lazily inside the workers; a chunked submission order keeps cases of
  the same topology together to maximise cache reuse.
"""

from __future__ import annotations

import math
import os
import pickle
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..net.simulator import ENGINES
from ..noi.topology import Topology
from ..obs.clock import Stopwatch
from ..obs.metrics import REGISTRY
from ..obs.trace import default_tracer, resolve_tracer
from ..params import NoIParams

#: Environment knob: hard override of worker count for every runner.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

Overrides = Tuple[Tuple[str, float], ...]


#: The start of every ``case_id``: arch, size, workload and seed.
CASE_ID_HEAD = "{}/{}/{}/s{}"


def case_id_of(case: Mapping) -> str:
    """Display id of a case given as a mapping of its axes.

    Reads ``arch``, ``num_chiplets``, ``workload``, ``seed`` and
    ``noi_overrides`` -- a :class:`SweepCase`'s own fields or the
    ``case`` mapping of a stored record -- so the store orders raw
    records by exactly the id the dataclass reports.  The id is
    :data:`CASE_ID_HEAD` of the first four plus
    :func:`overrides_id` of the overrides.
    """
    return (CASE_ID_HEAD.format(case["arch"], case["num_chiplets"],
                                case["workload"], case["seed"])
            + overrides_id(case["noi_overrides"]))


def overrides_id(overrides) -> str:
    """The end of a ``case_id``: ``""`` without overrides, else
    ``"/name=value,..."`` in the overrides' own order."""
    if not overrides:
        return ""
    return "/" + ",".join([f"{k}={v}" for k, v in overrides])


@dataclass(frozen=True)
class SweepCase:
    """One scenario: an architecture, a workload and parameter overrides.

    Attributes:
        arch: Architecture name (``"floret"``, ``"siam"``, ``"kite"``,
            ``"swap"``).
        num_chiplets: System size.
        workload: Workload selector -- a Table II mix name (``"WL1"``)
            for schedule sweeps or a synthetic traffic pattern name
            (``"uniform"``, ``"neighbor"``, ``"hotspot"``,
            ``"transpose"``) for communication sweeps.
        seed: RNG seed for randomised workloads.
        noi_overrides: ``NoIParams`` field overrides as a hashable,
            picklable tuple of ``(field, value)`` pairs.
        tag: Free-form label for grouping in reports.
    """

    arch: str
    num_chiplets: int = 36
    workload: str = "uniform"
    seed: int = 0
    noi_overrides: Overrides = ()
    tag: str = ""

    @property
    def case_id(self) -> str:
        return case_id_of(vars(self))

    def params(self) -> NoIParams:
        return replace(NoIParams(), **dict(self.noi_overrides))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one case: metric dict or a captured error.

    Array-valued outputs (thermal tier maps and the like) ride in
    ``arrays`` rather than ``metrics`` so scalar aggregation
    (``pivot``/``metric``) stays uniform; evaluators simply return
    ``np.ndarray`` values in their mapping and :func:`_evaluate_one`
    routes them here.
    """

    case: SweepCase
    metrics: Dict[str, float]
    elapsed_s: float
    error: Optional[str] = None
    arrays: Optional[Dict[str, np.ndarray]] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepOutcome:
    """Aggregated sweep results with query helpers."""

    results: Tuple[SweepResult, ...]
    elapsed_s: float
    workers: int
    #: Cases answered from the :class:`~repro.eval.store.ResultStore`
    #: instead of being evaluated (0 when no store is attached).
    store_hits: int = 0

    @property
    def evaluated(self) -> int:
        """Cases that actually ran the evaluation function."""
        return len(self.results) - self.store_hits

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> Tuple[SweepResult, ...]:
        return tuple(r for r in self.results if r.ok)

    @property
    def failures(self) -> Tuple[SweepResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def metric(self, name: str) -> np.ndarray:
        """Values of one metric over all successful cases, sweep order."""
        return np.array([r.metrics[name] for r in self.ok], dtype=np.float64)

    def group_by(
        self, key: Callable[[SweepCase], object]
    ) -> Dict[object, List[SweepResult]]:
        out: Dict[object, List[SweepResult]] = {}
        for r in self.ok:
            out.setdefault(key(r.case), []).append(r)
        return out

    def by_arch(self) -> Dict[str, List[SweepResult]]:
        return self.group_by(lambda c: c.arch)

    def pivot(
        self, metric: str,
        row: Callable[[SweepCase], object] = lambda c: c.workload,
        col: Callable[[SweepCase], object] = lambda c: c.arch,
    ) -> Dict[object, Dict[object, float]]:
        """``{row_key: {col_key: mean metric}}`` table of one metric."""
        table: Dict[object, Dict[object, List[float]]] = {}
        for r in self.ok:
            cell = table.setdefault(row(r.case), {}).setdefault(
                col(r.case), []
            )
            cell.append(r.metrics[metric])
        return {
            rk: {ck: float(np.mean(vs)) for ck, vs in cols.items()}
            for rk, cols in table.items()
        }

    def rows(self, metric_names: Sequence[str]) -> List[List[object]]:
        """Table rows ``[case_id, *metrics]`` for ``format_table``."""
        return [
            [r.case.case_id] + [r.metrics.get(m, float("nan"))
                                for m in metric_names]
            for r in self.ok
        ]


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


def sweep_grid(
    archs: Sequence[str],
    sizes: Sequence[int] = (36,),
    workloads: Sequence[str] = ("uniform",),
    seeds: Sequence[int] = (0,),
    overrides: Sequence[Overrides] = ((),),
    tag: str = "",
) -> List[SweepCase]:
    """Cartesian product of sweep axes, topology-major for cache reuse.

    Every override tuple is checked once, so a bad name or engine fails
    here with a ``ValueError`` instead of in every case after it is
    leased.
    """
    overrides = tuple(overrides)
    for over in overrides:
        _check_overrides(over)
    return [
        SweepCase(
            arch=a, num_chiplets=n, workload=w, seed=s,
            noi_overrides=o, tag=tag,
        )
        for a, n, o, w, s in product(archs, sizes, overrides,
                                     workloads, seeds)
    ]


#: Default of each :class:`~repro.params.NoIParams` field: a string
#: default takes a string, ``None`` a number or ``None``, any other a
#: number.
_NOI_FIELDS = {f.name: f.default for f in fields(NoIParams)}


def _check_overrides(overrides: Overrides) -> None:
    """Raise ``ValueError`` naming the first bad ``noi_overrides`` entry.

    Each entry must be a ``(name, value)`` pair whose name is a
    :class:`~repro.params.NoIParams` field; a ``sim_engine`` value must
    be one of :data:`repro.net.simulator.ENGINES`, any other value a
    number (a bool counts, a string or list does not), or ``None`` for
    a field whose default is ``None``, and a float value must be finite.
    """
    for pair in overrides:
        if not (isinstance(pair, tuple) and len(pair) == 2
                and isinstance(pair[0], str)):
            raise ValueError(
                f"override {pair!r} is not a (name, value) pair"
            )
        name, value = pair
        if name not in _NOI_FIELDS:
            raise ValueError(
                f"unknown override {name!r}: not a NoIParams field"
            )
        if name == "sim_engine":
            if value not in ENGINES:
                raise ValueError(
                    f"override sim_engine={value!r}: expected one of "
                    f"{ENGINES}"
                )
        elif not (isinstance(value, (int, float))
                  or (value is None and _NOI_FIELDS[name] is None)):
            raise ValueError(
                f"override {name}={value!r}: expected a number"
                + (" or None" if _NOI_FIELDS[name] is None else "")
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(
                f"override {name}={value!r}: value must be finite"
            )


def is_pool_failure(exc: BaseException) -> bool:
    """Whether ``exc`` is a known pool-level (not evaluation) failure.

    Covers pool construction/worker loss (``OSError`` in sandboxes
    without POSIX semaphores, ``BrokenProcessPool`` after a worker
    crash) and evaluator-pickling failures.  CPython reports the latter
    inconsistently: ``pickle.PicklingError`` on direct submission, but
    ``AttributeError("Can't pickle local object ...")`` or
    ``TypeError("cannot pickle ...")`` when the queue feeder thread hits
    it -- so those are matched by message.  Worker-side evaluation
    errors never reach here: :func:`_evaluate_one` captures them into
    ``SweepResult.error``.
    """
    if isinstance(exc, (OSError, BrokenProcessPool, pickle.PicklingError)):
        return True
    if isinstance(exc, (AttributeError, TypeError)):
        return "pickle" in str(exc).lower()
    return False


def _record_case(result: SweepResult) -> SweepResult:
    """Metrics/trace bookkeeping for one evaluated case.

    Runs in whichever process evaluated the case (pool workers pick up
    ``REPRO_TRACE`` from the inherited environment), so per-worker
    trace files attribute each case to the process that ran it.
    """
    if result.ok:
        REGISTRY.counter("cases_evaluated").inc()
    else:
        REGISTRY.counter("cases_failed").inc()
    REGISTRY.histogram("case_latency_s").observe(result.elapsed_s)
    tracer = default_tracer()
    if tracer.enabled:
        from ..obs.clock import wall

        tracer.record_span(
            "evaluate_case",
            wall() - result.elapsed_s,
            result.elapsed_s,
            case=result.case.case_id,
            ok=result.ok,
        )
    return result


def _evaluate_one(
    evaluate: Callable[[SweepCase], Mapping[str, float]],
    case: SweepCase,
) -> SweepResult:
    watch = Stopwatch()
    try:
        raw = dict(evaluate(case))
    except Exception:
        return _record_case(SweepResult(
            case=case,
            metrics={},
            elapsed_s=watch.elapsed_s,
            error=traceback.format_exc(limit=8),
        ))
    metrics: Dict[str, float] = {}
    arrays: Dict[str, np.ndarray] = {}
    for name, value in raw.items():
        if isinstance(value, np.ndarray):
            arrays[name] = value
        else:
            metrics[name] = value
    return _record_case(SweepResult(
        case=case,
        metrics=metrics,
        elapsed_s=watch.elapsed_s,
        arrays=arrays or None,
    ))


def _evaluate_chunk(evaluate, chunk: List[SweepCase]) -> List[SweepResult]:
    """Worker-side: evaluate one chunk of cases (amortises IPC)."""
    return [_evaluate_one(evaluate, case) for case in chunk]


class _OrderedPoolDrain:
    """Iterator of chunk results in submission order, eagerly primed.

    The first window of chunks is submitted at *construction* -- not on
    first ``next`` -- so workers start evaluating while the consumer is
    still replaying a store-hit prefix.  Chunks retire through
    ``wait(FIRST_COMPLETED)`` (the ``as_completed`` primitive); a
    reorder buffer restores submission order, and the window of
    ``2 * workers`` chunks bounds pending AND completed-but-unemitted
    chunks, so one slow head chunk stalls submission instead of letting
    the buffer absorb the grid.

    The owner must call :meth:`close` when done or abandoning the
    iterator (cancels queued futures, releases the pool).
    """

    def __init__(self, evaluate, chunks: List[List[SweepCase]],
                 workers: int) -> None:
        self._evaluate = evaluate
        self._chunks = chunks
        self._window = 2 * workers
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


def _warn_degrade(exc: BaseException, remaining: int) -> None:
    warnings.warn(
        f"streaming sweep pool failed ({exc!r}); re-running remaining "
        f"{remaining} cases inline",
        RuntimeWarning,
        stacklevel=3,
    )


class SweepRunner:
    """Fan a list of :class:`SweepCase` over worker processes.

    :meth:`stream` is the one case-execution loop: it yields results in
    submission order and checkpoints each to the store as it is
    emitted.  :meth:`run` folds that stream into a :class:`SweepOutcome`;
    :meth:`run_stream` folds it into bounded-memory aggregators and a
    :class:`StreamOutcome`.

    Args:
        evaluate: Module-level callable mapping a case to a metric dict
            (must be picklable for ``workers > 1``).
        workers: Process count.  ``None`` picks ``min(cpu, cases)``;
            ``<= 1`` runs inline.  The ``REPRO_SWEEP_WORKERS`` env var
            overrides either.
        chunksize: Cases per pool task; larger chunks amortise IPC and
            keep same-topology cases on one worker's warm caches.
        store: Optional :class:`~repro.eval.store.ResultStore`.  When
            set, cached cases are answered without dispatch and fresh
            results are appended as they are emitted, so a completed
            sweep replays with zero evaluations and an interrupted one
            resumes from the last persisted case.
        trace: Optional tracing target -- a
            :class:`~repro.obs.trace.Tracer`, a trace directory path,
            or ``None`` to defer to the ``REPRO_TRACE`` environment
            variable (the default, which is a no-op tracer when the
            variable is unset).
    """

    def __init__(
        self,
        evaluate: Callable[[SweepCase], Mapping[str, float]],
        *,
        workers: Optional[int] = None,
        chunksize: int = 4,
        store=None,
        trace=None,
    ) -> None:
        self.evaluate = evaluate
        self.workers = workers
        self.chunksize = max(1, chunksize)
        self.store = store
        self.trace = trace
        self._trace_tracer = None
        #: Workers the most recent stream actually used (1 after
        #: inline degradation) and the cases it replayed from the store.
        self.last_workers = 1
        self.last_store_hits = 0

    def _tracer(self):
        """This runner's tracer, opened once per explicit ``trace=``.

        ``trace=None`` defers to :func:`~repro.obs.trace.default_tracer`
        on every call (the env can change between runs, and forked pool
        workers must open their own files); an explicit path or tracer
        resolves once, so every run of this runner appends to one file.
        """
        if self.trace is None:
            return default_tracer()
        if self._trace_tracer is None:
            self._trace_tracer = resolve_tracer(self.trace)
        return self._trace_tracer

    def _resolve_workers(self, num_cases: int) -> int:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV}={env!r} is not an integer worker count"
                ) from None
            return max(1, workers)
        if self.workers is not None:
            return max(1, self.workers)
        return max(1, min(os.cpu_count() or 1, num_cases))

    def run(self, cases: Iterable[SweepCase]) -> SweepOutcome:
        """Every result of :meth:`stream`, gathered in sweep order."""
        tracer = self._tracer()
        watch = Stopwatch()
        with tracer.span("sweep_run") as sweep_span:
            results = tuple(self.stream(cases))
            sweep_span.add(
                cases=len(results),
                store_hits=self.last_store_hits,
                evaluated=len(results) - self.last_store_hits,
                workers=self.last_workers,
            )
        tracer.flush()
        return SweepOutcome(
            results,
            watch.elapsed_s,
            workers=self.last_workers,
            store_hits=self.last_store_hits,
        )

    def run_stream(
        self,
        cases: Iterable[SweepCase],
        aggregators: Sequence[object] = (),
    ) -> StreamOutcome:
        """Consume :meth:`stream`, folding each result into ``aggregators``.

        Each aggregator only needs an ``update(result)`` method
        (:mod:`repro.eval.stream` has metric stats, pivot tables and
        group counts).  Memory stays bounded by the aggregator state --
        no result list is retained.
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

    def stream(self, cases: Iterable[SweepCase]) -> Iterator[SweepResult]:
        """Yield one :class:`SweepResult` per case, in submission order.

        Store-cached cases are emitted without touching the pool; fresh
        results are appended to the store the moment they are emitted,
        so abandoning this generator mid-flight leaves a resumable
        checkpoint: a later call with the same store re-evaluates only
        the cases that never completed.
        """
        cases = list(cases)
        tracer = self._tracer()
        keys: Optional[List[str]] = None
        hit_indices: set = set()
        if self.store is not None:
            from .store import case_keys

            keys = case_keys(self.evaluate, cases)
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
                if keys is not None:
                    self.store.put(keys[i], result)
                yield result
        finally:
            # Runs on abandonment too (GeneratorExit): queued futures
            # are cancelled even if no miss was ever consumed.
            close_fresh()
            tracer.flush()

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

        Known pool-level failures (:func:`is_pool_failure`: restricted
        sandboxes without POSIX semaphores, crashed workers, an
        unpicklable ``evaluate``) degrade to inline evaluation of the
        cases the pool has not emitted, with one ``RuntimeWarning``, so
        a sweep always completes; anything else (``KeyboardInterrupt``
        included) propagates.
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
        try:
            drain = _OrderedPoolDrain(self.evaluate, chunks, workers)
        except Exception as exc:
            if not is_pool_failure(exc):
                raise
            _warn_degrade(exc, len(cases))
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
            # The stream picks up exactly where the pool stopped
            # emitting (the reorder buffer guarantees `emitted` is a
            # clean submission-order prefix).
            if not is_pool_failure(exc):
                raise
            _warn_degrade(exc, len(cases) - emitted)
            self.last_workers = 1
            drain.close()
            for case in cases[emitted:]:
                yield _evaluate_one(self.evaluate, case)


# ---------------------------------------------------------------------------
# built-in case evaluators (module-level: picklable for the pool)


def case_topology(case: SweepCase) -> Topology:
    """The topology of a sweep case: a view of its cached structure.

    The structure is cached per ``(arch, num_chiplets,
    chiplet_pitch_mm)`` (:func:`repro.eval.experiments.topology_for`),
    so cases that differ only in other overrides share one graph build
    and one routing-table build per process.
    """
    from .experiments import topology_for

    return topology_for(case.arch, case.num_chiplets, case.params())


def synthetic_traffic(
    pattern: str, num_chiplets: int, seed: int,
    *,
    flows: Optional[int] = None,
    max_payload: int = 4096,
) -> np.ndarray:
    """Deterministic synthetic transfer sets for communication sweeps.

    Patterns: ``uniform`` (random pairs), ``neighbor`` (ring successor),
    ``hotspot`` (all-to-one plus background), ``transpose``
    (``i -> n-1-i``).
    """
    n = num_chiplets
    rng = np.random.default_rng(seed * 7919 + n)
    flows = flows if flows is not None else 4 * n
    if pattern == "uniform":
        src = rng.integers(0, n, flows)
        dst = rng.integers(0, n, flows)
    elif pattern == "neighbor":
        src = np.arange(n, dtype=np.int64)
        dst = (src + 1) % n
    elif pattern == "hotspot":
        hot = int(rng.integers(0, n))
        src = rng.integers(0, n, flows)
        dst = np.where(rng.random(flows) < 0.5, hot, rng.integers(0, n, flows))
    elif pattern == "transpose":
        src = np.arange(n, dtype=np.int64)
        dst = n - 1 - src
    else:
        raise ValueError(f"unknown traffic pattern {pattern!r}")
    payload = rng.integers(1, max_payload, src.shape[0])
    return np.stack(
        [src.astype(np.int64), dst.astype(np.int64), payload], axis=1
    )


def evaluate_comm_case(case: SweepCase) -> Dict[str, float]:
    """Vectorized-engine communication metrics for one synthetic case."""
    from ..net.vectorized import communication_cost_vec

    topo = case_topology(case)
    transfers = synthetic_traffic(
        case.workload, case.num_chiplets, case.seed
    )
    report = communication_cost_vec(topo, transfers)
    return {
        "latency_cycles": float(report.latency_cycles),
        "serial_latency_cycles": float(report.serial_latency_cycles),
        "energy_pj": report.energy_pj,
        "total_flits": float(report.total_flits),
        "weighted_hops": report.weighted_hops,
        "mean_packet_latency": report.mean_packet_latency,
    }


def evaluate_mix_case(case: SweepCase) -> Dict[str, float]:
    """Full Table II mix schedule metrics for one case (Figs. 3/4/5).

    The schedule path builds its topologies through the
    :mod:`repro.eval.experiments` caches, which do not take parameter
    overrides; silently returning default-parameter results for an
    override sweep would mislabel identical data, so such cases fail
    loudly instead.
    """
    from .experiments import schedule

    _reject_schedule_axes(case, "evaluate_mix_case")
    result = schedule(case.arch, case.workload, case.num_chiplets)
    return {
        "mean_packet_latency": result.mean_packet_latency,
        "noi_energy_pj": result.total_noi_energy_pj,
        "utilization": result.utilization,
        "makespan_cycles": float(result.makespan_cycles),
    }


def _reject_schedule_axes(case: SweepCase, evaluator: str) -> None:
    """Refuse axes the deterministic schedule/MOO paths cannot honour.

    Those paths build their systems through the
    :mod:`repro.eval.experiments` caches, which take no parameter
    overrides and no RNG seed; silently returning identical
    default-parameter results for a swept axis would mislabel
    duplicated data, so such cases fail loudly instead.
    """
    if case.noi_overrides:
        raise ValueError(
            f"{evaluator} does not support noi_overrides "
            f"(got {case.noi_overrides}); add parameter plumbing to "
            "repro.eval.experiments first"
        )
    if case.seed != 0:
        raise ValueError(
            f"{evaluator} is deterministic; sweeping seed {case.seed} "
            "would duplicate identical results"
        )


def evaluate_utilization_case(case: SweepCase) -> Dict[str, float]:
    """Fig. 4 runtime-utilisation metrics for one (arch, mix) case.

    ``workload`` is a Table II mix name.  Baselines schedule under the
    paper's 2-hop contiguity QoS budget (rejections strand chiplets);
    Floret's contiguous mapper runs unconstrained.  The missing budget
    on Floret is encoded as ``hop_budget = -1``.
    """
    from .experiments import utilization_row

    _reject_schedule_axes(case, "evaluate_utilization_case")
    row = utilization_row(case.arch, case.workload,
                          num_chiplets=case.num_chiplets)
    return {
        "utilization": row.utilization,
        "constraint_failures": float(row.constraint_failures),
        "relaxed_mappings": float(row.relaxed_mappings),
        "makespan_cycles": float(row.makespan_cycles),
        "hop_budget": float(row.hop_budget)
        if row.hop_budget is not None else -1.0,
    }


def evaluate_moo_case(case: SweepCase) -> Dict[str, object]:
    """Section III joint perf-thermal MOO census for one Table I DNN.

    ``workload`` is a DNN id (``"DNN1"``..``"DNN13"``).  Runs (per
    process, cached) the NSGA-II mapping optimisation on the 100-PE
    Floret-3D stack and summarises both the performance-only and the
    joint design: EDP, peak temperature, inference-accuracy drop and
    bottom-tier hotspot census, plus the tier temperature maps as array
    payloads (Figs. 6-7 derive entirely from this one evaluator).
    """
    from .experiments import moo_candidate_summary, moo_result

    if case.arch != "floret":
        raise ValueError(
            "evaluate_moo_case runs on the Floret-3D stack only "
            f"(got arch={case.arch!r})"
        )
    if case.num_chiplets != 100:
        raise ValueError(
            "evaluate_moo_case has no size plumbing: repro.eval."
            "experiments.moo_result builds the paper's 100-PE stack "
            f"(got num_chiplets={case.num_chiplets})"
        )
    _reject_schedule_axes(case, "evaluate_moo_case")
    problem, result = moo_result(case.workload)
    floret = moo_candidate_summary(problem, result.performance_only,
                                   "floret")
    joint = moo_candidate_summary(problem, result.joint, "joint")
    return {
        "floret_edp": floret.edp,
        "joint_edp": joint.edp,
        "floret_peak_k": floret.peak_k,
        "joint_peak_k": joint.peak_k,
        "floret_accuracy_drop_pct": floret.accuracy_drop_pct,
        "joint_accuracy_drop_pct": joint.accuracy_drop_pct,
        "floret_hotspot_pes": float(floret.tier.hotspot_pes),
        "joint_hotspot_pes": float(joint.tier.hotspot_pes),
        "floret_tier_peak_k": floret.tier.tier_peak_k,
        "joint_tier_peak_k": joint.tier.tier_peak_k,
        "evaluations": float(result.evaluations),
        "floret_tier_map_k": floret.tier.tier_map_k,
        "joint_tier_map_k": joint.tier.tier_map_k,
    }


def evaluate_table1_case(case: SweepCase) -> Dict[str, float]:
    """Table I parameter census for one DNN id in ``workload``.

    ``arch``/``num_chiplets`` are carried as labels only -- the model
    zoo's shape inference involves no interconnect.
    """
    from ..workloads.zoo import TABLE1_SPEC, table1_model

    _reject_schedule_axes(case, "evaluate_table1_case")
    paper_m = {row[0]: row[3] for row in TABLE1_SPEC}[case.workload]
    model = table1_model(case.workload)
    return {
        "paper_params_millions": paper_m,
        "measured_params_millions": model.total_params / 1e6,
    }


def evaluate_topology_case(case: SweepCase) -> Dict[str, float]:
    """Structural census of one case's topology (Fig. 2 metrics).

    Flattens :func:`repro.noi.properties.summarize` -- the shared census
    implementation -- into sweep metrics, so definitions like the
    single-hop link fraction live in exactly one place.
    """
    from ..noi.properties import summarize

    summary = summarize(case_topology(case))
    metrics: Dict[str, float] = {
        "num_links": float(summary.num_links),
        "mean_ports": summary.mean_ports,
        "total_link_length_mm": summary.total_link_length_mm,
        "noi_area_mm2": summary.noi_area_mm2,
        "bisection_links": float(summary.bisection_links),
        "diameter_hops": float(summary.diameter_hops),
        "average_hops": summary.average_hops,
        "fraction_single_hop": summary.fraction_single_hop_links(),
    }
    for ports, count in summary.port_histogram.items():
        metrics[f"ports_{ports}"] = float(count)
    for length, count in summary.link_length_histogram.items():
        metrics[f"linklen_{length}"] = float(count)
    return metrics

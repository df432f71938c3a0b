"""Sweep jobs: the service-side bridge onto the drain substrate.

A job is *not* a new execution engine.  ``POST /v1/sweeps`` turns a
:class:`~repro.eval.shard.GridSpec` into the same
:func:`~repro.eval.shard.drain_cases` calls a CLI fleet makes: each
in-process worker thread opens its own :class:`~repro.eval.store
.ResultStore` handle on the shared directory, takes
``ShardSpec(i, N)`` of the grid, and claims cases through the same
``LeaseBoard`` claim files.  That is the whole point -- an external
``python -m repro.eval.shard worker`` pointed at the same store joins
the drain as a peer, steals stragglers, and everything still lands
exactly once.  Cached cases cost a store hit, never a re-evaluation,
so re-POSTing a finished grid is pure replay.

Evaluators are named through a registry rather than imported from
request bodies: store keys fold in the evaluator *source fingerprint*
(:func:`~repro.eval.store.evaluator_fingerprint`), which requires a
module-level function -- and an HTTP service that imports arbitrary
dotted paths on demand would be an injection surface.  The built-in
sweep evaluators are pre-registered; embedders add their own with
:func:`register_evaluator` before starting the service.
"""

from __future__ import annotations

import threading
import traceback
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..eval.queries import parse_result_query, query_results
from ..eval.shard import GridSpec, ShardSpec, drain_cases
from ..eval.store import ResultStore, case_keys, evaluator_fingerprint
from ..obs.clock import Stopwatch
from ..obs.metrics import REGISTRY

__all__ = [
    "EVALUATORS",
    "JobManager",
    "MAX_FINISHED_JOBS",
    "SweepJob",
    "register_evaluator",
]

#: Finished jobs a :class:`JobManager` keeps; each submit evicts older
#: finished ones beyond this (their ids then answer 404).
MAX_FINISHED_JOBS = 256

#: name -> module-level evaluator, the only callables the service runs.
EVALUATORS: Dict[str, Callable] = {}


def register_evaluator(name: str, evaluate: Callable) -> None:
    """Expose ``evaluate`` to ``POST /v1/sweeps`` under ``name``.

    The callable must satisfy the store's fingerprint contract (a
    module-level function -- no lambdas, closures or bound methods), so
    a bad registration fails here at startup instead of on the first
    request.
    """
    evaluator_fingerprint(evaluate)
    EVALUATORS[name] = evaluate


def _register_builtins() -> None:
    from ..eval.experiments import (
        evaluate_load_sweep_case,
        evaluate_saturation_case,
    )
    from ..eval.sweeps import evaluate_comm_case, evaluate_mix_case

    register_evaluator("evaluate_comm_case", evaluate_comm_case)
    register_evaluator("evaluate_mix_case", evaluate_mix_case)
    register_evaluator("evaluate_load_sweep_case", evaluate_load_sweep_case)
    register_evaluator("evaluate_saturation_case", evaluate_saturation_case)


_register_builtins()


#: First no-progress sleep of a job's drain threads (it doubles per
#: fruitless pass).  A thread that runs out of cases while its peer
#: finishes the last one sleeps this long before the job completes.
JOB_POLL_S = 0.005


class SweepJob:
    """One submitted grid being drained by in-process worker threads.

    Worker ``i`` of ``N`` runs ``drain_cases(..., shard=ShardSpec(i,
    N))`` on its *own* store handle (``ResultStore`` instances are
    single-threaded; the directory is the shared substrate) and traces
    into the job's trace directory -- the same directory the SSE
    endpoint tails, and the one an external fleet should be pointed at
    with ``--trace`` to appear in the stream.
    """

    def __init__(
        self,
        job_id: str,
        spec: GridSpec,
        evaluator_name: str,
        store_root: Path,
        trace_dir: Path,
        *,
        workers: int = 2,
        lease_ttl_s: float = 30.0,
        poll_s: float = JOB_POLL_S,
        deadline_s: Optional[float] = None,
    ) -> None:
        if evaluator_name not in EVALUATORS:
            raise ValueError(
                f"unknown evaluator {evaluator_name!r} "
                f"(registered: {sorted(EVALUATORS)})"
            )
        self.job_id = job_id
        self.spec = spec
        self.evaluator_name = evaluator_name
        self.evaluate = EVALUATORS[evaluator_name]
        self.store_root = Path(store_root)
        self.trace_dir = Path(trace_dir)
        self.workers = max(1, int(workers))
        self.lease_ttl_s = float(lease_ttl_s)
        self.poll_s = float(poll_s)
        self.deadline_s = deadline_s
        self.cases = spec.cases()
        self.keys = case_keys(self.evaluate, self.cases)
        self.watch = Stopwatch()
        self.reports: List = []
        self.errors: List[str] = []
        self._lock = threading.Lock()
        self._live = 0
        self._done = threading.Event()
        self._threads: List[threading.Thread] = []

    # -- execution ---------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise RuntimeError(f"job {self.job_id} already started")
        if not self.cases:
            self._done.set()
            return
        self._live = self.workers
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run, args=(index,),
                name=f"{self.job_id}-w{index}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _run(self, index: int) -> None:
        try:
            # Own handle: the store directory is multi-writer safe, the
            # in-memory ResultStore object is not.
            store = ResultStore(self.store_root)
            report = drain_cases(
                store, self.evaluate, self.cases,
                shard=ShardSpec(index, self.workers),
                lease_ttl_s=self.lease_ttl_s,
                poll_s=self.poll_s,
                worker=f"{self.job_id}-w{index}",
                deadline_s=self.deadline_s,
                trace=str(self.trace_dir),
            )
            with self._lock:
                self.reports.append(report)
        except Exception:
            with self._lock:
                self.errors.append(traceback.format_exc(limit=8))
            REGISTRY.counter("svc_worker_errors").inc()
        finally:
            with self._lock:
                self._live -= 1
                if self._live <= 0:
                    self._done.set()

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def join(self, timeout_s: Optional[float] = None) -> bool:
        """Block until every worker thread returned; True if they did."""
        return self._done.wait(timeout_s)

    # -- progress ----------------------------------------------------------

    def progress(self, store: ResultStore) -> Dict[str, object]:
        """done/total/failed + ETA, computed against ``store``.

        ``done`` is store membership of the job's keys -- it counts
        results produced by *any* participant of the drain, external
        workers included, not just this job's threads.  ``eta_s``
        extrapolates the observed completion rate over the remaining
        cases (``None`` until the first case lands); the per-case
        timings behind that rate ride in the trace stream.  Failures
        are per-worker (failed evaluations are never cached), so they
        are reported once the workers have returned.
        """
        total = len(self.keys)
        done = total - len(store.missing(self.keys))
        with self._lock:
            reports = list(self.reports)
            errors = list(self.errors)
        finished = self.finished
        failed = sorted({
            result.case.case_id
            for report in reports for result in report.failures
        })
        remaining = max(total - done - len(failed), 0)
        elapsed_s = self.watch.elapsed_s
        if finished or remaining == 0:
            eta_s: Optional[float] = 0.0
        elif done > 0 and elapsed_s > 0:
            eta_s = elapsed_s / done * remaining
        else:
            eta_s = None
        return {
            "job": self.job_id,
            "state": "done" if finished else "running",
            "evaluator": self.evaluator_name,
            "total": total,
            "done": done,
            "failed": len(failed),
            "failures": failed,
            "remaining": remaining,
            "eta_s": eta_s,
            "elapsed_s": elapsed_s,
            "workers": self.workers,
            "evaluated": sum(r.evaluated for r in reports),
            "store_hits": sum(r.store_hits for r in reports),
            "stolen": sum(r.stolen for r in reports),
            "worker_errors": errors,
        }


class JobManager:
    """Owns the store directory, the job table, and the read path.

    The job table keeps every running job but only the newest
    :data:`MAX_FINISHED_JOBS` finished ones.

    One locked read-only :class:`ResultStore` serves every progress
    check and ``/v1/results`` query -- with the store's (mtime, size)
    refresh guard, a poll over a quiescent store is pure dictionary
    work.  Job ids are opaque; grids are identified by their store
    keys, which is what makes a re-POST of a finished grid replay from
    cache instead of re-evaluating.
    """

    def __init__(
        self,
        store_dir,
        *,
        workers: int = 2,
        lease_ttl_s: float = 30.0,
        poll_s: float = JOB_POLL_S,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.store_root = Path(store_dir)
        self.workers = max(1, int(workers))
        self.lease_ttl_s = float(lease_ttl_s)
        self.poll_s = float(poll_s)
        self.deadline_s = deadline_s
        self.read_store = ResultStore(self.store_root)
        self._store_lock = threading.Lock()
        self._jobs: Dict[str, SweepJob] = {}
        self._jobs_lock = threading.Lock()
        self._counter = 0

    def submit(
        self,
        spec: GridSpec,
        evaluator_name: str,
        *,
        workers: Optional[int] = None,
    ) -> SweepJob:
        """Create and start a job; raises ``ValueError`` on a bad spec."""
        with self._jobs_lock:
            self._counter += 1
            job_id = f"job-{self._counter:04d}-{uuid.uuid4().hex[:8]}"
        job = SweepJob(
            job_id, spec, evaluator_name,
            self.store_root,
            self.store_root / "svc-traces" / job_id,
            workers=self.workers if workers is None else workers,
            lease_ttl_s=self.lease_ttl_s,
            poll_s=self.poll_s,
            deadline_s=self.deadline_s,
        )
        with self._jobs_lock:
            finished = [key for key, old in self._jobs.items()
                        if old.finished]
            excess = max(0, len(finished) - MAX_FINISHED_JOBS)
            for key in finished[:excess]:
                del self._jobs[key]
            self._jobs[job_id] = job
        job.start()
        REGISTRY.counter("svc_sweeps_submitted").inc()
        return job

    def get(self, job_id: str) -> Optional[SweepJob]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def job_count(self) -> int:
        with self._jobs_lock:
            return len(self._jobs)

    def progress(self, job: SweepJob) -> Dict[str, object]:
        with self._store_lock:
            return job.progress(self.read_store)

    def query(self, params) -> Dict[str, object]:
        """``GET /v1/results``: parse + execute under the store lock."""
        query = parse_result_query(params)
        with self._store_lock:
            return query_results(self.read_store, query)

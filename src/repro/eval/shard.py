"""Distributed sharded sweep execution over a shared ResultStore.

One :class:`~repro.eval.store.ResultStore` directory is already safe
for concurrent writers; this module turns that substrate into a
*distributed execution* layer: N independent worker processes -- on one
host or many hosts sharing a filesystem -- cooperatively drain one
sweep grid with zero duplicate evaluations and crash recovery, and a
coordinator reconstructs the exact single-host aggregates from any
worker mix.  Three cooperating pieces:

* **Deterministic partitioning.**  :func:`shard_key` hashes a case's
  *scenario axes only* (no tag, no evaluator, no package version), so
  every layer -- CLI workers, service jobs, sharded DSE generations --
  computes the same partition of any grid without coordination.
  :class:`ShardSpec(index, count) <ShardSpec>` is one worker's slice of
  that partition; :func:`drain_cases` walks it first.

* **Lease-based claiming.**  :func:`drain_cases` walks the grid
  own-slice-first and claims each unevaluated case through an atomic
  ``O_CREAT | O_EXCL`` claim file under ``<store>/claims/``
  (:class:`LeaseBoard`).  Completed cases live in the store itself --
  the claim is removed after the ``put`` -- so a restarted worker skips
  them for free.  A claim whose mtime is older than the lease TTL is
  an orphan (its worker crashed): any worker reaps it through a
  rename-verify-recreate protocol and takes the case over.  Failed
  evaluations are never cached (store contract); each worker retries a
  failing case at most once, so a deterministically broken case ends
  missing-with-failures instead of looping forever.

* **Coordinator merge.**  :func:`merge_stream` replays the grid in
  submission order through a store-backed
  :meth:`SweepRunner.run_stream <repro.eval.sweeps.SweepRunner.run_stream>`,
  so the :class:`~repro.eval.sweeps.StreamOutcome` aggregates
  (``RunningStats``/``RunningPivot``/``RunningGroups``) are
  bit-identical to a single-host streaming run regardless of how many
  workers produced the results or in what order they landed.
  :func:`wait_for_cases` tails the store until a grid completes.

``python -m repro.eval.shard worker --store DIR --grid G --evaluator E
--shard I/N`` runs one worker; the ``merge`` subcommand tails and
summarises.  ``benchmarks/bench_shard_scaling.py`` gates the whole
contract in CI: 3 workers vs 1, zero duplicates, bit-identical
aggregates, kill-recovery through lease expiry.

Duplicate-evaluation caveat: leases make duplicates *practically*
impossible, not theoretically -- a worker that takes longer than the
TTL on one case loses its lease, and reaping a lease that is refreshed
in the same microsecond window by three racing workers can, in
principle, double-claim.  Both are harmless for correctness: the store
is last-writer-wins over deterministic evaluators, so a duplicate
costs wasted work, never wrong results.  Size ``lease_ttl`` well above
the slowest single case.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import socket
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.clock import Stopwatch, wall
from ..obs.metrics import REGISTRY
from ..obs.trace import resolve_tracer
from .experiments import ALL_ARCHS
from .store import ResultStore, case_keys
from .sweeps import (
    Overrides,
    SweepCase,
    SweepResult,
    SweepRunner,
    _check_overrides,
    _evaluate_one,
    sweep_grid,
)

__all__ = [
    "DrainReport",
    "GridSpec",
    "LeaseBoard",
    "ShardSpec",
    "drain_cases",
    "merge_stream",
    "shard_key",
    "wait_for_cases",
]


# ---------------------------------------------------------------------------
# deterministic partitioning


def shard_key(case: SweepCase) -> str:
    """Partition identity of a case: scenario axes only.

    Deliberately *not* :func:`~repro.eval.store.case_key`: the store key
    folds in the evaluator fingerprint and package version so caches
    self-invalidate, but the partition must stay stable across
    evaluator edits and version bumps or a restarted fleet would
    reshuffle mid-grid.  Tags are excluded for the same reason they are
    excluded from store keys (display labels).
    """
    payload = json.dumps(
        [
            case.arch,
            case.num_chiplets,
            case.workload,
            case.seed,
            sorted([k, v] for k, v in case.noi_overrides),
        ],
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of a deterministically partitioned grid.

    ``ShardSpec(i, n)`` owns every case whose :func:`shard_key` hashes
    to bucket ``i`` of ``n``.  Any process can compute any slice from
    the grid alone -- no coordinator assigns work -- so adding a worker
    is just launching one with a different ``index``.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} outside 0..{self.count - 1}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"I/N"`` (e.g. ``"0/3"``)."""
        index_text, sep, count_text = text.partition("/")
        if not sep or not index_text.isdigit() or not count_text.isdigit():
            raise ValueError(
                f"shard spec {text!r} is not 'INDEX/COUNT' (e.g. '0/3')"
            )
        return cls(index=int(index_text), count=int(count_text))

    def owns(self, case: SweepCase) -> bool:
        return int(shard_key(case)[:16], 16) % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


# ---------------------------------------------------------------------------
# lease-based claiming


class LeaseBoard:
    """Atomic per-case claim files under ``<store>/claims/``.

    A claim is one file named after the store key, created with
    ``O_CREAT | O_EXCL`` (atomic on POSIX, including NFS for regular
    ``open``): exactly one claimant wins.  The payload records worker
    id, pid and host for diagnostics; liveness is the file *mtime* --
    a claim older than ``ttl_s`` is an orphan whose worker crashed.

    Reaping an orphan cannot be a bare unlink (two reapers could each
    unlink-then-create and both win).  Instead the reaper renames the
    claim to a private name -- rename is atomic, so exactly one reaper
    gets the file -- then *verifies the stolen file is still expired*:
    if a fresh claim was swapped in between the stat and the rename,
    the reaper restores it via ``os.link`` (which cannot clobber a
    newer claimant) and backs off.
    """

    def __init__(self, store: ResultStore, *,
                 worker: str = "", ttl_s: float = 30.0,
                 tracer=None) -> None:
        self.root = store.claims_root
        self.worker = worker or f"{socket.gethostname()}:{os.getpid()}"
        self.ttl_s = float(ttl_s)
        self.tracer = resolve_tracer(tracer)
        self.root.mkdir(parents=True, exist_ok=True)

    def _event(self, name: str, key: str) -> None:
        REGISTRY.counter(name).inc()
        if self.tracer.enabled:
            self.tracer.event(name, key=key, worker=self.worker)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.lease"

    def _create(self, path: Path) -> bool:
        payload = json.dumps({
            "worker": self.worker,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }, separators=(",", ":")).encode("utf-8")
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return True

    def _expired(self, mtime: float) -> bool:
        # A future mtime (NTP step, cross-host clock skew on a shared
        # store) would make the signed age negative forever, so the
        # claim could never expire and the case would be wedged.  Treat
        # any claim further than ttl_s from "now" -- in either
        # direction -- as orphaned: a legitimate holder refreshes or
        # releases within a TTL, while a claim stamped deep in the
        # future can only be a skewed writer.
        return abs(time.time() - mtime) > self.ttl_s

    def acquire(self, key: str) -> bool:
        """Try to claim ``key``; reap an expired claim if one blocks us."""
        path = self._path(key)
        if self._create(path):
            self._event("lease_claims", key)
            return True
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:
            # Holder released between our create attempt and the stat:
            # contend again on the next pass rather than spinning here.
            return False
        if not self._expired(mtime):
            self._event("lease_denied", key)
            return False
        # Reap: atomically take the (apparently expired) claim file.
        stolen = self.root / f"{path.name}.reap-{uuid.uuid4().hex[:12]}"
        try:
            os.rename(path, stolen)
        except FileNotFoundError:
            return False  # another reaper got it first
        try:
            still_expired = self._expired(stolen.stat().st_mtime)
        except FileNotFoundError:  # pragma: no cover - we own the file
            return False
        if not still_expired:
            # We stole a *live* claim created after our stat.  Restore
            # it: link() refuses to clobber, so if a third worker has
            # already re-claimed, the newer claim stands and we lose.
            try:
                os.link(stolen, path)
            except FileExistsError:
                pass
            os.unlink(stolen)
            self._event("lease_restores", key)
            return False
        os.unlink(stolen)
        self._event("lease_reaps", key)
        if self._create(path):
            self._event("lease_claims", key)
            return True
        return False

    def release(self, key: str) -> None:
        """Drop our claim (after the result landed in the store)."""
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass  # reaped from under us: the result still counts once

    def held(self, key: str) -> bool:
        """Whether a live (unexpired) claim exists for ``key``."""
        try:
            return not self._expired(self._path(key).stat().st_mtime)
        except FileNotFoundError:
            return False


# ---------------------------------------------------------------------------
# cooperative drain


@dataclass(frozen=True)
class DrainReport:
    """What one worker's :func:`drain_cases` call did.

    ``evaluated_keys`` is the exact set of store keys this worker
    computed -- the scaling bench asserts the per-worker sets are
    disjoint and cover the grid.  ``stolen`` counts evaluations outside
    the worker's own shard slice (work taken over from crashed or slow
    peers); ``lease_denied`` counts cases skipped because a live peer
    claim held them.  ``case_timings`` records ``(case_id, start_s,
    end_s)`` -- relative to drain start -- for every case this worker
    ran the evaluator on (successes and failures), so fleet timeouts
    name their stragglers.
    """

    worker: str
    total: int
    store_hits: int
    evaluated_keys: Tuple[str, ...]
    stolen: int
    lease_denied: int
    passes: int
    elapsed_s: float
    failures: Tuple[SweepResult, ...] = ()
    case_timings: Tuple[Tuple[str, float, float], ...] = ()

    @property
    def evaluated(self) -> int:
        return len(self.evaluated_keys)

    @property
    def slowest_case(self) -> Optional[Tuple[str, float]]:
        """``(case_id, duration_s)`` of the slowest evaluated case."""
        if not self.case_timings:
            return None
        case_id, start, end = max(
            self.case_timings, key=lambda t: t[2] - t[1]
        )
        return case_id, end - start

    def to_json(self) -> str:
        return json.dumps({
            "worker": self.worker,
            "total": self.total,
            "store_hits": self.store_hits,
            "evaluated_keys": list(self.evaluated_keys),
            "stolen": self.stolen,
            "lease_denied": self.lease_denied,
            "passes": self.passes,
            "elapsed_s": self.elapsed_s,
            "failures": [r.case.case_id for r in self.failures],
            "case_timings": [list(t) for t in self.case_timings],
        }, separators=(",", ":"))


def drain_cases(
    store: ResultStore,
    evaluate: Callable,
    cases: Iterable[SweepCase],
    *,
    shard: Optional[ShardSpec] = None,
    lease_ttl_s: float = 30.0,
    poll_s: float = 0.05,
    max_poll_s: float = 2.0,
    worker: str = "",
    deadline_s: Optional[float] = None,
    trace=None,
) -> DrainReport:
    """Cooperatively drain ``cases`` into ``store`` as one worker.

    Walks the grid in passes, own shard slice first, then everyone
    else's (work stealing): a case already in the store is a hit, a
    case under a live peer lease is skipped, anything else is claimed,
    evaluated inline and ``put``.  The call returns when every case is
    either in the store or failed locally (failed evaluations are never
    cached, and each worker retries a failing case at most once).
    Between passes that make no progress the worker sleeps -- that is
    where it waits out live peer leases, and where a crashed peer's
    lease ages past ``lease_ttl_s`` and gets reaped.  The sleep starts
    at ``poll_s`` and doubles per fruitless pass up to ``max_poll_s``
    (resetting whenever a pass progresses), so a worker parked behind
    a slow peer scans the store a logarithmic number of times instead
    of busy-polling at a fixed interval.

    Run N processes with ``shard=ShardSpec(i, N)`` for distributed
    execution; parallelism comes from the process count, so each drain
    evaluates inline (one case at a time) and lease granularity stays
    per-case.  Raises ``TimeoutError`` if ``deadline_s`` elapses first
    -- the deadline is checked before every case, not just between
    passes, so one long pass cannot overshoot it by a whole grid; the
    message names the slowest completed case as the likely culprit
    scale.  ``trace=`` accepts a tracer or trace directory (default:
    the ``REPRO_TRACE`` environment); each processed case becomes a
    ``drain_case`` span with its outcome, and the DrainReport carries
    the same per-case timings in ``case_timings``.
    """
    watch = Stopwatch()
    cases = list(cases)
    keys = case_keys(evaluate, cases)
    if shard is not None:
        own = {i for i, c in enumerate(cases) if shard.owns(c)}
        order = [i for i in range(len(cases)) if i in own]
        order += [i for i in range(len(cases)) if i not in own]
    else:
        order = list(range(len(cases)))
        own = set(order)
    tracer = resolve_tracer(trace, worker=worker)
    board = LeaseBoard(store, worker=worker, ttl_s=lease_ttl_s,
                       tracer=tracer)

    done: set = set()
    failed: Dict[int, SweepResult] = {}
    evaluated_keys: List[str] = []
    case_timings: List[Tuple[str, float, float]] = []
    store_hits = 0
    stolen = 0
    denied_cases: set = set()
    passes = 0

    def check_deadline() -> None:
        if not watch.expired(deadline_s):
            return
        missing = [cases[i].case_id for i in order
                   if i not in done and i not in failed]
        message = (
            f"shard drain deadline ({deadline_s}s) with "
            f"{len(missing)} cases outstanding: {missing[:5]}"
        )
        if case_timings:
            slow_id, start, end = max(case_timings,
                                      key=lambda t: t[2] - t[1])
            message += (
                f"; slowest completed case {slow_id} "
                f"took {end - start:.3f}s"
            )
        raise TimeoutError(message)

    def span_case(i: int, outcome: str,
                  start_s: float, end_s: float) -> None:
        if tracer.enabled:
            tracer.record_span(
                "drain_case",
                wall() - (watch.elapsed_s - start_s),
                end_s - start_s,
                case=cases[i].case_id,
                key=keys[i],
                outcome=outcome,
                worker=board.worker,
            )

    def record_case(i: int, outcome: str,
                    start_s: float, end_s: float) -> None:
        case_timings.append((cases[i].case_id, start_s, end_s))
        span_case(i, outcome, start_s, end_s)
        REGISTRY.histogram("drain_case_s").observe(end_s - start_s)

    backoff_s = max(poll_s, 1e-4)
    max_poll_s = max(max_poll_s, poll_s)
    while True:
        passes += 1
        progressed = False
        for i in order:
            if i in done or i in failed:
                continue
            check_deadline()
            start_s = watch.elapsed_s
            if store.has(keys[i]):
                done.add(i)
                store_hits += 1
                progressed = True
                span_case(i, "hit", start_s, watch.elapsed_s)
                continue
            if not board.acquire(keys[i]):
                denied_cases.add(i)
                continue
            try:
                # Re-check under the lease: the result may have landed
                # between the membership check and the claim.
                if store.has(keys[i]):
                    done.add(i)
                    store_hits += 1
                    progressed = True
                    span_case(i, "hit", start_s, watch.elapsed_s)
                    continue
                start_s = watch.elapsed_s
                result = _evaluate_one(evaluate, cases[i])
                if result.ok:
                    store.put(keys[i], result)
                    evaluated_keys.append(keys[i])
                    done.add(i)
                    if i not in own:
                        stolen += 1
                        REGISTRY.counter("cases_stolen").inc()
                    record_case(i, "stolen" if i not in own
                                else "evaluated",
                                start_s, watch.elapsed_s)
                else:
                    failed[i] = result
                    record_case(i, "failed", start_s, watch.elapsed_s)
                progressed = True
            finally:
                board.release(keys[i])
        if len(done) + len(failed) >= len(cases):
            break
        check_deadline()
        if progressed:
            backoff_s = max(poll_s, 1e-4)
        else:
            # Cap the sleep at the remaining deadline budget so backoff
            # cannot overshoot a tight deadline by a whole max_poll_s.
            sleep_s = backoff_s
            if deadline_s is not None:
                sleep_s = min(sleep_s,
                              max(deadline_s - watch.elapsed_s, 0.0))
            time.sleep(sleep_s)
            backoff_s = min(backoff_s * 2.0, max_poll_s)
    report = DrainReport(
        worker=board.worker,
        total=len(cases),
        store_hits=store_hits,
        evaluated_keys=tuple(evaluated_keys),
        stolen=stolen,
        lease_denied=len(denied_cases),
        passes=passes,
        elapsed_s=watch.elapsed_s,
        failures=tuple(failed[i] for i in sorted(failed)),
        case_timings=tuple(case_timings),
    )
    if tracer.enabled:
        tracer.record_span(
            "drain", wall() - report.elapsed_s, report.elapsed_s,
            worker=board.worker,
            total=report.total,
            evaluated=report.evaluated,
            store_hits=report.store_hits,
            stolen=report.stolen,
            lease_denied=report.lease_denied,
            passes=report.passes,
            failures=len(report.failures),
        )
        tracer.metrics(REGISTRY)
        tracer.flush()
    return report


# ---------------------------------------------------------------------------
# coordinator: tail + merge


def wait_for_cases(
    store: ResultStore,
    evaluate: Callable,
    cases: Sequence[SweepCase],
    *,
    timeout_s: Optional[float] = None,
    poll_s: float = 0.2,
    max_poll_s: float = 5.0,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> None:
    """Tail the shared store until every case of the grid is present.

    ``on_progress(done, total)`` fires whenever the completed count
    changes (and once up front).  Raises ``TimeoutError`` with the
    outstanding case ids when ``timeout_s`` elapses -- a worker fleet
    that lost its last member leaves the grid permanently short, and a
    coordinator must say which cases are missing, not hang silently.

    The poll interval starts at ``poll_s`` and doubles while the done
    count stands still, capped at ``max_poll_s`` and reset by any
    progress -- a coordinator parked behind a long-running fleet scans
    the store a logarithmic number of times per quiet stretch instead
    of hammering it at a fixed interval, while a lively fleet is still
    tailed at ``poll_s`` granularity.
    """
    keys = case_keys(evaluate, cases)
    watch = Stopwatch()
    last = -1
    last_progress_s = 0.0
    backoff_s = max(poll_s, 1e-4)
    max_poll_s = max(max_poll_s, poll_s)
    while True:
        missing = store.missing(keys)
        done = len(keys) - len(missing)
        if done != last and on_progress is not None:
            on_progress(done, len(keys))
        if done != last:
            last = done
            last_progress_s = watch.elapsed_s
            backoff_s = max(poll_s, 1e-4)
        if not missing:
            return
        if watch.expired(timeout_s):
            outstanding = [
                case.case_id for case, key in zip(cases, keys)
                if key in missing
            ]
            raise TimeoutError(
                f"grid incomplete after {timeout_s}s: "
                f"{len(outstanding)} cases outstanding "
                f"(e.g. {outstanding[:5]}); last progress "
                f"{watch.elapsed_s - last_progress_s:.1f}s ago"
            )
        sleep_s = backoff_s
        if timeout_s is not None:
            # Never sleep past the timeout: the deadline check above
            # must fire within one poll of it, not one max_poll_s.
            sleep_s = min(sleep_s, max(timeout_s - watch.elapsed_s, 1e-4))
        time.sleep(sleep_s)
        backoff_s = min(backoff_s * 2.0, max_poll_s)


def merge_stream(
    store: ResultStore,
    evaluate: Callable,
    cases: Sequence[SweepCase],
    aggregators: Sequence[object] = (),
    *,
    require_complete: bool = True,
):
    """Reconstruct the single-host streaming outcome from the store.

    Replays ``cases`` in submission order through a store-backed
    :class:`~repro.eval.sweeps.SweepRunner`, folding ``aggregators``
    exactly as a single-host ``run_stream`` would:
    the emission order is the grid order regardless of which worker
    produced each result or when it landed, and JSON float round-trip
    is exact, so the resulting aggregates are *bit-identical* to a
    one-process streaming run of the same grid.

    With ``require_complete`` (the default) a missing case raises
    ``ValueError`` naming it -- a coordinator merging a half-drained
    grid is a bug.  Pass ``require_complete=False`` to let the
    coordinator evaluate stragglers inline instead (single-process
    fallback when the worker fleet died).
    """
    cases = list(cases)
    if require_complete:
        keys = case_keys(evaluate, cases)
        missing = store.missing(keys)
        if missing:
            outstanding = [
                case.case_id for case, key in zip(cases, keys)
                if key in missing
            ]
            raise ValueError(
                f"cannot merge: {len(outstanding)} of {len(cases)} cases "
                f"not in the store (e.g. {outstanding[:5]}); drain the "
                "grid first or pass require_complete=False"
            )
    runner = SweepRunner(evaluate, workers=1, store=store)
    return runner.run_stream(cases, aggregators)


# ---------------------------------------------------------------------------
# grid specification (CLI-serialisable)


@dataclass(frozen=True)
class GridSpec:
    """A sweep grid as data, so workers on other hosts can rebuild it.

    Mirrors :func:`~repro.eval.sweeps.sweep_grid`'s axes; round-trips
    through JSON (:meth:`to_json`/:meth:`from_json`) so one spec string
    can be handed to every ``python -m repro.eval.shard`` worker and
    the merge coordinator, guaranteeing they all mean the same cases.
    """

    archs: Tuple[str, ...]
    sizes: Tuple[int, ...] = (36,)
    workloads: Tuple[str, ...] = ("uniform",)
    seeds: Tuple[int, ...] = (0,)
    overrides: Tuple[Overrides, ...] = ((),)
    tag: str = ""

    def cases(self) -> List[SweepCase]:
        return sweep_grid(
            archs=self.archs, sizes=self.sizes, workloads=self.workloads,
            seeds=self.seeds, overrides=self.overrides, tag=self.tag,
        )

    def to_json(self) -> str:
        return json.dumps({
            "archs": list(self.archs),
            "sizes": list(self.sizes),
            "workloads": list(self.workloads),
            "seeds": list(self.seeds),
            "overrides": [
                [list(pair) for pair in over] for over in self.overrides
            ],
            "tag": self.tag,
        }, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        """Parse a spec, rejecting malformed axes with a ``ValueError``.

        Every axis must be a list; ``archs`` holds names from
        :data:`~repro.eval.experiments.ALL_ARCHS`, ``workloads``
        strings, ``sizes`` positive and ``seeds`` non-negative integers
        (an integral float such as ``36.0`` counts as its integer, a
        bool never does), and ``overrides`` lists of ``[name, value]``
        pairs that pass :func:`~repro.eval.sweeps.sweep_grid`'s check.
        """
        data = json.loads(text)
        return cls(
            archs=_axis("archs", data["archs"], _arch),
            sizes=_axis("sizes", data.get("sizes", (36,)), _integer),
            workloads=_axis("workloads", data.get("workloads", ("uniform",)),
                            _text),
            seeds=_axis("seeds", data.get("seeds", (0,)), _integer),
            overrides=_axis("overrides", data.get("overrides", ((),)),
                            _override_set),
            tag=str(data.get("tag", "")),
        )


def _axis(axis: str, values: object, check) -> tuple:
    """One grid axis of a parsed spec, each value passed through ``check``."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"grid axis {axis!r} must be a list, got {values!r}")
    return tuple(check(axis, value) for value in values)


def _text(axis: str, value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"grid axis {axis!r} holds strings, got {value!r}")
    return value


def _arch(axis: str, value: object) -> str:
    if _text(axis, value) not in ALL_ARCHS:
        raise ValueError(
            f"grid axis {axis!r} holds one of {ALL_ARCHS}, got {value!r}"
        )
    return value


def _integer(axis: str, value: object) -> int:
    """A size (>= 1) or seed (>= 0); integral floats count as integers."""
    low = 1 if axis == "sizes" else 0
    whole = (int(value) if isinstance(value, float) and value.is_integer()
             else value)
    if isinstance(whole, bool) or not isinstance(whole, int) or whole < low:
        raise ValueError(
            f"grid axis {axis!r} holds integers >= {low}, got {value!r}"
        )
    return whole


def _override_set(axis: str, value: object) -> Overrides:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value
    ):
        raise ValueError(
            f"grid axis {axis!r} holds lists of [name, value] pairs, "
            f"got {value!r}"
        )
    pairs = tuple((str(name), v) for name, v in value)
    _check_overrides(pairs)
    return pairs


def _resolve_evaluator(name: str) -> Callable:
    """CLI evaluator lookup: ``repro.eval`` name or ``module:function``.

    Bare names resolve against the :mod:`repro.eval` namespace
    (``evaluate_comm_case``, ``evaluate_load_sweep_case``, ...);
    ``pkg.mod:func`` imports any module-level evaluator, so downstream
    grids are not limited to the built-ins.
    """
    import importlib

    if ":" in name:
        module_name, _, attr = name.partition(":")
        module = importlib.import_module(module_name)
    else:
        module = importlib.import_module("repro.eval")
        attr = name
    evaluate = getattr(module, attr, None)
    if evaluate is None or not callable(evaluate):
        raise SystemExit(
            f"unknown evaluator {name!r} (use a repro.eval name like "
            "'evaluate_comm_case' or 'package.module:function')"
        )
    return evaluate


def _load_grid(text: str) -> GridSpec:
    """Grid argument: inline JSON or a path to a JSON file."""
    candidate = Path(text)
    if not text.lstrip().startswith("{") and candidate.is_file():
        text = candidate.read_text(encoding="utf-8")
    return GridSpec.from_json(text)


# ---------------------------------------------------------------------------
# CLI: python -m repro.eval.shard {worker,merge}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", required=True,
                        help="shared result-store directory")
    parser.add_argument("--grid", required=True,
                        help="GridSpec JSON (inline or a file path)")
    parser.add_argument("--evaluator", default="evaluate_comm_case",
                        help="repro.eval name or module:function")


def _cmd_worker(args: argparse.Namespace) -> int:
    evaluate = _resolve_evaluator(args.evaluator)
    cases = _load_grid(args.grid).cases()
    shard = ShardSpec.parse(args.shard) if args.shard else None
    report = drain_cases(
        ResultStore(args.store), evaluate, cases,
        shard=shard,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
        max_poll_s=args.max_poll,
        worker=args.worker_id,
        deadline_s=args.deadline,
        trace=args.trace or None,
    )
    print(
        f"worker {report.worker} shard {shard or 'whole-grid'}: "
        f"{report.evaluated} evaluated ({report.stolen} stolen), "
        f"{report.store_hits} store hits, {report.lease_denied} lease "
        f"denials, {len(report.failures)} failures, "
        f"{report.passes} passes, {report.elapsed_s:.2f}s"
    )
    for failure in report.failures:
        print(f"  FAILED {failure.case.case_id}: "
              f"{(failure.error or '').strip().splitlines()[-1]}")
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n",
                                     encoding="utf-8")
    return 1 if report.failures else 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .report import format_shard_progress, format_table
    from .stream import RunningStats

    evaluate = _resolve_evaluator(args.evaluator)
    cases = _load_grid(args.grid).cases()
    store = ResultStore(args.store)
    if args.wait is not None:
        wait_for_cases(
            store, evaluate, cases, timeout_s=args.wait, poll_s=args.poll,
            max_poll_s=args.max_poll,
            on_progress=lambda done, total: print(
                format_shard_progress(done, total), flush=True
            ),
        )
    metrics = [m for m in (args.metrics or "").split(",") if m]
    aggregators = tuple(RunningStats(m) for m in metrics)
    outcome = merge_stream(store, evaluate, cases, aggregators,
                           require_complete=not args.allow_incomplete)
    print(
        f"merged {outcome.total} cases from {args.store}: "
        f"{outcome.store_hits} store hits, {outcome.evaluated} evaluated "
        f"inline, {len(outcome.failures)} failures"
    )
    if aggregators:
        print(format_table(
            ["metric", "count", "mean", "min", "max"],
            [(s.metric, s.count, s.mean, s.min, s.max)
             for s in aggregators],
            float_format="{:.6g}",
        ))
    return 1 if outcome.failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.shard",
        description="Sharded sweep execution over a shared ResultStore.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser(
        "worker", help="drain one shard of a grid (plus work stealing)"
    )
    _add_common(worker)
    worker.add_argument("--shard", default="",
                        help="'INDEX/COUNT' slice (default: whole grid)")
    worker.add_argument("--lease-ttl", type=float, default=30.0,
                        help="seconds before a claim counts as orphaned")
    worker.add_argument("--poll", type=float, default=0.05,
                        help="initial sleep between no-progress passes")
    worker.add_argument("--max-poll", type=float, default=2.0,
                        help="backoff cap for the no-progress sleep")
    worker.add_argument("--deadline", type=float, default=None,
                        help="give up after this many seconds")
    worker.add_argument("--worker-id", default="",
                        help="label for claims/reports (default host:pid)")
    worker.add_argument("--report", default="",
                        help="write a JSON DrainReport here")
    worker.add_argument("--trace", default="",
                        help="trace directory (default: $REPRO_TRACE)")

    merge = sub.add_parser(
        "merge", help="tail the store and reconstruct the aggregates"
    )
    _add_common(merge)
    merge.add_argument("--wait", type=float, default=None,
                       help="tail the store up to this many seconds first")
    merge.add_argument("--poll", type=float, default=0.2,
                       help="initial tail poll interval")
    merge.add_argument("--max-poll", type=float, default=5.0,
                       help="backoff cap for the tail poll interval")
    merge.add_argument("--metrics", default="",
                       help="comma-separated metrics to summarise")
    merge.add_argument("--allow-incomplete", action="store_true",
                       help="evaluate missing cases inline instead of "
                            "failing on an incomplete grid")

    args = parser.parse_args(argv)
    if args.command == "worker":
        return _cmd_worker(args)
    return _cmd_merge(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

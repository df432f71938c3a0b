"""Content-addressed on-disk result store for NoI sweeps.

Every :class:`~repro.eval.sweeps.SweepCase` evaluated under a given
evaluation function maps to a stable hex key (:func:`case_key`) derived
from the case's scenario axes *and* the evaluator's identity -- its
qualified name plus a hash of its source code -- so editing an evaluator
invalidates exactly its own cached results and nothing else.  The store
is the substrate for warm re-runs (a completed sweep replays with zero
evaluations), checkpoint/resume of interrupted sweeps, and result reuse
across processes and hosts sharing a filesystem.

On-disk layout (all under one root directory):

* ``shard-XX.jsonl`` -- 256 append-only JSONL shards, bucketed by the
  first key byte.  One line per result: the key, the case axes, the
  scalar metrics and the elapsed time.  Appends go through a single
  ``O_APPEND`` ``write`` of one complete line, which POSIX keeps atomic
  for concurrent writer processes; readers tolerate a torn tail line by
  never consuming bytes past the last newline.  A reader decodes the
  complete lines appended since its last look with one ``json.loads``
  of them joined into a JSON array, and decodes line by line --
  skipping corrupt lines and values that are not records -- only when
  that fails.
* ``arrays/<key>.npz`` -- array-valued payloads (thermal tier maps and
  the like), written to a temp file and ``os.replace``d into place so a
  reader never observes a partial archive.

Duplicate keys resolve last-writer-wins.  Failed evaluations are never
stored: a crashed case must be re-attempted on the next run, not
replayed from cache.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..obs.metrics import REGISTRY
from .sweeps import Overrides, SweepCase, SweepResult, case_id_of

#: Bump to invalidate every stored result (record format change).
STORE_SCHEMA_VERSION = 1


def evaluator_fingerprint(evaluate) -> str:
    """Identity of an evaluation function: qualified name + source hash.

    The source hash makes the cache self-invalidating when the
    *evaluator's own body* changes.  It deliberately does not chase the
    call graph: fixing a bug in a callee (say
    ``net/vectorized.communication_cost_vec``) leaves wrapper
    fingerprints unchanged, so such fixes must be accompanied by a
    ``repro.__version__`` bump -- which :func:`case_key` folds into
    every key -- or by clearing the store directory.

    Evaluators whose behaviour depends on state the source cannot see
    are rejected outright, because identical source would collide
    distinct configurations onto one key (served each other's results)
    or embed per-process addresses (never hit):

    * ``functools.partial`` / callable instances (no ``__qualname__``),
    * bound methods (``__self__`` instance state),
    * closures with captured variables (``__closure__`` cells).

    Wrap such evaluators in a module-level function that derives
    everything from the :class:`~repro.eval.sweeps.SweepCase` itself.
    Builtins/callables without retrievable source fall back to the name
    alone (documented, weaker invalidation).
    """
    qualname = getattr(evaluate, "__qualname__", None)
    if qualname is None:
        raise TypeError(
            f"cannot fingerprint {evaluate!r}: no __qualname__ "
            "(functools.partial / callable instances have no stable "
            "identity); wrap it in a module-level function to use a "
            "ResultStore"
        )
    if getattr(evaluate, "__self__", None) is not None:
        raise TypeError(
            f"cannot fingerprint bound method {qualname}: instance "
            "state is invisible to the source hash, so distinct "
            "instances would collide onto one cache key; use a "
            "module-level function"
        )
    if getattr(evaluate, "__closure__", None):
        raise TypeError(
            f"cannot fingerprint closure {qualname}: captured variables "
            "are invisible to the source hash, so closures from one "
            "factory would collide onto one cache key; use a "
            "module-level function parameterised through the SweepCase"
        )
    name = f"{getattr(evaluate, '__module__', '?')}.{qualname}"
    try:
        source = inspect.getsource(evaluate)
    except (OSError, TypeError):
        return f"{name}@nosource"
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    return f"{name}@{digest}"


def case_key(case: SweepCase, fingerprint: str) -> str:
    """Stable content hash of (scenario axes, evaluator identity).

    ``tag`` is deliberately excluded: it is a free-form display label,
    and relabelling a grid must not recompute it.  Override order is
    canonicalised so ``(a=1, b=2)`` and ``(b=2, a=1)`` share a key (they
    produce identical :class:`~repro.params.NoIParams`).  The package
    version participates so that model-code fixes below the evaluator
    layer invalidate the whole store with one ``repro.__version__``
    bump.
    """
    from .. import __version__ as code_version

    payload = json.dumps(
        [
            STORE_SCHEMA_VERSION,
            code_version,
            fingerprint,
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


@dataclass
class StoreStats:
    """Consultation counters for one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    skipped_errors: int = 0
    #: Shard files actually opened and read by ``_refresh_shard`` --
    #: the (mtime, size) guard keeps this flat across repeated queries
    #: over a quiescent store, which is what lets a service answer hot
    #: queries at memory speed.
    shard_reads: int = 0

    @property
    def consultations(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.consultations
        return self.hits / total if total else 0.0


class ResultStore:
    """Append-only, content-addressed cache of sweep results.

    Safe for concurrent writers (multiple sweep runners sharing a
    directory): appends are single atomic ``O_APPEND`` writes and array
    payloads land via ``os.replace``.  Each instance keeps an in-memory
    index per shard and incrementally re-reads only bytes appended by
    other processes since its last look, so ``get`` stays cheap inside
    a streaming loop.

    The index keeps every record at a stable position, the
    ``(case_id, key)`` order of those positions (enumeration and
    queries never sort), and a lazily built :class:`RecordColumns`
    cache for the query layer (:meth:`columns`).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._arrays_dir = self.root / "arrays"
        self.stats = StoreStats()
        #: Where :class:`repro.eval.shard.LeaseBoard` keeps per-case
        #: claim files.  Owned by the store so the whole shared-
        #: directory layout is defined in one place; claim files are
        #: transient coordination state, never results.
        self.claims_root = self.root / "claims"
        #: Every indexed record at a stable position: appends extend
        #: the list, a rewritten key keeps its slot, and only a shard
        #: rewritten shorter compacts it.
        self._rows: List[dict] = []
        #: Position of each key's record in ``_rows``.
        self._pos: Dict[str, int] = {}
        #: Bytes of each shard already folded into ``_rows``.
        self._consumed: Dict[str, int] = {}
        #: ``(st_mtime_ns, st_size)`` of each shard at its last
        #: refresh: an unchanged signature means no appender has
        #: touched the file, so the refresh can return without opening
        #: it -- repeated queries over a quiescent store do no read
        #: I/O beyond one ``stat`` per consulted shard.
        self._sig: Dict[str, Tuple[int, int]] = {}
        #: ``(case_id, key, position)`` of every indexed record, sorted
        #: as of the last merge; enumeration walks it, so queries never
        #: sort.
        self._order: List[Tuple[str, str, int]] = []
        #: Positions indexed since the last merge, not yet in ``_order``.
        self._pending: List[int] = []
        #: Set when an indexed record's case changed or a shard was
        #: rewritten: ``_order`` may hold stale entries and is rebuilt.
        self._stale = False
        #: The positions of ``_order`` as an int64 permutation, built
        #: on demand for the column cache (``None`` after a merge).
        self._perm: Optional[np.ndarray] = None
        #: Lazily built :class:`RecordColumns`; dropped when a record
        #: changes in place or positions are compacted.
        self._columns: Optional[RecordColumns] = None

    # -- keys and paths ----------------------------------------------------

    def _shard_path(self, key: str) -> Path:
        return self.root / f"shard-{key[:2]}.jsonl"

    def _npz_path(self, key: str) -> Path:
        return self._arrays_dir / f"{key}.npz"

    # -- reading -----------------------------------------------------------

    def _refresh_shard(self, shard: Path) -> None:
        """Fold lines appended since the last read into the index.

        Guarded by an ``(st_mtime_ns, st_size)`` signature: a shard
        whose signature matches the last refresh has not been touched
        by any appender, so the method returns after the single
        ``stat`` -- no open, no read.  This also covers a torn tail
        (bytes past the last newline): re-reading it before the writer
        finishes the line cannot yield anything new, and the finishing
        append changes the signature.  A shard *shorter* than the
        consumed offset was rewritten out from under us (an external
        compaction or restore-from-backup); its indexed records are
        dropped and the file re-read from the start.
        """
        try:
            stat = shard.stat()
        except FileNotFoundError:
            return
        sig = (stat.st_mtime_ns, stat.st_size)
        if self._sig.get(shard.name) == sig:
            return
        consumed = self._consumed.get(shard.name, 0)
        size = stat.st_size
        if size < consumed:
            # Rewritten shorter: forget everything this shard
            # contributed (keys carry their shard prefix) and rebuild.
            prefix = shard.name[len("shard-"):len("shard-") + 2]
            self._rows = [r for r in self._rows if r["k"][:2] != prefix]
            self._pos = {r["k"]: p for p, r in enumerate(self._rows)}
            self._pending.clear()
            self._stale = True
            self._columns = None
            consumed = 0
        if size == consumed:
            self._sig[shard.name] = sig
            self._consumed[shard.name] = consumed
            return
        with shard.open("rb") as fh:
            fh.seek(consumed)
            chunk = fh.read(size - consumed)
        self.stats.shard_reads += 1
        self._sig[shard.name] = sig
        # Never consume past the last newline: the tail may be a line
        # another process is mid-append on; it is re-read (from the
        # same offset) once a later append moves the signature.
        end = chunk.rfind(b"\n")
        if end < 0:
            self._consumed[shard.name] = consumed
            return
        for record in _decode_lines(chunk[: end + 1]):
            if (isinstance(record, dict)
                    and record.get("v") == STORE_SCHEMA_VERSION
                    and "k" in record):
                self._index(record["k"], record)
        self._consumed[shard.name] = consumed + end + 1

    def _index(self, key: str, record: dict) -> None:
        """Make ``record`` the one for ``key`` (last writer wins).

        A new key takes the next position and waits on ``_pending`` for
        the next :meth:`_merge`.  A known key keeps its position; if
        the record encodes differently (JSON, so ``-0.0`` differs from
        ``0.0`` and ``true`` from ``1``), the column cache is dropped,
        and if its case changed (same key, overrides reordered) the
        order is stale.  Re-reading a line this instance put itself
        changes nothing.
        """
        pos = self._pos.get(key)
        if pos is None:
            pos = self._pos[key] = len(self._rows)
            self._rows.append(record)
            self._pending.append(pos)
            return
        old = self._rows[pos]
        self._rows[pos] = record
        if (json.dumps(old, sort_keys=True)
                != json.dumps(record, sort_keys=True)):
            self._columns = None
            if old.get("case") != record.get("case"):
                self._stale = True

    def _merge(self) -> None:
        """Fold pending positions into the ``(case_id, key)`` order.

        Computes ``case_id`` for the pending records only and re-sorts
        an almost-sorted list (timsort merges the appended run in
        linear time); a stale order is rebuilt from every record.
        """
        rows = self._rows
        if self._stale:
            self._order = [(case_id_of(record["case"]), record["k"], pos)
                           for pos, record in enumerate(rows)]
            self._stale = False
        elif self._pending:
            self._order.extend(
                (case_id_of(rows[pos]["case"]), rows[pos]["k"], pos)
                for pos in self._pending
            )
        else:
            return
        self._pending.clear()
        self._order.sort()
        self._perm = None

    def _refresh_all(self) -> None:
        # Names sorted as strings: sorting a glob's Path objects costs
        # about as much as the per-shard stat calls themselves.
        for name in sorted(os.listdir(self.root)):
            if name.startswith("shard-") and name.endswith(".jsonl"):
                self._refresh_shard(self.root / name)

    def _peek(self, key: str) -> Optional[dict]:
        """Complete record for ``key`` or ``None``; never touches stats.

        "Complete" includes the array payload: a record whose flagged
        ``.npz`` is absent (crash between the two writes) is treated as
        missing, so ``has``/``__contains__`` never disagree with
        ``get``.
        """
        self._refresh_shard(self._shard_path(key))
        pos = self._pos.get(key)
        if pos is None:
            return None
        record = self._rows[pos]
        if record.get("arrays") and not self._npz_path(key).exists():
            return None
        return record

    def _result_from(
        self, key: str, record: dict, case: SweepCase
    ) -> Optional[SweepResult]:
        arrays = None
        if record.get("arrays"):
            try:
                with np.load(self._npz_path(key)) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            except (FileNotFoundError, OSError, ValueError):
                return None
        return SweepResult(
            case=case,
            metrics=dict(record["metrics"]),
            elapsed_s=float(record["elapsed_s"]),
            arrays=arrays,
        )

    def get(self, key: str, case: SweepCase) -> Optional[SweepResult]:
        """Stored result for ``key``, rebound to the caller's ``case``.

        Counts a hit or miss on ``stats``.  The caller's case object is
        authoritative (its ``tag`` may differ from the stored one, and
        the tag is not part of the key).
        """
        record = self._peek(key)
        result = (
            self._result_from(key, record, case)
            if record is not None else None
        )
        if result is None:
            self.stats.misses += 1
            REGISTRY.counter("store_misses").inc()
            return None
        self.stats.hits += 1
        REGISTRY.counter("store_hits").inc()
        return result

    def has(self, key: str) -> bool:
        """Whether a complete result for ``key`` is on disk.

        Stats-neutral (no hit/miss counted) -- for reporting and ad-hoc
        membership checks that must not skew the consultation counters.
        """
        return self._peek(key) is not None

    def probe(self, key: str) -> bool:
        """Sweep-planning membership check without loading payloads.

        Counts a **miss** when absent; counts nothing when present,
        because the planner's later :meth:`get` at emission records the
        hit.  This keeps ``stats`` consistent across the gather runner
        (one ``get`` per case) and the streaming runner (``probe`` all,
        ``get`` hits only): both report the same hit/miss totals for
        the same sweep.
        """
        if self._peek(key) is None:
            self.stats.misses += 1
            REGISTRY.counter("store_misses").inc()
            return False
        return True

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def missing(self, keys: Iterable[str]) -> "frozenset[str]":
        """Subset of ``keys`` without a complete stored result.

        Stats-neutral bulk membership for shard coordination (drain
        termination, coordinator tails): polling a grid's completion
        every few hundred milliseconds must not drown the hit/miss
        counters that describe sweep behaviour.
        """
        return frozenset(key for key in keys if self._peek(key) is None)

    def _complete_items(self) -> Iterator[Tuple[str, dict]]:
        """All ``(key, record)`` pairs that pass the completeness check,
        in ``(case_id, key)`` order.

        Shared by ``__len__``/``keys``/``iter_results`` so enumeration
        can never disagree with ``has``/``get`` about what the store
        contains (a record whose ``.npz`` payload is gone counts
        nowhere).
        """
        columns = self.columns()
        rows = columns.rows
        return ((rows[pos]["k"], rows[pos])
                for pos in columns.complete(columns.perm).tolist())

    def columns(self) -> "RecordColumns":
        """The column cache over every indexed record, refreshed.

        Picks up appends from other writers first, so ``perm`` lists
        every indexed record in ``(case_id, key)`` order.  Records
        whose flagged ``.npz`` is gone are still listed;
        :meth:`RecordColumns.complete` drops them from a set of
        positions.  Stats-neutral.
        """
        self._refresh_all()
        self._merge()
        if self._columns is None:
            self._columns = RecordColumns(self._rows, self._npz_path)
        if self._perm is None:
            self._perm = np.fromiter(map(itemgetter(2), self._order),
                                     np.int64, len(self._order))
        self._columns.perm = self._perm
        return self._columns

    def __len__(self) -> int:
        return sum(1 for _ in self._complete_items())

    def keys(self) -> Tuple[str, ...]:
        return tuple(key for key, _ in self._complete_items())

    def iter_records(self) -> Iterator[Tuple[str, dict]]:
        """All complete ``(key, record)`` pairs, payloads *not* loaded.

        Yields in ascending ``(case_id, key)`` order, where ``case_id``
        is :attr:`SweepCase.case_id` of the record's case -- the order
        the query layer (:mod:`repro.eval.queries`) pages and folds in,
        so it never sorts.  Each ``case_id`` is computed once per
        record, when the record is first indexed.  The record dicts are
        the raw JSONL lines (scalar metrics, case axes, an ``arrays``
        flag), filtered and aggregated over without paying npz I/O per
        candidate.  Treat the dicts as read-only.  Stats-neutral, like
        :meth:`iter_results`.
        """
        return self._complete_items()

    def iter_results(self) -> Iterator[SweepResult]:
        """All stored results, cases reconstructed from the records.

        Stats-neutral: enumerating the store for a report must not
        inflate the hit counters that describe sweep behaviour.
        """
        for key, record in self._complete_items():
            result = self._result_from(key, record, case_from_record(record))
            if result is not None:
                yield result

    # -- writing -----------------------------------------------------------

    def put(self, key: str, result: SweepResult) -> bool:
        """Persist one successful result; errors are never cached."""
        if not result.ok:
            self.stats.skipped_errors += 1
            return False
        record = {
            "v": STORE_SCHEMA_VERSION,
            "k": key,
            "case": {
                "arch": result.case.arch,
                "num_chiplets": result.case.num_chiplets,
                "workload": result.case.workload,
                "seed": result.case.seed,
                "noi_overrides": [
                    list(pair) for pair in result.case.noi_overrides
                ],
                "tag": result.case.tag,
            },
            "metrics": result.metrics,
            "elapsed_s": result.elapsed_s,
            "arrays": bool(result.arrays),
        }
        if result.arrays:
            self._write_npz(key, result.arrays)
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode(
            "utf-8"
        )
        fd = os.open(
            self._shard_path(key),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        self._index(key, record)
        self.stats.puts += 1
        REGISTRY.counter("store_puts").inc()
        return True

    def _write_npz(self, key: str, arrays: Dict[str, np.ndarray]) -> None:
        # Failure hygiene: a raising np.savez (disk full, bad array) or
        # even a failing os.fdopen must leave neither an orphaned
        # ``.tmp`` file (directory walks would pick it up) nor an open
        # descriptor behind -- only the atomic os.replace publishes.
        self._arrays_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self._arrays_dir, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        published = False
        try:
            try:
                fh = os.fdopen(fd, "wb")
            except BaseException:
                os.close(fd)  # fdopen never took ownership of the fd
                raise
            with fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp, self._npz_path(key))
            published = True
        finally:
            if not published:
                try:
                    os.unlink(tmp)
                except FileNotFoundError:
                    pass


def _decode_lines(data: bytes) -> list:
    """The JSON values of ``data``'s non-blank lines; bad lines dropped.

    One ``json.loads`` over the lines joined into a JSON array decodes
    a whole chunk at once.  If that raises (a corrupt or blank line)
    or yields a different number of values than there are lines (a
    line holding two values), each non-blank line is decoded on its
    own and the ones that fail are skipped -- torn or corrupt, last
    writer wins anyway.
    """
    lines = data.splitlines()
    try:
        values = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:
        values = None
    if values is not None and len(values) == len(lines):
        return values
    values = []
    for line in lines:
        if not line.strip():
            continue
        try:
            values.append(json.loads(line))
        except ValueError:
            continue
    return values


def finite_float(value: object) -> Optional[float]:
    """``value`` as a float if it is a finite number, else ``None``.

    The one rule for which stored metric values count: booleans count
    as numbers, while strings, ``None``, NaN, infinities and integers
    too large for a float are missing.
    """
    if isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            return None
        if math.isfinite(number):
            return number
    return None


def _frozen(value: object) -> object:
    """``value``, hashable: JSON lists (override pairs) become tuples."""
    return tuple(map(_frozen, value)) if type(value) is list else value


_CASE = itemgetter("case")

#: How :meth:`RecordColumns.axis` reads each axis from a record's case.
_AXES = {
    "arch": itemgetter("arch"),
    "num_chiplets": itemgetter("num_chiplets"),
    "workload": itemgetter("workload"),
    "seed": itemgetter("seed"),
    "tag": methodcaller("get", "tag", ""),
    "noi_overrides": lambda case: _frozen(case["noi_overrides"]),
}


class RecordColumns:
    """Array views over a store's records, indexed by position.

    Built lazily, one column at a time, by :meth:`ResultStore.columns`
    for the query layer.  An axis column holds one interned code per
    record plus the list of distinct values, so a filter is evaluated
    once per distinct value and broadcast as ``keep[codes]``.  A metric
    column holds the metric as float64, NaN wherever
    :func:`finite_float` says it is missing.  ``perm`` lists every
    position in ``(case_id, key)`` order.

    Positions are stable, so a column built over the first ``n``
    records stays valid while records are appended; the next access
    extends it over the new ones.  The store drops the whole cache
    when a record changes in place or positions are compacted.
    """

    def __init__(self, rows: List[dict], npz_path) -> None:
        self.rows = rows
        self.perm = np.empty(0, np.int64)
        self._npz_path = npz_path
        self._axes: Dict[str, Tuple[np.ndarray, list, dict]] = {}
        self._metrics: Dict[str, np.ndarray] = {}
        self._flags = np.empty(0, bool)

    def axis(self, name: str) -> Tuple[np.ndarray, list]:
        """``(codes, distinct)``: ``distinct[codes[p]]`` equals record
        ``p``'s value of axis ``name`` (one of ``_AXES``; JSON lists
        come back as tuples)."""
        codes, distinct, index = self._axes.get(
            name, (np.empty(0, np.intp), [], {}))
        new = self.rows[len(codes):]
        if new:
            values = list(map(_AXES[name], map(_CASE, new)))
            for value in dict.fromkeys(values):
                if index.setdefault(value, len(distinct)) == len(distinct):
                    distinct.append(value)
            codes = np.concatenate([codes, np.fromiter(
                map(index.__getitem__, values), np.intp, len(values))])
            self._axes[name] = (codes, distinct, index)
        return codes, distinct

    def metric(self, name: str) -> np.ndarray:
        """Metric ``name`` of every record, NaN where it is missing."""
        column = self._metrics.get(name, np.empty(0))
        new = self.rows[len(column):]
        if new:
            values = list(map(methodcaller("get", name),
                              map(itemgetter("metrics"), new)))
            fresh = np.array(list(map(finite_float, values)), np.float64)
            column = self._metrics[name] = np.concatenate([column, fresh])
        return column

    def complete(self, positions: np.ndarray) -> np.ndarray:
        """``positions`` without records whose flagged ``.npz`` is gone
        (the same completeness rule as :meth:`ResultStore.has`)."""
        new = self.rows[len(self._flags):]
        if new:
            self._flags = np.concatenate([self._flags, np.fromiter(
                map(bool, map(methodcaller("get", "arrays"), new)), bool,
                len(new))])
        rows = self.rows
        gone = [pos for pos in positions[self._flags[positions]].tolist()
                if not self._npz_path(rows[pos]["k"]).exists()]
        if not gone:
            return positions
        return positions[~np.isin(positions, gone)]


def _overrides_from_json(pairs) -> Overrides:
    return tuple(
        (str(name), value) for name, value in pairs
    )


def case_from_record(record: Mapping) -> SweepCase:
    """Rebuild the :class:`SweepCase` a store record was written from."""
    case = record["case"]
    return SweepCase(
        arch=case["arch"],
        num_chiplets=case["num_chiplets"],
        workload=case["workload"],
        seed=case["seed"],
        noi_overrides=_overrides_from_json(case["noi_overrides"]),
        tag=case.get("tag", ""),
    )

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
  skipping corrupt lines -- only when that fails.  Values that are not
  well-formed records of this schema version are skipped too.
* ``arrays/<key>.npz`` -- array-valued payloads (thermal tier maps and
  the like), written to a temp file and ``os.replace``d into place so a
  reader never observes a partial archive.

Duplicate keys resolve last-writer-wins.  Failed evaluations are never
stored: a crashed case must be re-attempted on the next run, not
replayed from cache.

In memory, a :class:`ResultStore` keeps its records in flat
per-position lists (:class:`_Positions`): each record's raw line, key,
``case_id``, metrics dict, elapsed time, arrays flag and case axes,
with override lists interned into codes.  None of these is a container
the garbage collector tracks, so a big index costs the collector
nothing and survives no collection it would not; records are decoded
from their lines on demand.  The column cache (:class:`RecordColumns`)
reads the same lists, and nothing refers back to the store, so a
dropped store is freed by reference counting alone.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from itertools import repeat
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

    The index is flat (:class:`_Positions`): every record sits at a
    stable position as its raw JSONL line, its key, its ``case_id``,
    its metrics dict, its elapsed time, its arrays flag, its scalar
    case axes and one interned code for its overrides -- no
    per-record container the garbage collector tracks.  :meth:`get`
    and :meth:`iter_records` decode records from their lines on
    demand.  On top sit the ``(case_id, key)`` order of the positions
    (enumeration and queries never sort) and a lazily built
    :class:`RecordColumns` cache for the query layer
    (:meth:`columns`).  Nothing the store holds refers back to it, so
    a dropped store is freed by reference counting alone.
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
        #: the lists, a rewritten key keeps its slot, and only a shard
        #: rewritten shorter compacts them.
        self._positions = _Positions()
        #: Position of each key's record.
        self._pos: Dict[str, int] = {}
        #: Bytes of each shard already folded into the index.
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
        #: Set when an indexed record's case_id changed or a shard was
        #: rewritten: ``_order`` may hold stale entries and is rebuilt.
        self._stale = False
        #: The positions of ``_order`` as an int64 permutation, built
        #: on demand for the column cache (``None`` after a merge).
        self._perm: Optional[np.ndarray] = None
        #: Lazily built :class:`RecordColumns`; dropped when a record
        #: changes in place or positions are compacted.
        self._columns: Optional[RecordColumns] = None
        #: ``(lines, records)`` this instance put and has not
        #: indexed yet; :meth:`_refresh` indexes them, in one chunk,
        #: before it reads anything.
        self._puts: Tuple[list, list] = ([], [])

    # -- keys and paths ----------------------------------------------------

    def _shard_path(self, key: str) -> Path:
        return self.root / f"shard-{key[:2]}.jsonl"

    def _npz_path(self, key: str) -> Path:
        return _npz_file(self._arrays_dir, key)

    # -- reading -----------------------------------------------------------

    def _refresh_shard(self, shard: Path) -> Optional[Tuple[list, list]]:
        """The lines appended to ``shard`` since the last read, decoded
        (``(lines, values)``, :func:`_decode_lines`) for the caller to
        :meth:`_index`; ``None`` when there are none.

        Guarded by an ``(st_mtime_ns, st_size)`` signature: a shard
        whose signature matches the last refresh has not been touched
        by any appender, so the method returns after the single
        ``stat`` -- no open, no read.  This also covers a torn tail
        (bytes past the last newline): re-reading it before the writer
        finishes the line cannot yield anything new, and the finishing
        append changes the signature.  A shard *shorter* than the
        consumed offset was rewritten out from under us (an external
        compaction or restore-from-backup); its indexed records are
        dropped and the file re-read from the start.  Only
        :meth:`_refresh` calls this, after indexing this instance's own
        puts, which precede every line still unread.
        """
        try:
            stat = shard.stat()
        except FileNotFoundError:
            return None
        sig = (stat.st_mtime_ns, stat.st_size)
        if self._sig.get(shard.name) == sig:
            return None
        consumed = self._consumed.get(shard.name, 0)
        size = stat.st_size
        if size < consumed:
            # Rewritten shorter: forget everything this shard
            # contributed (keys carry their shard prefix) and rebuild.
            prefix = shard.name[len("shard-"):len("shard-") + 2]
            keep = [pos for pos, key in enumerate(self._positions.keys)
                    if key[:2] != prefix]
            self._positions = self._positions.select(keep)
            self._pos = dict(zip(self._positions.keys, range(len(keep))))
            self._pending.clear()
            self._stale = True
            self._columns = None
            consumed = 0
        if size == consumed:
            self._sig[shard.name] = sig
            self._consumed[shard.name] = consumed
            return None
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
            return None
        self._consumed[shard.name] = consumed + end + 1
        return _decode_lines(chunk[: end + 1])

    def _index(self, lines: List[bytes], records: list) -> None:
        """Make each of ``records`` the one for its key (last writer
        wins); ``lines`` are their raw JSONL lines.

        Records that are not well formed (:func:`_fields`) are skipped,
        like corrupt lines.  Each record's ``case_id`` is ``case_id_of``
        of its own case.  A new key takes the next position and waits on
        ``_pending`` for the next :meth:`_merge`.  A known key keeps its
        position; if its line bytes differ (so ``-0.0`` differs from
        ``0.0`` and ``8`` from ``8.0``) the column cache is dropped, and
        if its case_id changed (same key, overrides reordered) the order
        is stale.  Re-reading a line this instance put itself changes
        nothing.
        """
        fields = _fields(records)
        if fields is None:
            keep = [i for i, record in enumerate(records)
                    if _fields([record]) is not None]
            lines = [lines[i] for i in keep]
            fields = _fields([records[i] for i in keep])
        keys, cases, metrics, elapsed, flags, axes, texts, lists = fields
        case_ids = list(map(case_id_of, cases))
        table = self._positions
        axes["noi_overrides"] = table.intern(texts, lists)
        chunk = (lines, keys, case_ids, metrics, elapsed, flags,
                 *axes.values())
        pos = self._pos
        start = len(table.keys)
        if len(set(keys)) == len(keys) and pos.keys().isdisjoint(keys):
            pos.update(zip(keys, range(start, start + len(keys))))
            self._pending.extend(range(start, start + len(keys)))
            for column, new in zip(table.columns(), chunk):
                column.extend(new)
            return
        for i, key in enumerate(keys):
            slot = pos.get(key)
            if slot is None:
                pos[key] = len(table.keys)
                self._pending.append(len(table.keys))
                for column, new in zip(table.columns(), chunk):
                    column.append(new[i])
            elif table.lines[slot] != lines[i]:
                self._columns = None
                self._stale |= table.case_ids[slot] != case_ids[i]
                for column, new in zip(table.columns(), chunk):
                    column[slot] = new[i]

    def _merge(self) -> None:
        """Fold pending positions into the ``(case_id, key)`` order.

        Re-sorts an almost-sorted list (timsort merges the appended run
        in linear time); a stale or empty order is rebuilt from every
        position.  ``case_id`` was computed when each record was
        indexed.
        """
        if not (self._stale or self._pending):
            return
        table = self._positions
        if self._stale or not self._order:
            self._order = list(zip(table.case_ids, table.keys,
                                   range(len(table.keys))))
        else:
            self._order.extend((table.case_ids[pos], table.keys[pos], pos)
                               for pos in self._pending)
        self._stale = False
        self._pending.clear()
        self._order.sort()
        self._perm = None

    def _refresh(self, shards: Iterable[Path]) -> None:
        """Index the records this instance put, then the new lines of
        each of ``shards``: every read of the index comes through here.

        A put only writes its line and keeps its record (:meth:`put`),
        so a handle that only writes never indexes, and one that reads
        after many puts indexes them in one chunk.
        """
        puts = self._puts
        if puts[0]:
            self._puts = ([], [])
            self._index(*puts)
        for shard in shards:
            chunk = self._refresh_shard(shard)
            if chunk is not None:
                self._index(*chunk)

    def _refresh_all(self) -> None:
        """Index the new lines of every shard."""
        # Names sorted as strings: sorting a glob's Path objects costs
        # about as much as the per-shard stat calls themselves.
        names = sorted(os.listdir(self.root))
        self._refresh(self.root / name for name in names
                      if name.startswith("shard-") and name.endswith(".jsonl"))

    def _peek(self, key: str) -> Optional[int]:
        """Position of the complete record for ``key`` or ``None``;
        never touches stats.

        "Complete" includes the array payload: a record whose flagged
        ``.npz`` is absent (crash between the two writes) is treated as
        missing, so ``has``/``__contains__`` never disagree with
        ``get``.
        """
        self._refresh([self._shard_path(key)])
        pos = self._pos.get(key)
        if pos is None or (self._positions.flags[pos]
                           and not self._npz_path(key).exists()):
            return None
        return pos

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
        pos = self._peek(key)
        result = (
            self._result_from(key, self._positions.record(pos), case)
            if pos is not None else None
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
        hit.  So a sweep (``probe`` every case, ``get`` the hits only)
        reports the same hit/miss totals as one ``get`` per case.
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

    def _complete(self) -> List[int]:
        """Positions of every record that passes the completeness
        check, in ``(case_id, key)`` order.

        Shared by ``__len__``/``keys``/``iter_records``/``iter_results``
        so enumeration can never disagree with ``has``/``get`` about
        what the store contains (a record whose ``.npz`` payload is
        gone counts nowhere).
        """
        columns = self.columns()
        return columns.complete(columns.perm).tolist()

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
            self._columns = RecordColumns(self._positions, self._arrays_dir)
        if self._perm is None:
            self._perm = np.fromiter(map(itemgetter(2), self._order),
                                     np.int64, len(self._order))
        self._columns.perm = self._perm
        return self._columns

    def __len__(self) -> int:
        return len(self._complete())

    def keys(self) -> Tuple[str, ...]:
        complete = self._complete()
        keys = self._positions.keys
        return tuple(keys[pos] for pos in complete)

    def iter_records(self) -> Iterator[Tuple[str, dict]]:
        """All complete ``(key, record)`` pairs, payloads *not* loaded.

        Yields in ascending ``(case_id, key)`` order, where ``case_id``
        is :attr:`SweepCase.case_id` of the record's case -- the order
        the query layer (:mod:`repro.eval.queries`) pages and folds in,
        so it never sorts.  Each ``case_id`` is computed once per
        record, when the record is first indexed.  Each record is
        decoded from its stored JSONL line as it is yielded (scalar
        metrics, case axes, an ``arrays`` flag), a fresh dict the
        caller may keep or change.  Stats-neutral, like
        :meth:`iter_results`.
        """
        complete = self._complete()
        table = self._positions
        return ((table.keys[pos], table.record(pos)) for pos in complete)

    def iter_results(self) -> Iterator[SweepResult]:
        """All stored results, cases reconstructed from the records.

        Stats-neutral: enumerating the store for a report must not
        inflate the hit counters that describe sweep behaviour.
        """
        for key, record in self.iter_records():
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
            # A copy: the index keeps this dict, and the caller's may
            # change after the put.
            "metrics": dict(result.metrics),
            "elapsed_s": result.elapsed_s,
            "arrays": bool(result.arrays),
        }
        if result.arrays:
            self._write_npz(key, result.arrays)
        line = json.dumps(record, separators=(",", ":")).encode("utf-8")
        shard = self._shard_path(key)
        fd = os.open(shard, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            written = os.write(fd, line + b"\n")
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        lines, records = self._puts
        lines.append(line)
        records.append(record)
        # If the whole line directly follows what this instance has read
        # of the shard, it counts as read and is never decoded.
        # Otherwise the next read meets it again after the lines before
        # it, which keeps last-writer-wins in file order.
        name = shard.name
        if (written == len(line) + 1
                and end - written == self._consumed.get(name, 0)):
            self._consumed[name] = end
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


def _npz_file(arrays_dir: Path, key: str) -> Path:
    return arrays_dir / f"{key}.npz"


def _decode_lines(data: bytes) -> Tuple[List[bytes], list]:
    """``data``'s non-blank lines that decode, and their JSON values.

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
        return lines, values
    kept, values = [], []
    for line in lines:
        if not line.strip():
            continue
        try:
            values.append(json.loads(line))
        except ValueError:
            continue
        kept.append(line)
    return kept, values


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


#: How each case axis is read from a record's case, in the order a
#: record's case lists them.
_AXES = {
    "arch": itemgetter("arch"),
    "num_chiplets": itemgetter("num_chiplets"),
    "workload": itemgetter("workload"),
    "seed": itemgetter("seed"),
    "noi_overrides": itemgetter("noi_overrides"),
    "tag": methodcaller("get", "tag", ""),
}
#: JSON scalars: what a case axis and an override value may be.
_SCALARS = (str, int, float, type(None))


def _only(values: list, classes) -> bool:
    """Whether every one of ``values`` is an instance of ``classes``
    (checked once per distinct type)."""
    return all(map(issubclass, set(map(type, values)), repeat(classes)))


def _pairs_ok(pairs: list) -> bool:
    """Whether ``pairs`` is a list of ``[name, scalar]`` override pairs."""
    return type(pairs) is list and all(
        type(pair) is list and len(pair) == 2 and isinstance(pair[0], str)
        and isinstance(pair[1], _SCALARS) for pair in pairs)


def _fields(records: list):
    """``records`` split into per-field lists, or ``None`` if any of
    them is not a well-formed record of this schema version.

    Well formed means: a dict with ``"v"`` equal to
    :data:`STORE_SCHEMA_VERSION`, a ``str`` key ``k``, a ``case`` dict
    whose axes are JSON scalars (``tag`` may be absent) and whose
    ``noi_overrides`` is a list of ``[str, scalar]`` pairs, a
    ``metrics`` dict and a numeric ``elapsed_s`` that fits a float --
    everything enumeration, queries and :func:`case_from_record` read.
    A record without ``"v"`` is as foreign as one of another version.
    Each check runs over a whole field at once (once per distinct type,
    once per distinct override list), so a clean chunk costs a few
    passes of C loops; reading a key of a value that is not a dict
    raises, which rejects the chunk too.  Returns ``(keys, cases,
    metrics, elapsed, flags, axes, texts, lists)``: ``axes`` maps each
    of ``_AXES`` to its values, ``texts`` holds each override list's
    interning key -- its ``repr``, which keys ``8``, ``8.0`` and
    ``true`` (or ``0.0`` and ``-0.0``) apart -- and ``lists`` maps each
    distinct key to one of its lists.
    """
    try:
        if not set(map(itemgetter("v"), records)) <= {STORE_SCHEMA_VERSION}:
            return None
        keys = list(map(itemgetter("k"), records))
        cases = list(map(itemgetter("case"), records))
        metrics = list(map(itemgetter("metrics"), records))
        elapsed = list(map(itemgetter("elapsed_s"), records))
        if not (_only(keys, str) and _only(metrics, dict)
                and _only(elapsed, (int, float))):
            return None
        list(map(float, elapsed))  # OverflowError: an int past float
        axes = {name: list(map(read, cases)) for name, read in _AXES.items()}
        texts = list(map(repr, axes["noi_overrides"]))
        lists = dict(zip(texts, axes["noi_overrides"]))
        if not (all(_only(axes[name], _SCALARS) for name in _AXES
                    if name != "noi_overrides")
                and all(map(_pairs_ok, lists.values()))):
            return None
    except (KeyError, TypeError, AttributeError, OverflowError):
        return None
    flags = list(map(bool, map(methodcaller("get", "arrays"), records)))
    return keys, cases, metrics, elapsed, flags, axes, texts, lists


class _Positions:
    """The flat lists a store's index is made of, one entry per position.

    Position ``p`` holds one record: ``lines[p]`` its raw JSONL line
    (decoded again only on demand, :meth:`record`), ``keys[p]``,
    ``case_ids[p]``, ``metrics[p]`` (the decoded metrics dict),
    ``elapsed[p]``, ``flags[p]`` (whether it has an array payload) and,
    per case axis, ``axes[axis][p]``: the scalar value, or for
    ``noi_overrides`` a code into ``overrides``, the distinct override
    lists as tuples of pairs.  Bytes, strings, numbers and a dict of
    numbers are all untracked by the garbage collector, so an index of
    any size adds only a few dozen tracked objects, and nothing here
    refers to the store.
    """

    __slots__ = ("lines", "keys", "case_ids", "metrics", "elapsed", "flags",
                 "axes", "overrides", "_codes")

    def __init__(self) -> None:
        self.lines: List[bytes] = []
        self.keys: List[str] = []
        self.case_ids: List[str] = []
        self.metrics: List[dict] = []
        self.elapsed: List[float] = []
        self.flags: List[bool] = []
        self.axes: Dict[str, list] = {name: [] for name in _AXES}
        self.overrides: List[tuple] = []
        #: Code of each distinct override list, by its ``repr``:
        #: unlike the lists themselves, the keys tell ``8`` from ``8.0``.
        self._codes: Dict[object, int] = {}

    def columns(self) -> List[list]:
        """Every per-position list, in :meth:`ResultStore._index`'s
        chunk order."""
        return [self.lines, self.keys, self.case_ids, self.metrics,
                self.elapsed, self.flags, *self.axes.values()]

    def intern(self, texts: list, lists: dict) -> List[int]:
        """The override codes of ``texts``, interning keys of override
        lists; ``lists`` maps each distinct key to its list, which
        becomes a distinct value the first time its key is seen."""
        codes = self._codes
        for text, pairs in lists.items():
            if text not in codes:
                codes[text] = len(self.overrides)
                self.overrides.append(_frozen(pairs))
        return list(map(codes.__getitem__, texts))

    def select(self, keep: List[int]) -> "_Positions":
        """A copy holding only positions ``keep``, renumbered in order;
        the interned override lists are shared."""
        out = _Positions()
        out.overrides, out._codes = self.overrides, self._codes
        for mine, theirs in zip(self.columns(), out.columns()):
            theirs.extend(mine[pos] for pos in keep)
        return out

    def record(self, pos: int) -> dict:
        """The record at ``pos``, decoded from its line."""
        return json.loads(self.lines[pos])


class RecordColumns:
    """Array views over a store's records, indexed by position.

    Built lazily, one column at a time, by :meth:`ResultStore.columns`
    for the query layer, from the store's flat position lists
    (:class:`_Positions`) and its arrays directory -- never from the
    store itself, so the cache forms no reference cycle.  An axis
    column holds one interned code per record, next to the list of
    distinct values, so a filter is evaluated once per distinct value
    and broadcast as ``keep[codes]``.  A metric column holds the metric
    as float64, NaN wherever :func:`finite_float` says it is missing.
    ``perm`` lists every position in ``(case_id, key)`` order;
    :meth:`page_record` and :meth:`case_id` give what a page row shows
    of one record, without decoding its line.

    Positions are stable, so a column built over the first ``n``
    records stays valid while records are appended; the next access
    extends it over the new ones.  The store drops the whole cache
    when a record changes in place or positions are compacted.
    """

    def __init__(self, positions: _Positions, arrays_dir: Path) -> None:
        self.perm = np.empty(0, np.int64)
        self._positions = positions
        self._arrays_dir = arrays_dir
        self._axes: Dict[str, Tuple[np.ndarray, list, dict]] = {}
        self._metrics: Dict[str, np.ndarray] = {}
        self._flags = np.empty(0, bool)

    def axis(self, name: str) -> Tuple[np.ndarray, list]:
        """``(codes, distinct)``: ``distinct[codes[p]]`` equals record
        ``p``'s value of axis ``name`` (one of ``_AXES``; override
        lists come back as tuples of pairs)."""
        codes, distinct, index = self._axes.get(
            name, (np.empty(0, np.intp), [], {}))
        new = self._positions.axes[name][len(codes):]
        if name == "noi_overrides":  # interned as records are indexed
            distinct = self._positions.overrides
        elif new:
            for value in dict.fromkeys(new):
                if index.setdefault(value, len(distinct)) == len(distinct):
                    distinct.append(value)
            new = list(map(index.__getitem__, new))
        if new:
            codes = np.concatenate([codes, np.array(new, np.intp)])
            self._axes[name] = (codes, distinct, index)
        return codes, distinct

    def metric(self, name: str) -> np.ndarray:
        """Metric ``name`` of every record, NaN where it is missing."""
        column = self._metrics.get(name, np.empty(0))
        new = self._positions.metrics[len(column):]
        if new:
            fresh = np.array(list(map(finite_float, map(
                methodcaller("get", name), new))), np.float64)
            column = self._metrics[name] = np.concatenate([column, fresh])
        return column

    def complete(self, positions: np.ndarray) -> np.ndarray:
        """``positions`` without records whose flagged ``.npz`` is gone
        (the same completeness rule as :meth:`ResultStore.has`)."""
        flags = self._positions.flags
        if len(flags) > len(self._flags):
            self._flags = np.concatenate([self._flags, np.array(
                flags[len(self._flags):], bool)])
        keys = self._positions.keys
        gone = [pos for pos in positions[self._flags[positions]].tolist()
                if not _npz_file(self._arrays_dir, keys[pos]).exists()]
        if not gone:
            return positions
        return positions[~np.isin(positions, gone)]

    def page_record(self, pos: int) -> dict:
        """The record at ``pos``, rebuilt from the position lists
        without decoding its line: equal to the decoded line wherever
        the stored values survive a JSON round trip, as every value a
        reader decoded does.  Its metrics dict is the stored one; treat
        it as read-only."""
        table = self._positions
        axes = table.axes
        case = {name: axes[name][pos] for name in _AXES}
        case["noi_overrides"] = [
            list(pair) for pair in table.overrides[case["noi_overrides"]]]
        return {"k": table.keys[pos], "case": case,
                "metrics": table.metrics[pos],
                "elapsed_s": table.elapsed[pos], "arrays": table.flags[pos]}

    def case_id(self, pos: int) -> str:
        """``case_id`` of the record at ``pos``."""
        return self._positions.case_ids[pos]


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

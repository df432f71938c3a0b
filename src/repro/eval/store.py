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
* ``shard-XX.idx`` -- the index snapshot of a shard: what the index
  holds after reading the shard's first N bytes (keys, case ids,
  case axes, elapsed times, arrays flags, line offsets and metric
  values as float64), with N and the crc32 of those bytes.  A handle's
  first read of a shard uses it when its format matches and the shard
  still starts with those N bytes (size and crc32), and decodes only
  the lines past them; any other snapshot counts as absent.  A handle
  writes one, by temp file and ``os.replace``, only for a shard whose
  bytes it decoded itself, once those reach what the last snapshot it
  loaded or wrote covered (any bytes, if none) -- so rewrites of a
  growing shard are amortised, and a handle that only reads back its
  own puts writes none.  A failed write (a read-only directory) is
  ignored.  Snapshots hold JSON and raw little-endian numbers only,
  never pickles, so loading one runs no code.
* ``arrays/<key>.npz`` -- array-valued payloads (thermal tier maps and
  the like), written to a temp file and ``os.replace``d into place so a
  reader never observes a partial archive.

Duplicate keys resolve last-writer-wins.  Failed evaluations are never
stored: a crashed case must be re-attempted on the next run, not
replayed from cache.

In memory, a :class:`ResultStore` keeps its records in flat
per-position lists (:class:`_Positions`): each record's raw line, key,
``case_id``, metrics dict (or, for a record loaded from a snapshot, a
row of float64 metric values), elapsed time, arrays flag and case axes,
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
import zlib
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..obs.metrics import REGISTRY
from .sweeps import (
    CASE_ID_HEAD,
    Overrides,
    SweepCase,
    SweepResult,
    overrides_id,
)

#: Bump to invalidate every stored result (record format change).
STORE_SCHEMA_VERSION = 1

#: Bump when an index snapshot's layout or meaning changes -- also when
#: :func:`_fields` or :func:`~repro.eval.sweeps.case_id_of` would index
#: the same lines differently.  Snapshots of any other format (which
#: also names :data:`STORE_SCHEMA_VERSION` and ``repro.__version__``)
#: count as absent.
SNAPSHOT_VERSION = 1


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


def case_keys(evaluate, cases: Iterable[SweepCase]) -> List[str]:
    """Store keys of ``cases`` under ``evaluate``, in order."""
    fingerprint = evaluator_fingerprint(evaluate)
    return [case_key(c, fingerprint) for c in cases]


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
    #: queries at memory speed.  Reading a shard's index snapshot is
    #: part of the first read of that shard and is not counted apart.
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
        #: ``(bytes, crc32)`` of each shard's prefix this instance read
        #: itself (or took from a verified snapshot); it only describes
        #: the shard while ``bytes`` equals the consumed offset.
        self._crc: Dict[str, Tuple[int, int]] = {}
        #: ``(covered, decoded)`` per shard: the bytes covered by the
        #: snapshot this instance last loaded or wrote (0 for none) and
        #: the bytes it decoded itself since then.
        self._snapshots: Dict[str, Tuple[int, int]] = {}
        #: Shards whose snapshot the next :meth:`columns` writes.
        self._due: set = set()
        #: Key prefixes mixed up with another shard's (a record whose
        #: key does not start with its shard's prefix): no snapshot of
        #: theirs is ever written by this instance.
        self._foreign: set = set()

    # -- keys and paths ----------------------------------------------------

    def _shard_path(self, key: str) -> Path:
        return self.root / f"shard-{key[:2]}.jsonl"

    def _snapshot_path(self, name: str) -> Path:
        """``shard-XX.idx``: the index snapshot beside shard ``name``."""
        return self.root / (name[:-len(".jsonl")] + ".idx")

    def _npz_path(self, key: str) -> Path:
        return _npz_file(self._arrays_dir, key)

    # -- reading -----------------------------------------------------------

    def _refresh_shard(self, shard: Path) -> None:
        """Index the complete lines appended to ``shard`` since the last
        read.

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

        The first read of a shard (nothing consumed yet) loads its
        index snapshot when a valid one covers a prefix of the bytes
        just read (:func:`_read_snapshot`) and decodes only the lines
        past that prefix; a later read never looks at the snapshot.
        Decoded lines go through :func:`_decode_lines` and
        :meth:`_index`.  Once the bytes this instance decoded itself
        reach what its last loaded or written snapshot covered (any
        bytes, when there was none), the shard is due for a new
        snapshot, which :meth:`columns` writes.  Only
        :meth:`_refresh` calls this, after indexing this instance's own
        puts, which precede every line still unread.
        """
        name = shard.name
        try:
            stat = shard.stat()
        except FileNotFoundError:
            return
        sig = (stat.st_mtime_ns, stat.st_size)
        if self._sig.get(name) == sig:
            return
        consumed = self._consumed.get(name, 0)
        size = stat.st_size
        if size < consumed:
            # Rewritten shorter: forget everything this shard
            # contributed (keys carry their shard prefix) and rebuild.
            prefix = _prefix(name)
            keep = [pos for pos, key in enumerate(self._positions.keys)
                    if key[:2] != prefix]
            self._positions = self._positions.select(keep)
            self._pos = dict(zip(self._positions.keys, range(len(keep))))
            self._pending.clear()
            self._stale = True
            self._columns = None
            consumed = 0
        if size == consumed:
            self._sig[name] = sig
            self._consumed[name] = consumed
            return
        with shard.open("rb") as fh:
            fh.seek(consumed)
            chunk = fh.read(size - consumed)
        self.stats.shard_reads += 1
        self._sig[name] = sig
        skip, crc = 0, None
        if consumed == 0:
            skip, crc = self._load_snapshot(shard, chunk)
            self._snapshots[name] = (skip, 0)
        elif self._crc.get(name, (-1,))[0] == consumed:
            crc = self._crc[name][1]
        # Never consume past the last newline: the tail may be a line
        # another process is mid-append on; it is re-read (from the
        # same offset) once a later append moves the signature.  A
        # snapshot always ends on a newline, so ``end >= skip``.
        end = chunk.rfind(b"\n") + 1
        self._consumed[name] = consumed + end
        if crc is not None:
            self._crc[name] = (consumed + end, zlib.crc32(
                memoryview(chunk)[skip:end], crc))
        if end == skip:
            return
        keys = self._index(*_decode_lines(chunk[skip:end], consumed + skip))
        prefix = _prefix(name)
        if not all(map(str.startswith, keys, repeat(prefix))):
            self._foreign.update(map(itemgetter(slice(2)), keys), [prefix])
        covered, decoded = self._snapshots.get(name, (0, 0))
        decoded += end - skip
        self._snapshots[name] = (covered, decoded)
        if decoded >= max(covered, 1):
            self._due.add(name)

    def _index(self, lines: List[bytes], records: list,
               starts: Optional[List[int]] = None) -> List[str]:
        """Make each of ``records`` the one for its key (last writer
        wins) and return the keys of those indexed; ``lines`` are their
        raw JSONL lines and ``starts`` each line's byte offset in its
        shard (``None``: unknown, as for this instance's own puts).

        Records that are not well formed (:func:`_fields`) are skipped,
        like corrupt lines.  Each record's ``case_id`` is ``case_id_of``
        of its own case, built in bulk: the override part once per
        distinct override list.  Placing them is :meth:`_place`.
        """
        fields = _fields(records)
        if fields is None:
            keep = [i for i, record in enumerate(records)
                    if _fields([record]) is not None]
            lines = [lines[i] for i in keep]
            if starts is not None:
                starts = [starts[i] for i in keep]
            fields = _fields([records[i] for i in keep])
        keys, metrics, elapsed, flags, axes, texts, lists = fields
        table = self._positions
        axes["noi_overrides"] = table.intern(texts, lists)
        case_ids = _case_ids(axes, table.ids)
        unknown = [-1] * len(keys)
        self._place([lines, keys, case_ids, metrics, elapsed, flags,
                     unknown if starts is None else starts, unknown,
                     *axes.values()])
        return keys

    def _place(self, chunk: list) -> None:
        """Put a chunk of records -- one list per :class:`_Positions`
        column, in :meth:`_Positions.columns` order -- into the index,
        last writer wins.

        A new key takes the next position and waits on ``_pending`` for
        the next :meth:`_merge`.  A known key keeps its position; if
        its line bytes differ (so ``-0.0`` differs from ``0.0`` and
        ``8`` from ``8.0``) the column cache is dropped, and if its
        case_id changed (same key, overrides reordered) the order is
        stale.  Re-reading a line this instance put itself changes
        nothing.
        """
        lines, keys, case_ids = chunk[:3]
        table = self._positions
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
            self._refresh_shard(shard)

    def _refresh_all(self) -> None:
        """Index the new lines of every shard."""
        # Names sorted as strings: sorting a glob's Path objects costs
        # about as much as the per-shard stat calls themselves.
        names = sorted(os.listdir(self.root))
        self._refresh(self.root / name for name in names
                      if name.startswith("shard-") and name.endswith(".jsonl"))

    # -- index snapshots ---------------------------------------------------

    def _load_snapshot(self, shard: Path, data: bytes) -> Tuple[int, int]:
        """Index what the snapshot beside ``shard`` holds, if it is
        valid for ``data`` (the shard's bytes from offset 0), and return
        ``(bytes covered, their crc32)``; ``(0, 0)`` when it is absent
        or invalid, which leaves the index as it was."""
        try:
            raw = self._snapshot_path(shard.name).read_bytes()
        except OSError:
            return 0, 0
        table = self._positions
        snapshot = _read_snapshot(raw, data, table.codes)
        if snapshot is None:
            return 0, 0
        covered, crc, names, matrix, columns, texts, overrides = snapshot
        interned = table.intern(texts, dict(zip(texts, overrides)))
        first = table.add_metrics(names, matrix)
        rows = len(columns["keys"])
        columns["noi_overrides"] = list(map(interned.__getitem__,
                                            columns["codes"]))
        self._place([
            list(map(data.__getitem__, map(slice, columns["starts"],
                                           columns["ends"]))),
            columns["keys"], columns["case_ids"], [None] * rows,
            columns["elapsed"], columns["flags"], columns["starts"],
            list(range(first, first + rows)),
            *(columns[name] for name in _AXES),
        ])
        return covered, crc

    def _write_snapshots(self, columns: "RecordColumns") -> None:
        """Write the snapshot (:func:`_snapshot_parts`) of every due
        shard that this instance can describe exactly: its crc covers
        all it consumed, no key prefix is mixed up with another shard's,
        and every record of the shard came from a line this instance
        read (not from its own puts).  A due shard counts as written
        either way, so the next write waits until as many bytes again
        are decoded.  Metric values come from ``columns``, the column
        cache the query that follows reads too."""
        due, self._due = self._due, set()
        todo = {}
        for name in due:
            consumed = self._consumed.get(name, 0)
            self._snapshots[name] = (consumed, 0)
            crc = self._crc.get(name)
            if (crc is not None and crc[0] == consumed > 0
                    and _prefix(name) not in self._foreign):
                todo[_prefix(name)] = (name, consumed, crc[1], [])
        if not todo:
            return
        table = self._positions
        for pos, key in enumerate(table.keys):
            entry = todo.get(key[:2])
            if entry is not None:
                entry[3].append(pos)
        names = sorted(set(table.metric_names()).union(*filter(
            None, table.metrics)))
        values = [columns.metric(name) for name in names]
        version = _snapshot_format()
        for name, covered, crc, positions in todo.values():
            if positions and positions[-1] - positions[0] < len(positions):
                # One run of positions, as a first full read leaves it.
                run = slice(positions[0], positions[-1] + 1)

                def take(column):
                    return column[run]
            else:
                run = positions

                def take(column):
                    return list(map(column.__getitem__, positions))

            starts = np.array(take(table.starts), np.int64)
            if (starts < 0).any():
                continue
            matrix = np.array([column[run] for column in values],
                              np.float64).reshape(len(names), len(positions))
            metric = ~np.isnan(matrix).all(axis=1)
            codes = take(table.axes["noi_overrides"])
            distinct = list(dict.fromkeys(codes))
            local = dict(zip(distinct, range(len(distinct))))
            header = {
                "format": version, "covered": covered, "crc": crc,
                "rows": len(positions),
                "metrics": [n for n, keep in zip(names, metric) if keep],
                "overrides": [table.overrides[c] for c in distinct],
                "texts": [table.texts[c] for c in distinct],
                "keys": take(table.keys), "case_ids": take(table.case_ids),
                "elapsed": take(table.elapsed), "flags": take(table.flags),
                **{axis: take(table.axes[axis]) for axis in _AXES
                   if axis != "noi_overrides"},
            }
            ends = starts + np.fromiter(map(len, take(table.lines)),
                                        np.int64, len(positions))
            parts = _snapshot_parts(header, np.array(
                [starts, ends, list(map(local.__getitem__, codes))]),
                matrix[metric])
            try:
                _publish(self._snapshot_path(name),
                         methodcaller("writelines", parts))
            except OSError:  # a read-only directory still answers
                pass

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
        if self._due:
            self._write_snapshots(self._columns)
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
        self._arrays_dir.mkdir(parents=True, exist_ok=True)
        _publish(self._npz_path(key),
                 lambda fh: np.savez_compressed(fh, **arrays))


def _publish(path: Path, write) -> None:
    """Write ``path`` atomically: ``write(fh)`` fills a temp file beside
    it, which ``os.replace`` then moves into place.

    Failure hygiene: a raising ``write`` (disk full, bad array) or even
    a failing ``os.fdopen`` leaves neither an orphaned ``.tmp`` file
    (directory walks would pick it up) nor an open descriptor behind
    -- only the atomic ``os.replace`` publishes -- and the error
    propagates.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:8]}-", suffix=".tmp"
    )
    published = False
    try:
        try:
            fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)  # fdopen never took ownership of the fd
            raise
        with fh:
            write(fh)
        os.replace(tmp, path)
        published = True
    finally:
        if not published:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass


def _npz_file(arrays_dir: Path, key: str) -> Path:
    return arrays_dir / f"{key}.npz"


def _prefix(name: str) -> str:
    """The key prefix of shard file ``name`` (``shard-XX.jsonl``)."""
    return name[len("shard-"):len("shard-") + 2]


def _decode_lines(data: bytes, offset: int = 0
                  ) -> Tuple[List[bytes], list, List[int]]:
    """``data``'s non-blank lines that decode, their JSON values and
    the byte offset of each in its shard, where ``data`` starts at
    ``offset``.

    One ``json.loads`` over the lines joined into a JSON array decodes
    a whole chunk at once.  If that raises (a corrupt or blank line)
    or yields a different number of values than there are lines (a
    line holding two values), each non-blank line is decoded on its
    own and the ones that fail are skipped -- torn or corrupt, last
    writer wins anyway.  Offsets are ``-1`` (unknown) if ``data`` holds
    a carriage return, which also ends a line.
    """
    lines = data.splitlines()
    if b"\r" in data:
        starts = [-1] * len(lines)
    else:
        sizes = np.fromiter(map(len, lines), np.int64, len(lines)) + 1
        starts = (np.cumsum(sizes) - sizes + offset).tolist()
    try:
        values = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:
        values = None
    if values is not None and len(values) == len(lines):
        return lines, values, starts
    kept, values, kept_starts = [], [], []
    for line, start in zip(lines, starts):
        if not line.strip():
            continue
        try:
            values.append(json.loads(line))
        except ValueError:
            continue
        kept.append(line)
        kept_starts.append(start)
    return kept, values, kept_starts


def _snapshot_format() -> str:
    """The format an index snapshot must name to be read."""
    from .. import __version__ as code_version

    return f"{SNAPSHOT_VERSION}/{STORE_SCHEMA_VERSION}/{code_version}"


#: The per-record lists of a snapshot header.
_SNAPSHOT_LISTS = ("keys", "case_ids", "elapsed", "flags", "arch",
                   "num_chiplets", "workload", "seed", "tag")
#: Lists a snapshot packs into a raw block, not JSON, whenever every
#: value has exactly that type: ``(header name, type, block dtype)``.
_PACKED = (("elapsed", float, "<f8"), ("num_chiplets", int, "<i8"),
           ("seed", int, "<i8"))


def _snapshot_parts(header: dict, spans: np.ndarray,
                    matrix: np.ndarray) -> List[bytes]:
    """The bytes of one shard's index snapshot, in order.

    A snapshot is one line of compact JSON -- ``header``: the format,
    the bytes it covers and their crc32, the record count, the metric
    names, the distinct override lists with their interning keys
    (:meth:`_Positions.intern`) and, per record, its key, ``case_id``,
    elapsed time, arrays flag and scalar case axes -- followed by raw
    little-endian blocks: int64 line starts, line ends and codes into
    the override lists, one row each (``spans``); each :data:`_PACKED`
    list whose header entry is ``null``; then float64 metric values,
    one row per metric name (``matrix``): :func:`finite_float` of each
    record's value, NaN where it has none.  Packs ``header`` in place.
    """
    blocks = [spans.astype("<i8").tobytes()]
    for name, kind, dtype in _PACKED:
        if set(map(type, header[name])) <= {kind}:
            try:
                blocks.append(np.array(header[name], dtype).tobytes())
            except OverflowError:  # an int past int64
                continue
            header[name] = None
    return [json.dumps(header, separators=(",", ":"),
                       check_circular=False).encode("utf-8"), b"\n",
            *blocks, matrix.astype("<f8").tobytes()]


def _read_snapshot(raw: bytes, data: bytes, known: Mapping[str, int]):
    """The contents of snapshot file ``raw`` if it is valid for
    ``data``, a shard's bytes from offset 0; else ``None``.

    Valid means: it parses, names this format (:func:`_snapshot_format`),
    covers at most ``len(data)`` bytes ending on a newline whose crc32
    is the recorded one, and every part has the length, range and types
    the index needs.  An override list is checked only if its
    interning key is not ``known`` yet, and then also against that key.
    Returns ``(covered, crc, metric names, metric matrix, per-record
    lists, override interning keys, override lists)``; the lists, by
    name, are :data:`_SNAPSHOT_LISTS` plus ``starts``, ``ends`` and
    ``codes``.
    """
    try:
        cut = raw.index(b"\n")
        head = json.loads(raw[:cut])
        if head["format"] != _snapshot_format():
            return None
        covered, crc, rows, names = (head["covered"], head["crc"],
                                     head["rows"], head["metrics"])
        columns = {name: head[name] for name in _SNAPSHOT_LISTS}
        packed = [(name, dtype) for name, _, dtype in _PACKED
                  if columns[name] is None]
        if not (type(covered) is int and 0 < covered <= len(data)
                and data[covered - 1] == ord("\n")
                and zlib.crc32(memoryview(data)[:covered]) == crc
                and type(rows) is int and rows >= 0
                and type(names) is list and _only(names, str)
                and len(set(names)) == len(names)
                and len(raw) - cut - 1
                == 8 * rows * (3 + len(packed) + len(names))):
            return None
        offset = cut + 1 + 24 * rows
        for name, dtype in packed:
            columns[name] = np.frombuffer(raw, dtype, rows, offset).tolist()
            offset += 8 * rows
        overrides, texts = head["overrides"], head["texts"]
        if not (all(type(columns[name]) is list
                    and len(columns[name]) == rows
                    for name in _SNAPSHOT_LISTS)
                and _only(columns["keys"], str)
                and _only(columns["case_ids"], str)
                and _only(columns["elapsed"], (int, float))
                and _only(columns["flags"], bool)
                and all(_only(columns[name], _SCALARS) for name in _AXES
                        if name != "noi_overrides")
                and type(overrides) is list and type(texts) is list
                and len(texts) == len(overrides) and _only(texts, str)
                and all(_pairs_ok(pairs) and repr(pairs) == text
                        for text, pairs in zip(texts, overrides)
                        if text not in known)):
            return None
        starts, ends, codes = np.frombuffer(
            raw, "<i8", 3 * rows, cut + 1).reshape(3, rows)
        if rows and not (starts.min() >= 0 and ends.max() <= covered
                         and (starts <= ends).all() and codes.min() >= 0
                         and codes.max() < len(overrides)):
            return None
        matrix = np.frombuffer(raw, "<f8", rows * len(names), offset)
    except (ValueError, KeyError, TypeError, IndexError, OverflowError):
        return None
    columns.update(starts=starts.tolist(), ends=ends.tolist(),
                   codes=codes.tolist())
    return (covered, crc, names,
            matrix.astype(np.float64).reshape(len(names), rows),
            columns, texts, overrides)


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


def _case_ids(axes: Mapping[str, list], ids: List[str]) -> List[str]:
    """:func:`~repro.eval.sweeps.case_id_of` of each record whose case
    axes are ``axes`` (per-axis lists, overrides as codes into ``ids``,
    each code's :func:`~repro.eval.sweeps.overrides_id`)."""
    return list(map(str.__add__, map(
        CASE_ID_HEAD.format, axes["arch"], axes["num_chiplets"],
        axes["workload"], axes["seed"]), map(ids.__getitem__,
                                             axes["noi_overrides"])))


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
    raises, which rejects the chunk too.  Returns ``(keys, metrics,
    elapsed, flags, axes, texts, lists)``: ``axes`` maps each
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
        if not _only(elapsed, float):
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
    flags = list(map(bool, map(dict.get, records, repeat("arrays"))))
    return keys, metrics, elapsed, flags, axes, texts, lists


def _float_column(values: list) -> np.ndarray:
    """:func:`finite_float` of each of ``values`` as float64, NaN for
    ``None``: one bulk conversion when every value is a number or
    ``None`` (numpy rounds integers as ``float`` does), else value by
    value."""
    if _only(values, (int, float, type(None))):
        try:
            column = np.array(values, np.float64)
        except OverflowError:  # an int too large for a float
            pass
        else:
            column[~np.isfinite(column)] = np.nan
            return column
    return np.array(list(map(finite_float, values)), np.float64)


class _Positions:
    """The flat lists a store's index is made of, one entry per position.

    Position ``p`` holds one record: ``lines[p]`` its raw JSONL line
    (decoded again only on demand, :meth:`record`), ``keys[p]``,
    ``case_ids[p]``, ``metrics[p]`` (the decoded metrics dict, or
    ``None`` for a record loaded from an index snapshot, whose metric
    values sit in row ``rows[p]`` of the snapshot metric data --
    ``rows[p]`` is ``-1`` otherwise), ``elapsed[p]``, ``flags[p]``
    (whether it has an array payload), ``starts[p]`` (the line's byte
    offset in its shard, ``-1`` for a line this instance put; like
    ``rows``, an int64 ``array``) and, per
    case axis, ``axes[axis][p]``: the scalar value, or for
    ``noi_overrides`` a code into ``overrides``, the distinct override
    lists as tuples of pairs.  Bytes, strings, numbers, a dict of
    numbers and the float64 arrays of the snapshot metric data are all
    untracked by the garbage collector, so an index of any size adds
    only a few dozen tracked objects, and nothing here refers to the
    store.
    """

    __slots__ = ("lines", "keys", "case_ids", "metrics", "elapsed", "flags",
                 "starts", "rows", "axes", "overrides", "texts", "ids",
                 "codes",
                 "metric_rows", "_parts", "_stacked")

    def __init__(self) -> None:
        self.lines: List[bytes] = []
        self.keys: List[str] = []
        self.case_ids: List[str] = []
        self.metrics: List[Optional[dict]] = []
        self.elapsed: List[float] = []
        self.flags: List[bool] = []
        self.starts = array("q")
        self.rows = array("q")
        self.axes: Dict[str, list] = {name: [] for name in _AXES}
        self.overrides: List[tuple] = []
        #: The interning key of each distinct override list: the
        #: ``repr`` of its JSON value.
        self.texts: List[str] = []
        #: The ``case_id`` part of each distinct override list
        #: (:func:`~repro.eval.sweeps.overrides_id`).
        self.ids: List[str] = []
        #: Code of each distinct override list, by its ``repr``:
        #: unlike the lists themselves, the keys tell ``8`` from ``8.0``.
        self.codes: Dict[str, int] = {}
        #: Rows of snapshot metric data loaded so far.
        self.metric_rows = 0
        #: ``(first row, values)`` parts of each metric's snapshot data.
        self._parts: Dict[str, List[Tuple[int, np.ndarray]]] = {}
        #: Each metric's parts joined over all rows, as last joined.
        self._stacked: Dict[str, np.ndarray] = {}

    def columns(self) -> List[list]:
        """Every per-position list, in :meth:`ResultStore._place`'s
        chunk order."""
        return [self.lines, self.keys, self.case_ids, self.metrics,
                self.elapsed, self.flags, self.starts, self.rows,
                *self.axes.values()]

    def intern(self, texts: list, lists: dict) -> List[int]:
        """The override codes of ``texts``, interning keys of override
        lists; ``lists`` maps each distinct key to its list, which
        becomes a distinct value the first time its key is seen."""
        codes = self.codes
        for text, pairs in lists.items():
            if text not in codes:
                codes[text] = len(self.overrides)
                self.overrides.append(_frozen(pairs))
                self.texts.append(text)
                self.ids.append(overrides_id(pairs))
        return list(map(codes.__getitem__, texts))

    def add_metrics(self, names: List[str], matrix: np.ndarray) -> int:
        """Append snapshot metric data -- row ``i`` of ``matrix`` holds
        metric ``names[i]`` of each record -- and return the snapshot
        row of its first record."""
        first = self.metric_rows
        for name, values in zip(names, matrix):
            self._parts.setdefault(name, []).append((first, values))
        self.metric_rows += matrix.shape[1]
        return first

    def metric_names(self) -> List[str]:
        """Every metric name in the snapshot metric data."""
        return list(self._parts)

    def snapshot_metric(self, name: str) -> np.ndarray:
        """Metric ``name`` of every snapshot row, NaN where missing."""
        column = self._stacked.get(name)
        if column is None or len(column) != self.metric_rows:
            column = np.full(self.metric_rows, np.nan)
            for first, values in self._parts.get(name, ()):
                column[first:first + len(values)] = values
            self._stacked[name] = column
        return column

    def select(self, keep: List[int]) -> "_Positions":
        """A copy holding only positions ``keep``, renumbered in order;
        the interned override lists and snapshot metric data are
        shared."""
        out = _Positions()
        out.overrides, out.texts, out.ids, out.codes = (
            self.overrides, self.texts, self.ids, self.codes)
        out.metric_rows, out._parts = self.metric_rows, self._parts
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
        table = self._positions
        done = len(column)
        if len(table.keys) > done:
            # Snapshot rows hold finite_float of the stored values
            # already; decoded records convert their metrics dicts.
            rows = np.array(table.rows[done:], np.int64)
            fresh = np.full(len(rows), np.nan)
            held = rows >= 0
            if held.any():
                fresh[held] = table.snapshot_metric(name)[rows[held]]
            decoded = np.flatnonzero(~held)
            if len(decoded):
                dicts = (table.metrics[done:] if len(decoded) == len(rows)
                         else [table.metrics[done + i]
                               for i in decoded.tolist()])
                fresh[decoded] = _float_column(
                    list(map(dict.get, dicts, repeat(name))))
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
        reader decoded does.  Its metrics dict is the stored one (decoded
        from the line for a record loaded from a snapshot); treat it as
        read-only."""
        table = self._positions
        axes = table.axes
        case = {name: axes[name][pos] for name in _AXES}
        case["noi_overrides"] = [
            list(pair) for pair in table.overrides[case["noi_overrides"]]]
        metrics = table.metrics[pos]
        if metrics is None:
            metrics = table.record(pos)["metrics"]
        return {"k": table.keys[pos], "case": case, "metrics": metrics,
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

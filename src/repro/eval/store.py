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
* ``index.idx`` -- the store's index snapshot: what the index holds
  after reading each covered shard's first N bytes, with N and the
  crc32 of those bytes per shard.  A handle's first full read
  (:meth:`ResultStore.columns`, enumeration) uses it for every shard
  it has not read yet whose first N bytes still have that crc32, and
  decodes only the lines past them; a shard that fails the check is
  decoded in full, and a snapshot of another format counts as absent.
  :meth:`ResultStore.columns` writes it, by temp file and
  ``os.replace``, once the bytes the handle decoded itself reach what
  the snapshot it last loaded or wrote covered (any bytes, if none) --
  so rewrites of a growing store are amortised, and a handle that only
  reads back its own puts writes none.  A failed write (a read-only
  directory) is ignored.  The snapshot holds JSON and raw little-endian
  numbers only, never pickles, so loading one runs no code.
* ``arrays/<key>.npz`` -- array-valued payloads (thermal tier maps and
  the like), written to a temp file and ``os.replace``d into place so a
  reader never observes a partial archive.

A record counts only in its own shard, the one :meth:`ResultStore.put`
writes it to (``shard-`` plus the key's first two characters): a line
whose key belongs to another shard is skipped like a malformed record,
so every view and every handle agree whatever the order they read the
shards in.  Duplicate keys resolve last-writer-wins.  Failed
evaluations are never stored: a crashed case must be re-attempted on
the next run, not replayed from cache.

In memory, a :class:`ResultStore` keeps its records in flat
per-position lists (:class:`_Positions`): each record's key,
``case_id``, elapsed time, arrays flag, case axes (override lists
interned into codes) and its line's offsets in its shard, and one
float64 column per metric name.  None of these is a container the
garbage collector tracks, so a big index costs the collector nothing
and survives no collection it would not; records are read back from
their lines (``os.pread``) on demand, and a line must carry its key
(:meth:`ResultStore.retrying`).  The column cache
(:class:`RecordColumns`) reads the same lists and columns, and nothing
refers back to the store, so a dropped store is freed by reference
counting alone.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import operator
import os
import tempfile
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
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

#: Decoded records a read prepares for the index at once, across
#: shards, before their metrics become float64 columns: enough to
#: spread the fixed cost of a :func:`_fields` pass over many small
#: shard tails, few enough that a full decode never holds many more
#: record or metrics dicts than this at a time.
_PREPARE_BATCH = 1024

#: Bump when the index snapshot's layout or meaning changes -- also when
#: :func:`_fields` or :func:`~repro.eval.sweeps.case_id_of` would index
#: the same lines differently.  A snapshot of any other format (which
#: also names :data:`STORE_SCHEMA_VERSION` and ``repro.__version__``)
#: counts as absent.
SNAPSHOT_VERSION = 2


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
    #: Shard files actually opened and read -- the (mtime, size) guard
    #: keeps this flat across repeated queries over a quiescent store,
    #: which is what lets a service answer hot queries at memory speed.
    #: Reading the index snapshot is not counted.
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
    stable position as its key, its ``case_id``, its elapsed time, its
    arrays flag, its scalar case axes, one interned code for its
    overrides, its line's offsets in its shard and one entry in each
    metric's float64 column -- no per-record container the garbage
    collector tracks.  :meth:`get` and :meth:`iter_records` read
    records' lines by ``os.pread`` and decode them on demand.  On top
    sit the ``(case_id, key)`` order of the positions
    (enumeration and queries never sort) and a lazily built
    :class:`RecordColumns` cache for the query layer
    (:meth:`columns`).  Nothing the store holds refers back to it, so
    a dropped store is freed by reference counting alone.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The root as a ``str`` ending in a separator: the per-query
        #: refresh guard stats each shard by ``self._dir + name``.
        self._dir = os.path.join(self.root, "")
        self._arrays_dir = self.root / "arrays"
        self._snapshot_path = self.root / "index.idx"
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
        #: Every indexed position in ``(case_id, key)`` order as of the
        #: last merge, an int64 array; enumeration and the column cache
        #: walk it, so queries never sort.
        self._perm = np.empty(0, np.int64)
        #: Positions indexed since the last merge, not yet in ``_perm``.
        self._pending: List[int] = []
        #: Set when an indexed record's case_id changed or a shard was
        #: rewritten: ``_perm`` may be out of order and is rebuilt.
        self._stale = False
        #: Lazily built :class:`RecordColumns`; dropped when a record
        #: changes in place or positions are compacted.
        self._columns: Optional[RecordColumns] = None
        #: ``(records, starts, ends)`` this instance put and has not
        #: indexed yet, with their lines' offsets; :meth:`_refresh`
        #: indexes them, in one chunk, before it reads anything.
        self._puts: Tuple[list, list, list] = ([], [], [])
        #: ``(bytes, crc32)`` of each shard's prefix this instance read
        #: or put itself (or took from a verified snapshot); it only
        #: describes the shard while ``bytes`` equals the consumed
        #: offset.
        self._crc: Dict[str, Tuple[int, int]] = {}
        #: Bytes the snapshot this instance last loaded or wrote
        #: covered (0 for none), and the bytes it decoded itself since.
        self._covered = 0
        self._decoded = 0

    # -- keys and paths ----------------------------------------------------

    def _shard_path(self, key: str) -> Path:
        return self.root / _shard_name(key)

    def _npz_path(self, key: str) -> Path:
        return _npz_file(self._arrays_dir, key)

    # -- reading -----------------------------------------------------------

    def _changed(self, name: str
                 ) -> Optional[Tuple[str, Tuple[int, int], int, int]]:
        """``(name, signature, consumed, size)`` if shard file ``name``
        holds bytes past what was consumed of it, else ``None``.

        Guarded by an ``(st_mtime_ns, st_size)`` signature: a shard
        whose signature matches the last read has not been touched by
        any appender, so this returns after the single ``stat`` -- no
        open, no read.  This also covers a torn tail (bytes past the
        last newline): re-reading it before the writer finishes the
        line cannot yield anything new, and the finishing append
        changes the signature.  A shard *shorter* than the consumed
        offset was rewritten out from under us (an external compaction
        or restore-from-backup), and so was one whose signature changed
        while its size stayed at the consumed offset (appends grow it;
        :meth:`put` forgets the signature of a shard it appends to
        directly): its indexed records are dropped and the file is read
        again from the start.  The file is named by a ``str`` path, so
        the guard builds no ``Path`` per shard.
        """
        try:
            stat = os.stat(self._dir + name)
        except FileNotFoundError:
            return None
        sig = (stat.st_mtime_ns, stat.st_size)
        if self._sig.get(name) == sig:
            return None
        consumed = self._consumed.get(name, 0)
        size = stat.st_size
        if size < consumed or (size == consumed and name in self._sig):
            self._forget(name)
            consumed = 0
        if size == consumed:
            self._sig[name] = sig
            self._consumed[name] = consumed
            return None
        return name, sig, consumed, size

    def _forget(self, name: str) -> None:
        """Drop every record shard file ``name`` contributed (every key
        it holds names it), so that it is read again from offset 0."""
        prefix = _prefix(name)
        keep = [pos for pos, key in enumerate(self._positions.keys)
                if key[:2] != prefix]
        self._positions = self._positions.select(keep)
        self._pos = dict(zip(self._positions.keys, range(len(keep))))
        self._pending.clear()
        self._stale = True
        self._columns = None
        self._consumed[name] = 0
        self._sig.pop(name, None)

    def retrying(self, read):
        """``read()``, run once more after indexing again, from offset
        0, the shards a :class:`StaleIndexError` it raises names;
        ``read`` must look its positions up afresh, as that renumbers
        them."""
        try:
            return read()
        except StaleIndexError as stale:
            for name in stale.shards:
                self._forget(name)
            self._refresh(stale.shards)
        return read()

    def _read(self, name: str, sig: Tuple[int, int], consumed: int,
              size: int) -> bytes:
        """The bytes of shard file ``name`` from offset ``consumed`` up
        to ``size`` (see :meth:`_changed`)."""
        with open(self._dir + name, "rb") as fh:
            fh.seek(consumed)
            chunk = fh.read(size - consumed)
        self.stats.shard_reads += 1
        self._sig[name] = sig
        return chunk

    def _tail(self, name: str, consumed: int, chunk: bytes, skip: int = 0,
              crc: int = 0) -> Optional[list]:
        """Consume ``chunk``, the bytes of shard ``name`` from offset
        ``consumed``, and decode its complete lines past its first
        ``skip`` bytes (which a snapshot covered, their crc32 ``crc``).

        Returns the decoded ``(records, starts, ends, prefixes)`` --
        :meth:`_prepare` arguments, the shard's key prefix once per
        record -- or ``None`` if there were none.  Never consumes past
        the last
        newline: the tail may be a line another process is mid-append
        on; it is re-read (from the same offset) once a later append
        moves the signature.  A snapshot always ends on a newline, so
        ``end >= skip``.
        """
        end = chunk.rfind(b"\n") + 1
        if consumed:
            known = self._crc.get(name)
            crc = known[1] if known and known[0] == consumed else None
        self._consumed[name] = consumed + end
        if crc is not None:
            self._crc[name] = (consumed + end, zlib.crc32(
                memoryview(chunk)[skip:end], crc))
        if end == skip:
            return None
        self._decoded += end - skip
        records, starts, ends = _decode_lines(chunk[skip:end],
                                              consumed + skip)
        return records, starts, ends, [_prefix(name)] * len(records)

    def _prepare(self, records: list, starts: List[int], ends: List[int],
                 prefixes: Optional[List[str]] = None
                 ) -> Tuple[list, Dict[str, np.ndarray]]:
        """``records`` as :meth:`_place` arguments: one list per
        :class:`_Positions` list, in :meth:`_Positions.columns` order,
        and their metrics as one float64 column per metric name
        (:func:`_float_column`); ``starts`` and ``ends`` are their
        lines' byte offsets in their shards and ``prefixes`` the key
        prefix of each one's shard (``None``: each record's own, as for
        puts).

        Records that are not well formed (:func:`_fields`), or whose key
        belongs to another shard, are skipped, like corrupt lines.  Each
        record's ``case_id`` is ``case_id_of`` of its own case, built in
        bulk: the override part once per distinct override list.
        """
        fields = _fields(records, prefixes)
        if fields is None:
            own = (repeat(None) if prefixes is None
                   else ([prefix] for prefix in prefixes))
            keep = [i for i, (record, prefix) in enumerate(zip(records, own))
                    if _fields([record], prefix) is not None]
            starts = [starts[i] for i in keep]
            ends = [ends[i] for i in keep]
            fields = _fields([records[i] for i in keep], None
                             if prefixes is None else [prefixes[i]
                                                       for i in keep])
        keys, metrics, elapsed, flags, axes, texts, lists = fields
        table = self._positions
        axes["noi_overrides"] = table.intern(texts, lists)
        case_ids = _case_ids(axes, table.ids)
        return [keys, case_ids, elapsed, flags, array("q", starts),
                array("q", ends), *axes.values()], {
                    name: _float_column(list(map(dict.get, metrics,
                                                 repeat(name))))
                    for name in set().union(*metrics)}

    def _place(self, chunk: list, metrics: Dict[str, np.ndarray],
               ordered: bool = False) -> None:
        """Put a chunk of records -- one list per :class:`_Positions`
        list, in :meth:`_Positions.columns` order, and one float64
        column per metric name -- into the index, last writer wins.

        A new key takes the next position and waits on ``_pending`` for
        the next :meth:`_merge` -- unless the index was empty and the
        chunk comes ``ordered`` (in ``(case_id, key)`` order, as a
        snapshot's records do): then the chunk's order is the order.
        A known key keeps its position; if its line is not at the same
        offsets and its bytes differ (read by ``os.pread``; so ``-0.0``
        differs from ``0.0`` and ``8`` from ``8.0``) the column cache is
        dropped, and if its case_id changed (same key, overrides
        reordered) the order is stale.  Re-reading a line this instance
        put itself changes nothing.
        """
        keys, case_ids = chunk[:2]
        starts, ends = chunk[4:6]
        table = self._positions
        pos = self._pos
        start = len(table.keys)
        if len(set(keys)) == len(keys) and pos.keys().isdisjoint(keys):
            pos.update(zip(keys, range(start, start + len(keys))))
            if ordered and not start:
                self._perm = np.arange(len(keys), dtype=np.int64)
                self._stale = False
            else:
                self._pending.extend(range(start, start + len(keys)))
            for column, new in zip(table.columns(), chunk):
                column.extend(new)
            table.set_metrics(slice(start, start + len(keys)), metrics,
                              slice(None))
            return
        placed = {}  # slot -> the chunk entry that last set it
        for i, key in enumerate(keys):
            slot = pos.get(key)
            if slot is None:
                slot = pos[key] = len(table.keys)
                self._pending.append(slot)
                for column, new in zip(table.columns(), chunk):
                    column.append(new[i])
            elif (table.starts[slot], table.ends[slot]) != (
                    starts[i], ends[i]) and operator.ne(*_read_spans(
                        self._dir, [(key[:2], table.starts[slot],
                                     table.ends[slot]),
                                    (key[:2], starts[i], ends[i])])):
                self._columns = None
                self._stale |= table.case_ids[slot] != case_ids[i]
                for column, new in zip(table.columns(), chunk):
                    column[slot] = new[i]
            else:
                continue
            placed[slot] = i
        table.set_metrics(list(placed), metrics, list(placed.values()))

    def _merge(self) -> None:
        """Fold pending positions into the ``(case_id, key)`` order.

        Only the pending positions are sorted, as ``(case_id, key,
        position)`` tuples; ``np.searchsorted`` over the ordered case
        ids then finds where each goes, and a pending record whose
        case id is already there goes among the records of that case
        id by key.  A stale order is rebuilt from every position.
        ``case_id`` was computed when each record was indexed.
        """
        if not (self._stale or self._pending):
            return
        table = self._positions
        ids, keys = table.case_ids, table.keys
        perm, new = self._perm, self._pending
        everything = self._stale or not len(perm)  # every position is new
        order = sorted(zip(ids, keys, range(len(keys))) if everything
                       else zip(map(ids.__getitem__, new),
                                map(keys.__getitem__, new), new))
        added = np.fromiter(map(itemgetter(2), order), np.int64, len(order))
        if everything:
            perm = added
        else:
            have = _objects(ids)[perm]
            want = _objects(list(map(itemgetter(0), order)))
            at = np.searchsorted(have, want)
            inside = np.flatnonzero(at < len(have))
            for i in inside[have[at[inside]] == want[inside]].tolist():
                lo = int(at[i])
                hi = int(np.searchsorted(have, want[i], side="right"))
                at[i] = lo + bisect_left(
                    list(map(keys.__getitem__, perm[lo:hi].tolist())),
                    order[i][1])
            perm = np.insert(perm, at, added)
        self._perm = perm
        self._stale = False
        self._pending.clear()

    def _index_puts(self) -> None:
        """Index the records this instance put, in one chunk.

        A put only writes its line and keeps its record (:meth:`put`),
        so a handle that only writes never indexes, and one that reads
        after many puts indexes them together.  Every read indexes them
        first: they precede every line still unread.
        """
        puts = self._puts
        if puts[0]:
            self._puts = ([], [], [])
            self._place(*self._prepare(*puts))

    def _refresh(self, shards: Iterable[str],
                 use_snapshot: bool = False) -> None:
        """Index this instance's puts, then the new lines of each of
        ``shards`` (shard file names): every read of the index comes
        through here.

        Every shard with new bytes is read, in the order given, before
        anything is placed.  With ``use_snapshot`` (a full read,
        :meth:`_refresh_all`) and some shard read from offset 0, the
        index snapshot is loaded (:func:`_load_snapshot`): each shard
        read from offset 0 whose first N bytes have the crc32 the
        snapshot records takes the snapshot's records of it, and only
        its lines past N are decoded.  Every other shard is decoded
        from where it was left, and its records are prepared
        (:meth:`_prepare`) together with other shards' until a batch
        holds :data:`_PREPARE_BATCH` or more.  The snapshot's records
        go into the index first, in one chunk, in ``(case_id, key)``
        order -- into an empty index that is the order, so
        :meth:`_merge` sorts only what follows -- and then the batches,
        shard by shard.  A key counts only in its own shard, so that
        equals taking each shard's snapshot records and then its lines,
        shard by shard.
        """
        self._index_puts()
        todo = [todo for todo in map(self._changed, shards)
                if todo is not None]
        snapshot = None
        if use_snapshot and any(consumed == 0 for _, _, consumed, _ in todo):
            snapshot = _load_snapshot(self._snapshot_path,
                                      self._positions.codes)
        if snapshot is not None:
            self._covered, self._decoded = snapshot.covered, 0
        held, tails, batch = [], [], ([], [], [], [])
        for name, sig, consumed, size in todo:
            chunk = self._read(name, sig, consumed, size)
            skip = crc = 0
            if consumed == 0 and snapshot is not None:
                rows, skip, crc = snapshot.cut(name, chunk)
                held.append(rows)
            tail = self._tail(name, consumed, chunk, skip, crc)
            if tail is not None:
                for part, new in zip(batch, tail):
                    part += new
                if len(batch[0]) >= _PREPARE_BATCH:
                    tails.append(self._prepare(*batch))
                    batch = ([], [], [], [])
        if batch[0]:
            tails.append(self._prepare(*batch))
        rows = np.concatenate(held) if held else ()
        if len(rows):
            if len(rows) < snapshot.rows:
                rows.sort()
            self._place(*snapshot.records(self._positions, rows),
                        ordered=True)
        for tail in tails:
            self._place(*tail)

    def _refresh_all(self) -> None:
        """Index the new lines of every shard, using the snapshot."""
        # Names sorted as strings: sorting a glob's Path objects costs
        # about as much as the per-shard stat calls themselves.
        names = sorted(os.listdir(self._dir))
        self._refresh([name for name in names if name.startswith("shard-")
                       and name.endswith(".jsonl")], use_snapshot=True)

    # -- the index snapshot ------------------------------------------------

    def _write_snapshot(self) -> None:
        """Publish the index snapshot of every shard this instance can
        describe exactly: its crc covers all it consumed, and no record
        of the shard has a newline in its key or ``case_id``.  Its own
        puts count like any line it read: each has its line's offsets
        (:meth:`put`), and a full read consumes every shard past them.
        Records go in ``(case_id, key)`` order, the order of ``_perm``,
        with the line offsets and metric values of the index's columns.
        The next write waits until as many bytes again are decoded, also
        if this one fails."""
        self._covered = self._decoded = 0
        names = sorted(name for name, (size, _) in self._crc.items()
                       if size == self._consumed.get(name) and size > 0)
        if not names:
            return
        table = self._positions
        keys, case_ids = table.keys, table.case_ids
        number = dict(zip(map(_prefix, names), range(len(names))))
        shard = np.fromiter(map(number.get, map(itemgetter(slice(2)), keys),
                                repeat(-1)), np.int64, len(keys))
        newline = [pos for pos, (key, case_id) in enumerate(zip(
            keys, case_ids)) if "\n" in key or "\n" in case_id]
        bad = set(shard[newline].tolist())
        shard[np.isin(shard, list(bad))] = -1
        rows = self._perm[shard[self._perm] >= 0]
        picked = rows.tolist()
        kept = [i for i in range(len(names)) if i not in bad]
        if not kept:
            return
        renumber = np.full(len(names), -1, np.int64)
        renumber[kept] = np.arange(len(kept))
        ints = np.empty((3 + len(_CODED), len(picked)), "<i8")
        ints[0] = renumber[shard[rows]]
        ints[1] = np.array(table.starts, np.int64)[rows]
        ints[2] = np.array(table.ends, np.int64)[rows]
        header = {}
        for i, name in enumerate(_CODED, 3):
            column = (table.axes[name] if name in table.axes
                      else getattr(table, name))
            ints[i], header[name] = _distinct(
                list(map(column.__getitem__, picked)))
        distinct = header["noi_overrides"]
        header["noi_overrides"] = [table.overrides[c] for c in distinct]
        header["texts"] = [table.texts[c] for c in distinct]
        metrics = sorted(table.floats)
        matrix = np.empty((len(metrics), len(picked)), "<f8")
        for i, name in enumerate(metrics):
            matrix[i] = table.floats[name][rows]
        held = ~np.isnan(matrix).all(axis=1)
        header.update(
            format=_snapshot_format(), rows=len(picked),
            shards=[[names[i], *self._crc[names[i]]] for i in kept],
            metrics=[name for name, keep in zip(metrics, held) if keep])
        blocks = [json.dumps(header, separators=(",", ":")).encode("utf-8"),
                  b"\n", ints, matrix if held.all() else matrix[held]]
        del ints, matrix

        def parts():
            # Each part is dropped once written, so the big ones never
            # sit in memory together.
            while blocks:
                yield blocks.pop(0)
            for column in (keys, case_ids):
                if picked:
                    yield "\n".join(map(column.__getitem__, picked)).encode(
                        "utf-8", "surrogatepass")
                    yield b"\n"

        self._covered = sum(self._crc[names[i]][0] for i in kept)
        try:
            _publish(self._snapshot_path, methodcaller("writelines", parts()))
        except OSError:  # a read-only directory still answers
            pass

    def _peek(self, key: str) -> Optional[int]:
        """Position of the complete record for ``key`` or ``None``,
        after reading its shard's new lines; never touches stats."""
        self._refresh([_shard_name(key)])
        return self._found(key)

    def _found(self, key: str) -> Optional[int]:
        """Position of the complete record for ``key`` in the index as
        it is, or ``None``.

        "Complete" includes the array payload: a record whose flagged
        ``.npz`` is absent (crash between the two writes) is treated as
        missing, so ``has``/``__contains__`` never disagree with
        ``get``.
        """
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
        def read() -> Optional[SweepResult]:
            pos = self._peek(key)
            return None if pos is None else self._result_from(
                key, _read_records(self._dir, self._positions, [pos])[0],
                case)

        result = self.retrying(read)
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
        counters that describe sweep behaviour.  Each shard of ``keys``
        is read once, before any key is looked up.
        """
        keys = list(keys)
        self._refresh(map(_shard_name, sorted(set(map(
            itemgetter(slice(2)), keys)))))
        return frozenset(key for key in keys if self._found(key) is None)

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
            self._columns = RecordColumns(self._positions, self._dir)
        self._columns.perm = self._perm
        if self._decoded >= max(self._covered, 1):
            self._write_snapshot()
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
        record, when the record is first indexed.  Every record is
        read and decoded when the enumeration starts
        (:func:`_read_records`: each shard read once, one
        ``json.loads``), each a fresh dict (scalar metrics, case axes,
        an ``arrays`` flag) the caller may keep or change; a line
        without its key has its shard indexed again and the read
        retried once (:meth:`retrying`).  Stats-neutral, like
        :meth:`iter_results`.
        """
        def read() -> Tuple[List[str], List[dict]]:
            complete = self._complete()
            return (list(map(self._positions.keys.__getitem__, complete)),
                    _read_records(self._dir, self._positions, complete))

        return zip(*self.retrying(read))

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
        """Persist one successful result; errors are never cached.

        The line goes out in one ``O_APPEND`` write; the handle keeps
        the record and its line's offsets (the end ``os.lseek`` reads,
        less the bytes written), so its next read indexes it undecoded
        and a snapshot can cover its shard."""
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
            # A copy: the next read indexes this dict, and the caller's
            # may change before it.
            "metrics": dict(result.metrics),
            "elapsed_s": result.elapsed_s,
            "arrays": bool(result.arrays),
        }
        if result.arrays:
            self._write_npz(key, result.arrays)
        line = json.dumps(record, separators=(",", ":")).encode("utf-8")
        line += b"\n"
        name = _shard_name(key)
        fd = os.open(self._dir + name, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            written = os.write(fd, line)
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        start = end - written
        # Only a whole line is indexed, at its offsets.  If it directly
        # follows what this instance has read of the shard, it counts
        # as read (its bytes extend the shard's crc32) and is never
        # decoded.  Otherwise the next read meets it again after the
        # lines before it, which keeps last-writer-wins in file order.
        if written == len(line):
            for part, value in zip(self._puts, (record, start, end - 1)):
                part.append(value)
            if start == self._consumed.get(name, 0):
                self._consumed[name] = end
                self._sig.pop(name, None)
                size, crc = self._crc.get(name, (0, 0))
                if size == start:
                    self._crc[name] = (end, zlib.crc32(line, crc))
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


def _shard_name(key: str) -> str:
    """The name of the shard file :meth:`ResultStore.put` writes ``key``
    to."""
    return f"shard-{key[:2]}.jsonl"


def _prefix(name: str) -> str:
    """The key prefix of shard file ``name``: what :meth:`ResultStore.put`
    puts between ``shard-`` and ``.jsonl``, the first two characters of
    every key the shard holds."""
    return name[len("shard-"):-len(".jsonl")]


def _decode_lines(data: bytes, offset: int = 0
                  ) -> Tuple[list, List[int], List[int]]:
    """The JSON values of ``data``'s non-blank lines that decode, and
    the byte offsets in its shard where each such line starts and ends,
    where ``data`` starts at ``offset``.

    Lines are what ``bytes.splitlines`` makes of ``data``: a newline, a
    carriage return or both end one, and its end offset is where its
    terminator starts.  One ``json.loads`` over the lines joined into a
    JSON array decodes a whole chunk at once.  If that raises (a
    corrupt or blank line) or yields a different number of values than
    there are lines (a line holding two values), each non-blank line is
    decoded on its own and the ones that fail are skipped -- torn or
    corrupt, last writer wins anyway.
    """
    if b"\r" in data:
        pieces = data.splitlines(True)
        lines = [piece.rstrip(b"\r\n") for piece in pieces]
        sizes = np.fromiter(map(len, pieces), np.int64, len(pieces))
        lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    else:
        lines = data.splitlines()
        lengths = np.fromiter(map(len, lines), np.int64, len(lines))
        sizes = lengths + 1
    starts = np.cumsum(sizes) - sizes + offset
    ends = (starts + lengths).tolist()
    starts = starts.tolist()
    try:
        values = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:
        values = None
    if values is not None and len(values) == len(lines):
        return values, starts, ends
    values = list(map(_loads, lines))
    kept = [i for i, value in enumerate(values) if value is not None]
    return ([values[i] for i in kept], [starts[i] for i in kept],
            [ends[i] for i in kept])


def _loads(line: bytes) -> object:
    """The JSON value of ``line``, or ``None`` if it does not decode
    (a blank line does not)."""
    try:
        return json.loads(line)
    except ValueError:
        return None


class StaleIndexError(RuntimeError):
    """A line read at a record's indexed offsets does not carry its
    key: shard files ``shards`` changed since they were indexed."""

    def __init__(self, shards: List[str]) -> None:
        super().__init__(f"changed since indexed: {', '.join(shards)}")
        self.shards = shards


def _read_spans(directory: str, spans: List[Tuple[str, int, int]]
                ) -> List[bytes]:
    """The bytes of each of ``spans`` (key prefix of a shard in
    ``directory``, start and end offset), read by ``os.pread``: each
    shard once, from its first span's start to its last span's end,
    shards in name order.  Empty where the file is gone or ends first."""
    out = [b""] * len(spans)
    last: Dict[str, int] = {}
    for prefix, _, end in spans:
        if last.get(prefix, -1) < end:
            last[prefix] = end
    name = data = None
    first = 0
    for i in sorted(range(len(spans)), key=spans.__getitem__):
        prefix, start, end = spans[i]
        if prefix != name:
            name, first, data = prefix, start, b""
            try:
                fd = os.open(directory + _shard_name(prefix), os.O_RDONLY)
            except FileNotFoundError:
                pass
            else:
                try:
                    data = os.pread(fd, last[prefix] - start, start)
                finally:
                    os.close(fd)
        out[i] = data[start - first:end - first]
    return out


def _read_records(directory: str, table: "_Positions",
                  positions: List[int]) -> List[dict]:
    """The records at ``positions``, decoded from their lines
    (:func:`_read_spans`) with one ``json.loads`` of them joined into a
    JSON array, or one by one if that fails.  Raises
    :class:`StaleIndexError` if a line does not carry its key."""
    keys = list(map(table.keys.__getitem__, positions))
    lines = _read_spans(directory, [
        (key[:2], table.starts[pos], table.ends[pos])
        for key, pos in zip(keys, positions)])
    try:
        records = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError:
        records = None
    if records is None or len(records) != len(lines):
        records = list(map(_loads, lines))
    stale = {_shard_name(key) for key, record in zip(keys, records)
             if type(record) is not dict or record.get("k") != key}
    if stale:
        raise StaleIndexError(sorted(stale))
    return records


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


def _snapshot_format() -> str:
    """The format the index snapshot must name to be read."""
    from .. import __version__ as code_version

    return f"{SNAPSHOT_VERSION}/{STORE_SCHEMA_VERSION}/{code_version}"


#: The per-record columns the index snapshot holds as codes into
#: distinct values listed in its header, in block order.
_CODED = ("elapsed", "flags", *_AXES)


def _distinct(values: list) -> Tuple[list, list]:
    """``(codes, distinct)`` with ``distinct[codes[i]]`` identical to
    ``values[i]``: ``1``, ``1.0`` and ``True`` stay apart, and so do
    ``0.0`` and ``-0.0``."""
    kinds = set(map(type, values))
    if kinds == {float}:  # one value per bit pattern
        bits, codes = np.unique(np.array(values, np.float64).view(np.int64),
                                return_inverse=True)
        return codes.ravel(), bits.view(np.float64).tolist()
    keys = (values if len(kinds) == 1 and kinds <= {str, int, bool, type(None)}
            else list(map(repr, values)))
    first = dict(zip(keys, values))
    index = dict(zip(first, range(len(first))))
    return list(map(index.__getitem__, keys)), list(first.values())


def _objects(values: list) -> np.ndarray:
    """``values`` as a one-dimensional object array."""
    out = np.empty(len(values), object)
    out[:] = values
    return out


def _at(distinct: list, codes: np.ndarray) -> list:
    """``distinct[code]`` for each of ``codes``."""
    return _objects(distinct)[codes].tolist()


class _Snapshot:
    """A parsed index snapshot (:func:`_load_snapshot`).

    ``shards`` maps each covered shard's name to ``(number, covered
    bytes, their crc32)``; ``covered`` is their total.  Row ``r`` is one
    record, rows in ``(case_id, key)`` order: its shard number, line
    start and line end are ``ints[0:3, r]``, and its code into
    ``values[name]`` of each of :data:`_CODED` is ``ints[3 + i, r]``
    (``values["noi_overrides"]`` holds the distinct override lists,
    ``texts`` their interning keys).  ``matrix[m, r]`` is metric
    ``names[m]`` as :func:`finite_float` makes it, NaN where missing,
    and ``keys[r]``, ``case_ids[r]`` are the record's key and case id.
    ``order`` lists the rows shard by shard; shard ``s`` has entries
    ``bounds[s]`` to ``bounds[s + 1]``.
    """

    __slots__ = ("shards", "covered", "rows", "ints", "values", "texts",
                 "names", "matrix", "keys", "case_ids", "order", "bounds")

    def cut(self, name: str, data: bytes) -> Tuple[np.ndarray, int, int]:
        """``(rows, covered bytes, their crc32)`` of shard ``name`` if
        the snapshot is valid for ``data``, its bytes from offset 0 --
        ``rows`` an int64 array, ascending -- else no rows and ``0, 0``."""
        entry = self.shards.get(name)
        if entry is not None:
            number, covered, crc = entry
            if (covered <= len(data) and data[covered - 1] == ord("\n")
                    and zlib.crc32(memoryview(data)[:covered]) == crc):
                return (self.order[self.bounds[number]:
                                   self.bounds[number + 1]], covered, crc)
        return self.order[:0], 0, 0

    def records(self, table: "_Positions", rows: np.ndarray
                ) -> Tuple[list, dict]:
        """Rows ``rows`` (ascending) as :meth:`ResultStore._place`
        arguments, their override lists interned into ``table``: with
        every row, each column (line offsets too) in one piece."""
        whole = len(rows) == self.rows
        ints = self.ints if whole else self.ints[:, rows]
        picked = None if whole else rows.tolist()

        def pick(values):
            return values if whole else list(map(values.__getitem__, picked))

        interned = table.intern(self.texts, dict(zip(
            self.texts, self.values["noi_overrides"])))
        columns = {name: _at(interned if name == "noi_overrides"
                             else self.values[name], ints[3 + i])
                   for i, name in enumerate(_CODED)}
        return [pick(self.keys), pick(self.case_ids), columns["elapsed"],
                columns["flags"], array("q", ints[1].tobytes()),
                array("q", ints[2].tobytes()),
                *(columns[name] for name in _AXES)], dict(zip(
                    self.names, self.matrix if whole
                    else self.matrix[:, rows]))


def _load_snapshot(path: Path, known: Mapping[str, int]
                   ) -> Optional[_Snapshot]:
    """The index snapshot at ``path``, parsed, or ``None`` if it is
    absent or not valid.

    Valid means: it parses, names this format (:func:`_snapshot_format`)
    and every part has the length, range and types the index needs --
    types checked once per distinct value, and an override list only if
    its interning key is not ``known`` yet, and then also against that
    key.  Whether it still describes a shard is :meth:`_Snapshot.cut`'s
    check.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    snapshot = _Snapshot()
    try:
        cut = raw.index(b"\n")
        head = json.loads(raw[:cut])
        if head["format"] != _snapshot_format():
            return None
        rows, names, texts = head["rows"], head["metrics"], head["texts"]
        values = {name: head[name] for name in _CODED}
        shards = {name: (number, covered, crc) for number, (
            name, covered, crc) in enumerate(head["shards"])}
        covered = [entry[1] for entry in shards.values()]
        overrides = values["noi_overrides"]
        if not (type(rows) is int and rows >= 0
                and len(shards) == len(head["shards"]) and _only(shards, str)
                and all(type(c) is int and c > 0 for c in covered)
                and all(type(entry[2]) is int for entry in shards.values())
                and type(names) is list and _only(names, str)
                and len(set(names)) == len(names)
                and all(type(v) is list for v in values.values())
                and _only(values["elapsed"], (int, float))
                and _only(values["flags"], bool)
                and all(_only(values[name], _SCALARS) for name in _AXES
                        if name != "noi_overrides")
                and type(texts) is list and _only(texts, str)
                and len(texts) == len(overrides)
                and all(_pairs_ok(pairs) and repr(pairs) == text
                        for text, pairs in zip(texts, overrides)
                        if text not in known)
                and len(raw) >= cut + 1
                + 8 * rows * (3 + len(_CODED) + len(names))):
            return None
        list(map(float, values["elapsed"]))  # OverflowError: an int too big
        offset = cut + 1
        ints = np.frombuffer(raw, "<i8", rows * (3 + len(_CODED)),
                             offset).reshape(3 + len(_CODED), rows)
        offset += ints.nbytes
        matrix = np.frombuffer(raw, "<f8", rows * len(names), offset)
        offset += matrix.nbytes
        # Keys, then case ids, each ending in a newline.
        text = str(memoryview(raw)[offset:], "utf-8", "surrogatepass").split(
            "\n")
        if len(text) != 2 * rows + 1 or text[-1]:
            return None
        if rows:
            number, starts, ends = ints[:3]
            if not (number.min() >= 0 and number.max() < len(shards)
                    and starts.min() >= 0 and (starts <= ends).all()
                    and (ends <= np.array(covered)[number]).all()
                    and all(ints[3 + i].min() >= 0
                            and ints[3 + i].max() < len(values[name])
                            for i, name in enumerate(_CODED))):
                return None
    except (ValueError, KeyError, TypeError, IndexError, OverflowError):
        return None
    order = np.argsort(ints[0], kind="stable")
    snapshot.bounds = np.searchsorted(
        ints[0][order], np.arange(len(shards) + 1)).tolist()
    snapshot.order = order
    snapshot.shards, snapshot.covered, snapshot.rows = (
        shards, sum(covered), rows)
    # Copies, so the raw bytes are freed on return.
    snapshot.ints = ints.astype(np.int64)
    snapshot.values, snapshot.texts, snapshot.names = values, texts, names
    snapshot.matrix = matrix.astype(np.float64).reshape(len(names), rows)
    snapshot.keys, snapshot.case_ids = text[:rows], text[rows:-1]
    return snapshot


def _fields(records: list, prefixes: Optional[List[str]] = None):
    """``records`` split into per-field lists, or ``None`` if any of
    them is not a well-formed record of this schema version -- or,
    given ``prefixes`` (:func:`_prefix` of the shard each was read
    from), if the first two characters of its key are not its prefix:
    the key belongs to another shard.

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
        if prefixes is not None and list(map(itemgetter(slice(2)),
                                             keys)) != prefixes:
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

    Position ``p`` holds one record: ``keys[p]``, ``case_ids[p]``,
    ``elapsed[p]``, ``flags[p]`` (whether it has an array payload),
    ``starts[p]`` and ``ends[p]`` (where its line starts and ends in its
    shard, terminator excluded, in int64 ``array`` objects: the line
    itself stays on disk and is read back by ``os.pread`` on demand,
    :func:`_read_records`), per case axis ``axes[axis][p]`` -- the
    scalar value, or for ``noi_overrides`` a code into ``overrides``,
    the distinct override
    lists as tuples of pairs -- and, per metric name,
    ``floats[name][p]``: :func:`finite_float` of its value, NaN where
    it is missing.  Each metric column is a float64 array with room to
    grow past the last position, NaN there.  Bytes, strings, numbers
    and float64 arrays are all untracked by the garbage collector, so an
    index of any size adds only a few dozen tracked objects, and
    nothing here refers to the store.
    """

    __slots__ = ("keys", "case_ids", "elapsed", "flags", "starts", "ends",
                 "axes", "overrides", "texts", "ids", "codes", "floats")

    def __init__(self) -> None:
        self.keys: List[str] = []
        self.case_ids: List[str] = []
        self.elapsed: List[float] = []
        self.flags: List[bool] = []
        self.starts = array("q")
        self.ends = array("q")
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
        self.floats: Dict[str, np.ndarray] = {}

    def columns(self) -> List[list]:
        """Every per-position list, in :meth:`ResultStore._place`'s
        chunk order."""
        return [self.keys, self.case_ids, self.elapsed, self.flags,
                self.starts, self.ends, *self.axes.values()]

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

    def set_metrics(self, slots, metrics: Dict[str, np.ndarray],
                    picks) -> None:
        """Give the records at ``slots`` the metric values at ``picks``
        of the columns ``metrics`` (by name), NaN for every other name;
        the position lists already reach past every slot."""
        count = len(self.keys)
        for name in metrics.keys() - self.floats.keys():
            self.floats[name] = np.full(count, np.nan)
        for name, column in self.floats.items():
            if len(column) < count:
                grown = np.full(max(count, 2 * len(column)), np.nan)
                grown[:len(column)] = column
                column = self.floats[name] = grown
            values = metrics.get(name)
            column[slots] = np.nan if values is None else values[picks]

    def select(self, keep: List[int]) -> "_Positions":
        """A copy holding only positions ``keep``, renumbered in order;
        the interned override lists are shared."""
        out = _Positions()
        out.overrides, out.texts, out.ids, out.codes = (
            self.overrides, self.texts, self.ids, self.codes)
        for mine, theirs in zip(self.columns(), out.columns()):
            theirs.extend(mine[pos] for pos in keep)
        rows = np.array(keep, np.intp)
        out.floats = {name: column[rows]
                      for name, column in self.floats.items()}
        return out


class RecordColumns:
    """Array views over a store's records, indexed by position.

    Built lazily, one axis column at a time, by
    :meth:`ResultStore.columns` for the query layer, from the store's
    flat position lists (:class:`_Positions`) and its arrays directory
    -- never from the store itself, so the cache forms no reference
    cycle.  An axis column holds one interned code per record, next to
    the list of distinct values, so a filter is evaluated once per
    distinct value and broadcast as ``keep[codes]``.  A metric column
    is the index's own float64 column, NaN wherever
    :func:`finite_float` says the metric is missing.  ``perm`` lists
    every position in ``(case_id, key)`` order; :meth:`page_records` and
    :meth:`case_id` give what a page row shows of one record.

    Positions are stable, so an axis column built over the first ``n``
    records stays valid while records are appended; the next access
    extends it over the new ones.  The store drops the whole cache
    when a record changes in place or positions are compacted.
    """

    def __init__(self, positions: _Positions, directory: str) -> None:
        self.perm = np.empty(0, np.int64)
        self._positions = positions
        #: The store's root, ending in a separator: shard files are
        #: ``directory + name``.
        self._dir = directory
        self._arrays_dir = Path(directory, "arrays")
        self._axes: Dict[str, Tuple[np.ndarray, list, dict]] = {}
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
        """Metric ``name`` of every record, NaN where it is missing: a
        view of the index's column, no copy, which the store's next
        read may change."""
        table = self._positions
        column = table.floats.get(name)
        count = len(table.keys)
        return np.full(count, np.nan) if column is None else column[:count]

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

    def page_records(self, positions: List[int]) -> List[dict]:
        """The records at ``positions``, rebuilt from the position
        lists, their metrics dicts decoded from their lines: equal to
        the decoded lines wherever the stored values survive a JSON
        round trip, as every value a reader decoded does.

        The lines are read and decoded by :func:`_read_records`, which
        raises :class:`StaleIndexError` for a line without its key."""
        table = self._positions
        axes = table.axes
        decoded = _read_records(self._dir, table, positions)
        records = []
        for pos, record in zip(positions, decoded):
            case = {name: axes[name][pos] for name in _AXES}
            case["noi_overrides"] = [
                list(pair) for pair in table.overrides[case["noi_overrides"]]]
            records.append({
                "k": table.keys[pos], "case": case,
                "metrics": record["metrics"],
                "elapsed_s": table.elapsed[pos], "arrays": table.flags[pos]})
        return records

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

"""Multi-process fuzz of one store directory, its index snapshot included.

Three worker processes (a ``ProcessPoolExecutor``) run fixed scripts,
shuffled by seeded generators, against one store directory at once:

* puts of new keys and rewrites of earlier keys with new metrics, some
  with ``.npz`` payloads;
* cold opens that query, and so may write ``index.idx``;
* queries, ``get`` and enumeration on a long-lived handle between the
  other steps;
* a snapshot writer stopped after its temp file is written but before
  ``os.replace``, and one stopped part-way through writing it (a file
  size limit makes the write fail);
* a torn ``index.idx`` written in place, and two stale snapshots
  published by ``os.replace``: another store's (its shards hold the same
  keys in lines of the same lengths, with other metric values) and one
  whose covered prefix of a shard ends inside a line, with that
  prefix's crc32.

Every record certifies itself: its case hashes to its key, and its
``value`` is a function of the key and the put's stamp ``(w, n)``
(worker, count), so any view can be checked on its own.  Invariants:

* every record a view serves was put, with its own metrics, and the
  aggregates fold the values the page rows show;
* a view opened after a look at the shards serves, for every key seen
  there, that line of the key or a later one (last writer wins);
* a long-lived handle never loses a record it has served, nor goes back
  to an earlier line of its key;
* a stopped snapshot writer leaves ``index.idx`` as it was (or as
  another process replaced it), never torn;
* once the workers stop, a fresh handle, a fresh handle on a copy of
  the shards without ``index.idx`` and a handle opened before the
  workers started all equal a recount of the shard lines (own-shard
  rule, last writer wins), and so does the next fresh handle, which
  loads the snapshot the first one left.

The scripts are fixed; only the interleaving of the processes varies
from run to run.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import random
import resource
import shutil
import signal
import tempfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.eval.queries import MAX_PAGE_ROWS, ResultQuery, query_results
from repro.eval.store import (
    ResultStore,
    _load_snapshot,
    case_from_record,
    case_key,
)
from repro.eval.sweeps import SweepCase, SweepResult

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")

FP = "tests.fuzz_store_processes@1"
WORKERS = 3
#: Records the main process puts before the workers start (also into
#: the sibling store, with other values in lines of the same length).
BASE = 48
#: Cases the workers put: the base ones (rewrites) and as many new.
CASES = [SweepCase(("siam", "kite", "floret")[i % 3], 16, "uniform", i)
         for i in range(2 * BASE)]
QUERY = ResultQuery(metrics=("value",), limit=MAX_PAGE_ROWS)
#: Steps of each worker's script, shuffled per worker.
SCRIPT = (["put"] * 14 + ["cold"] * 4 + ["long"] * 5 + ["stop-replace"]
          + ["stop-torn"] + ["tear"] + ["sibling"] + ["midline"] * 2)


def _value(key: str, w: int, n: int, salt: str = "") -> float:
    """The value a put of ``key`` stamped ``(w, n)`` stores: always
    nine characters as JSON."""
    crc = zlib.crc32(f"{salt}{key}/{w}/{n}".encode())
    return float(1_000_000 + crc % 9_000_000)


def _result(case, w: int, n: int, arrays: bool = False, salt: str = ""):
    key = case_key(case, FP)
    return key, SweepResult(
        case=case, metrics={"value": _value(key, w, n, salt), "w": w, "n": n},
        elapsed_s=0.5, arrays={"a": np.arange(3) + n} if arrays else None)


def _disk(root: Path) -> dict:
    """``{key: [stamp, ...]}``: the stamp of every complete line of
    each key in its own shard, in file order."""
    stamps = {}
    for shard in sorted(root.glob("shard-*.jsonl")):
        data = shard.read_bytes()
        for line in data[:data.rfind(b"\n") + 1].splitlines():
            record = json.loads(line)
            if shard.name == f"shard-{record['k'][:2]}.jsonl":
                metrics = record["metrics"]
                stamps.setdefault(record["k"], []).append(
                    (metrics["w"], metrics["n"]))
    return stamps


def _checked(answer: dict) -> dict:
    """``{key: stamp}`` of a query answer whose every row was put with
    its own metrics and whose aggregates fold the rows' values."""
    rows = answer["results"]
    assert answer["total"] == len(rows)
    served, values = {}, []
    for row in rows:
        key, metrics = row["key"], row["metrics"]
        assert case_key(case_from_record(row), FP) == key
        assert metrics["value"] == _value(key, metrics["w"], metrics["n"])
        served[key] = (metrics["w"], metrics["n"])
        values.append(metrics["value"])
    fold = answer["aggregates"]["value"]
    assert (fold["count"], fold["sum"]) == (len(values), math.fsum(values))
    assert (fold["min"], fold["max"]) == (min(values, default=None),
                                          max(values, default=None))
    order = [(row["case_id"], row["key"]) for row in rows]
    assert order == sorted(order)
    return served


def _no_older(served: dict, seen: dict, root: Path) -> None:
    """Every key of ``seen`` (``{key: line number}``) is served, by
    that line or a later one of the key."""
    disk = _disk(root)
    for key, line in seen.items():
        assert key in served, f"{key} lost"
        assert disk[key].index(served[key]) >= line, f"{key} went back"


def _lines(stamps: dict) -> dict:
    """``{key: number of its last line}`` of a :func:`_disk` result."""
    return {key: len(lines) - 1 for key, lines in stamps.items()}


def _query(store: ResultStore, root: Path) -> dict:
    """Query ``store`` after a look at the shards; check it serves every
    line seen there or a later one."""
    before = _lines(_disk(root))
    served = _checked(query_results(store, QUERY))
    _no_older(served, before, root)
    return served


def _publish(path: Path, raw: bytes) -> None:
    """Put ``raw`` at ``path`` by temp file and ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".plant-")
    with os.fdopen(fd, "wb") as fh:
        fh.write(raw)
    os.replace(tmp, path)


def _midline(root: Path) -> bool:
    """Publish the current snapshot, if it is valid, with one shard's
    covered prefix ended inside that shard's last line, and that
    prefix's crc32."""
    path = root / "index.idx"
    try:
        raw = path.read_bytes()
    except OSError:
        return False
    if _load_snapshot(path, {}) is None or path.read_bytes() != raw:
        return False  # torn, or replaced meanwhile
    cut = raw.index(b"\n")
    head = json.loads(raw[:cut])
    for entry in head["shards"]:
        data = (root / entry[0]).read_bytes()
        data = data[:data.rfind(b"\n") + 1]
        last = data.rfind(b"\n", 0, len(data) - 1) + 1
        if last >= entry[1]:  # a whole line past the covered prefix
            entry[1] = last + (len(data) - last) // 2
            entry[2] = zlib.crc32(data[:entry[1]])
            _publish(path, json.dumps(head).encode() + raw[cut:])
            return True
    return False


def _stopped_writer(root: Path, mode: str, limit: int) -> None:
    """A child process that opens the store and writes its snapshot,
    stopped before ``os.replace`` (``mode`` ``replace``) or by a write
    error once the file reaches ``limit`` bytes (``torn``)."""
    path = root / "index.idx"
    before = path.read_bytes() if path.exists() else None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            if mode == "replace":
                replace = os.replace

                def stop(src, dst, *args, **kwargs):
                    if str(dst).endswith("index.idx"):
                        os._exit(0)
                    return replace(src, dst, *args, **kwargs)

                os.replace = stop
            else:
                signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
                resource.setrlimit(resource.RLIMIT_FSIZE,
                                   (limit, resource.RLIM_INFINITY))
            store = ResultStore(root)
            store.columns()
            store._write_snapshot()
            code = 0
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    after = path.read_bytes() if path.exists() else None
    assert after == before or _load_snapshot(path, {}) is not None, (
        "a stopped snapshot writer left index.idx torn")


def _worker(args) -> int:
    """Run one worker's script; returns the number of checked views."""
    root, sibling, w, script = args
    root, sibling = Path(root), Path(sibling)
    # Tears and stopped writers never overlap, so a torn index.idx
    # after a stopped writer is its own.
    lock = open(root.parent / "torn.lock", "a")
    rng = random.Random(100 + w)
    writer, long_lived = ResultStore(root), ResultStore(root)
    seen, checked, n = {}, 0, 0
    for step in script:
        if step == "put":
            n += 1
            key, result = _result(rng.choice(CASES), w, n,
                                  arrays=rng.random() < 0.25)
            assert writer.put(key, result)
        elif step == "cold":
            _query(ResultStore(root), root)
            checked += 1
        elif step == "long":
            served = _query(long_lived, root)
            _no_older(served, seen, root)
            disk = _disk(root)
            seen = {key: disk[key].index(stamp)
                    for key, stamp in served.items()}
            records = dict(long_lived.iter_records())
            got = {key: long_lived.get(key, case_from_record(records[key]))
                   for key in rng.sample(sorted(served), min(4, len(served)))}
            stamps = {key: (m["w"], m["n"]) for key, m in (
                [(key, r["metrics"]) for key, r in records.items()]
                + [(key, r.metrics) for key, r in got.items()])}
            for key, metrics in ([(k, r["metrics"]) for k, r in records.items()]
                                 + [(k, r.metrics) for k, r in got.items()]):
                assert metrics["value"] == _value(key, metrics["w"],
                                                  metrics["n"])
            _no_older(stamps, seen, root)
            checked += 1
        elif step.startswith("stop-"):
            fcntl.flock(lock, fcntl.LOCK_EX)
            _stopped_writer(root, step[5:], rng.randrange(64, 8192))
            fcntl.flock(lock, fcntl.LOCK_UN)
        elif step == "tear":
            fcntl.flock(lock, fcntl.LOCK_EX)
            path = root / "index.idx"
            if path.exists():
                raw = path.read_bytes()
                path.write_bytes(raw[:rng.randrange(len(raw) or 1)])
            fcntl.flock(lock, fcntl.LOCK_UN)
        elif step == "sibling":
            _publish(root / "index.idx", (sibling / "index.idx").read_bytes())
            _query(ResultStore(root), root)
            checked += 1
        else:  # midline
            if _midline(root):
                _query(ResultStore(root), root)
                checked += 1
    lock.close()
    return checked


def _views(store: ResultStore) -> str:
    records = list(store.iter_records())
    results = [store.get(key, case_from_record(record))
               for key, record in records]
    return json.dumps([records, [[r.metrics, sorted(r.arrays or ())]
                                 for r in results],
                       query_results(store, QUERY)], sort_keys=True)


def test_processes_agree_with_a_recount(tmp_path):
    root, sibling = tmp_path / "store", tmp_path / "sibling"
    for path, salt in ((root, ""), (sibling, "sibling")):
        store = ResultStore(path)
        for n, case in enumerate(CASES[:BASE]):
            store.put(*_result(case, WORKERS, n, salt=salt))
    len(ResultStore(sibling))
    assert (sibling / "index.idx").exists()
    early = ResultStore(root)
    _query(early, root)
    scripts = []
    for w in range(WORKERS):
        script = list(SCRIPT)
        random.Random(w).shuffle(script)
        scripts.append((str(root), str(sibling), w, script))
    try:
        pool = ProcessPoolExecutor(max_workers=WORKERS)
    except OSError:  # pragma: no cover - restricted sandboxes
        pytest.skip("process pools unavailable in this sandbox")
    with pool:
        assert all(list(pool.map(_worker, scripts)))

    disk = _disk(root)
    want = {key: stamps[-1] for key, stamps in disk.items()}
    fresh = ResultStore(root)
    assert _query(fresh, root) == want
    copy = tmp_path / "copy"
    copy.mkdir()
    for shard in root.glob("shard-*.jsonl"):
        shutil.copyfile(shard, copy / shard.name)
    shutil.copytree(root / "arrays", copy / "arrays")
    views = _views(fresh)
    for store in (early, ResultStore(copy), ResultStore(root)):
        assert _query(store, root) == want
        assert _views(store) == views
    assert _load_snapshot(root / "index.idx", {}) is not None
    leftovers = [p.name for p in root.iterdir() if p.suffix == ".tmp"]
    assert len(leftovers) <= WORKERS  # one per stopped-at-replace writer

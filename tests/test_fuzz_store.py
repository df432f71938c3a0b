"""Differential fuzzing of store/query round-trips (hypothesis).

Random cases (arch, size, workload, seed, unicode tag, overrides such
as ``8`` vs ``8.0`` and one pair in both orders, which share a key but
not a ``case_id``; archs and workloads also take values that are equal
but not identical, ``0.0``/``-0.0``/``1``/``1.0``/``True``, which a
pivot merges under the first of them in match order) are put through a
writer store with random metrics
-- missing, NaN, inf, strings, booleans, an integer too large for a
float, ``0.0``/``-0.0`` ties -- and random npz payloads.  Between the
puts, payloads are deleted, earlier cases are re-put with new metrics
(a key rewritten after queries read the index) and queries
run.  Index snapshot events ride along: a fresh full open writes the
store's snapshot, a shard is rewritten shorter, a line is overwritten
in place with garbage of the same length (a same-length rewrite that
a stale snapshot's crc must catch, and a corrupt line that later
snapshots cover), a shard is deleted, a shard gains a copy of another
shard's line with new metrics (a key in the wrong shard), the snapshot
is torn (truncated), and a snapshot of another format version with
wrong metric values is planted; puts after any of them append past
the snapshot.  At the end one shard is rewritten shorter and more
records are appended.  After each step
``query_results`` on the writer, on a long-lived reader and on a fresh
reader (which loads the snapshot) must equal, byte for byte as JSON, a
brute-force recount: every shard line that parses and sits in its
key's own shard (last writer wins, records with a missing npz
dropped), ``case_from_record`` ->
``SweepCase.case_id``, ``sorted``, a per-record filter, then a
per-value Neumaier loop with builtin ``min``/``max``.  The writer
and the long-lived reader must also serve the same ``iter_records``
records, ``get`` results and page rows as a fresh reader, byte for
byte as JSON: records are decoded from stored lines, page rows are
rebuilt from the index, and the two must never drift apart; so must a
fresh open of a copy of the shards without any snapshot.  Handles that
consumed a shard before a same-length rewrite keep their view of it
(their (mtime, size) guard sees no new bytes), and so do handles whose
shard was deleted, so the harness re-opens them after each of these.
A line in the wrong shard counts nowhere, so long-lived handles are
checked across it without a re-open.

The suite is derandomised with a fixed example budget, so tier-1 runs
the same examples every time.  Counterexamples the fuzzer shrinks are
committed to ``TestRegressions``.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.eval.store as store_module
from repro.eval.queries import MAX_PAGE_ROWS, ResultQuery, query_results
from repro.eval.store import (
    _CODED,
    DECODE_PER_LOAD,
    ResultStore,
    _load_snapshot,
    case_from_record,
    case_key,
    evaluator_fingerprint,
)
from repro.eval.sweeps import SweepCase, SweepResult


def _fuzz_eval(case):
    return {"lat": float(case.seed)}


FP = evaluator_fingerprint(_fuzz_eval)

#: Axis values that are equal but not identical, as a foreign writer
#: may store them.
EQUAL = (0.0, -0.0, 1, 1.0, True)
ARCHS = ("siam", "kite", "floret") + EQUAL
SIZES = (16, 36)
WORKLOADS = ("uniform", "hotspot@0.1") + EQUAL
OVERRIDES = (
    (),
    (("fc_buffer_flits", 8),),
    (("fc_buffer_flits", 8.0),),
    (("fc_buffer_flits", 16), ("fc_credit_rtt", 1)),
    (("fc_credit_rtt", 1), ("fc_buffer_flits", 16)),
    (("flit_bytes", 32),),
)
METRICS = ("lat", "energy")
TAGS = st.text(alphabet="ab-βé中 ", max_size=3)

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-1000, 1000),
    st.sampled_from(("x", "", "1.5", True, False, 10 ** 400, 0.0, -0.0)),
    st.none(),
)
cases = st.builds(
    SweepCase,
    arch=st.sampled_from(ARCHS),
    num_chiplets=st.sampled_from(SIZES),
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(0, 2),
    noi_overrides=st.sampled_from(OVERRIDES),
    tag=TAGS,
)
puts = st.tuples(
    st.just("put"), cases,
    st.dictionaries(st.sampled_from(METRICS), values, max_size=2),
    st.booleans(),
)
queries = st.builds(
    ResultQuery,
    archs=st.lists(st.sampled_from(ARCHS), max_size=2).map(tuple),
    sizes=st.lists(st.sampled_from(SIZES), max_size=1).map(tuple),
    seeds=st.lists(st.integers(0, 2), max_size=2).map(tuple),
    tags=st.lists(TAGS, max_size=2).map(tuple),
    overrides=st.lists(
        st.tuples(st.sampled_from(("fc_buffer_flits", "fc_credit_rtt")),
                  st.sampled_from((8, 8.0, 16, 1))),
        max_size=2,
    ).map(tuple),
    metrics=st.lists(st.sampled_from(METRICS), max_size=2,
                     unique=True).map(tuple),
    pivot=st.sampled_from(("",) + METRICS),
    offset=st.integers(0, 6),
    limit=st.integers(0, 8),
)
events = st.one_of(
    puts,
    st.tuples(st.just("drop_npz"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("reput"), st.integers(0, 10 ** 6),
              st.dictionaries(st.sampled_from(METRICS), values,
                              max_size=2)),
    st.tuples(st.just("query"), queries),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("rewrite_shorter"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("rewrite_same"), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6)),
    st.tuples(st.just("drop_shard"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("stray_line"), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6), values),
    st.tuples(st.just("tear_snapshot"), st.integers(0, 99)),
    st.tuples(st.just("plant_snapshot")),
)


# -- the brute-force recount ---------------------------------------------


def _disk_records(root: Path) -> dict:
    """Every record on disk, last writer wins, incomplete ones dropped."""
    records = {}
    for shard in sorted(root.glob("shard-*.jsonl")):
        for line in shard.read_bytes().splitlines():
            try:
                record = json.loads(line)
            except ValueError:  # overwritten in place with garbage
                continue
            if shard.name == f"shard-{record['k'][:2]}.jsonl":
                records[record["k"]] = record
    return {
        key: record for key, record in records.items()
        if not (record["arrays"]
                and not (root / "arrays" / f"{key}.npz").exists())
    }


def _matches(query: ResultQuery, case: SweepCase) -> bool:
    have = dict(case.noi_overrides)
    return (
        (not query.archs or case.arch in query.archs)
        and (not query.sizes or case.num_chiplets in query.sizes)
        and (not query.workloads or case.workload in query.workloads)
        and (not query.seeds or case.seed in query.seeds)
        and (not query.tags or case.tag in query.tags)
        and all(name in have and float(have[name]) == float(value)
                for name, value in query.overrides)
    )


def _finite(value):
    if not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        return None
    return number if math.isfinite(number) else None


def _neumaier(values) -> float:
    total = comp = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            comp += (total - t) + value
        else:
            comp += (value - t) + total
        total = t
    return total + comp


def _fold(values) -> dict:
    values = list(values)
    finite = [_finite(v) for v in values if _finite(v) is not None]
    count = len(finite)
    return {
        "count": count,
        "sum": _neumaier(finite) if count else 0.0,
        "mean": _neumaier(finite) / count if count else None,
        "min": min(finite) if count else None,
        "max": max(finite) if count else None,
        "missing": len(values) - count,
    }


def _strict(metrics: dict) -> dict:
    """Page-row metrics as served: NaN/inf floats become ``None``."""
    return {name: None if isinstance(v, float) and not math.isfinite(v)
            else v for name, v in metrics.items()}


def recount(root: Path, query: ResultQuery) -> dict:
    matched = sorted(
        (case.case_id, key, record, case)
        for key, record, case in (
            (key, record, case_from_record(record))
            for key, record in _disk_records(root).items()
        )
        if _matches(query, case)
    )
    limit = max(0, min(query.limit, MAX_PAGE_ROWS))
    out = {
        "total": len(matched),
        "offset": query.offset,
        "limit": limit,
        "results": [
            {
                "key": key,
                "case_id": case_id,
                "case": {
                    "arch": case.arch,
                    "num_chiplets": case.num_chiplets,
                    "workload": case.workload,
                    "seed": case.seed,
                    "noi_overrides": [list(p) for p in case.noi_overrides],
                    "tag": case.tag,
                },
                "metrics": _strict(record["metrics"]),
                "elapsed_s": record["elapsed_s"],
                "has_arrays": record["arrays"],
            }
            for case_id, key, record, case
            in matched[query.offset:query.offset + limit]
        ],
        "aggregates": {
            name: _fold(r["metrics"].get(name) for _, _, r, _ in matched)
            for name in query.metrics
        },
    }
    if query.pivot:
        cells, missing = {}, 0
        for _, _, record, case in matched:
            value = _finite(record["metrics"].get(query.pivot))
            if value is None:
                missing += 1
            else:
                cells.setdefault(case.workload, {}).setdefault(
                    case.arch, []).append(value)
        out["pivot"] = {
            "metric": query.pivot,
            "missing": missing,
            "rows": {str(row): {str(col): _neumaier(vals) / len(vals)
                                for col, vals in cols.items()}
                     for row, cols in cells.items()},
        }
    return out


# -- driving the stores ----------------------------------------------------


def _dumps(payload: dict) -> str:
    # Strict JSON: no response part may hold NaN or inf
    # (allow_nan=False raises on them).
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _views(store: ResultStore) -> str:
    """What a handle serves per record -- ``iter_records``, ``get`` and
    every page row -- as JSON."""
    records = list(store.iter_records())
    results = [store.get(key, case_from_record(record))
               for key, record in records]
    rows = query_results(store, ResultQuery(limit=MAX_PAGE_ROWS))
    return json.dumps([
        records,
        [[r.case.case_id, r.metrics, r.elapsed_s, sorted(r.arrays or ())]
         for r in results],
        rows["results"],
    ])


def _layout(payload: dict) -> list:
    rows = payload.get("pivot", {}).get("rows", {})
    return [(row, list(cols)) for row, cols in rows.items()]


class Harness:
    """A writer, a long-lived reader and fresh readers over one root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.writer = ResultStore(root)
        self.reader = ResultStore(root)
        self.array_keys = []
        self.cases = []

    def put(self, case, metrics, with_arrays) -> None:
        key = case_key(case, FP)
        arrays = {"tiers": np.arange(2)} if with_arrays else None
        self.writer.put(key, SweepResult(
            case=case, metrics=metrics, elapsed_s=0.5, arrays=arrays,
        ))
        self.cases.append(case)
        if with_arrays:
            self.array_keys.append(key)

    def apply(self, event) -> None:
        kind = event[0]
        if kind == "put":
            self.put(*event[1:])
        elif kind == "reput":
            # Same key, new metrics: rewritten in place after earlier
            # queries read the index.
            if self.cases:
                self.put(self.cases[event[1] % len(self.cases)], event[2],
                         False)
        elif kind == "drop_npz":
            if self.array_keys:
                key = self.array_keys[event[1] % len(self.array_keys)]
                (self.root / "arrays" / f"{key}.npz").unlink(missing_ok=True)
        elif kind == "query":
            self.check(event[1])
        elif kind == "snapshot":
            len(ResultStore(self.root))  # a full open writes what is due
        elif kind == "rewrite_shorter":
            # The long-lived handles must see the shard shorter than
            # what they consumed before it grows again.
            self.sync()
            self.rewrite_shorter(event[1])
            self.sync()
        elif kind == "rewrite_same":
            self.rewrite_same(event[1], event[2])
        elif kind == "drop_shard":
            shards = sorted(self.root.glob("shard-*.jsonl"))
            if shards:
                shards[event[1] % len(shards)].unlink()
                self.reopen()
        elif kind == "stray_line":
            self.stray_line(*event[1:])
        elif kind == "tear_snapshot":
            snapshot = self.root / "index.idx"
            if snapshot.exists():
                raw = snapshot.read_bytes()  # keep event[1] percent
                snapshot.write_bytes(raw[:len(raw) * event[1] // 100])
        else:  # plant_snapshot, made from one a fresh open writes anew
            snapshot = self.root / "index.idx"
            snapshot.unlink(missing_ok=True)
            len(ResultStore(self.root))
            if snapshot.exists():  # not if no shard has a record
                snapshot.write_bytes(_foreign_snapshot(snapshot.read_bytes()))

    def reopen(self) -> None:
        """Replace both long-lived handles by fresh ones."""
        self.writer = ResultStore(self.root)
        self.reader = ResultStore(self.root)

    def stray_line(self, pick: int, line_pick: int, value) -> None:
        """Append a copy of one shard line, its metrics replaced, to
        another shard."""
        shards = sorted(self.root.glob("shard-*.jsonl"))
        if len(shards) < 2:
            return
        source = shards[pick % len(shards)]
        lines = source.read_bytes().splitlines()
        try:
            record = json.loads(lines[line_pick % len(lines)])
        except (ZeroDivisionError, ValueError):  # empty, or garbage
            return
        record["metrics"] = {"lat": value}
        target = shards[(pick + 1 + line_pick) % len(shards)]
        if target == source:
            target = shards[(pick + 1) % len(shards)]
        with target.open("ab") as fh:
            fh.write(json.dumps(record).encode() + b"\n")

    def sync(self) -> None:
        """Bring both long-lived handles up to every shard's end."""
        len(self.writer)
        len(self.reader)

    def rewrite_same(self, pick: int, line_pick: int) -> None:
        """Overwrite one shard line in place with garbage of the same
        length, then re-open the long-lived handles."""
        shards = sorted(self.root.glob("shard-*.jsonl"))
        if not shards:
            return
        shard = shards[pick % len(shards)]
        lines = shard.read_bytes().splitlines(keepends=True)
        if not lines:
            return
        i = line_pick % len(lines)
        lines[i] = b"#" * (len(lines[i]) - 1) + b"\n"
        shard.write_bytes(b"".join(lines))
        self.reopen()

    def check(self, query: ResultQuery) -> None:
        expected = recount(self.root, query)
        want = _dumps(expected)
        for name, store in (("writer", self.writer),
                            ("reader", self.reader)):
            got = query_results(store, query)
            assert _dumps(got) == want, f"{name} disagrees with the recount"
            # sort_keys hides dict order: pivot rows, and the columns
            # within a row, come in order of first appearance.
            assert _layout(got) == _layout(expected), f"{name} pivot order"
        fresh, got = self.cold_query(query, bounded=False)
        assert _dumps(got) == want, "fresh disagrees with the recount"
        assert _layout(got) == _layout(expected), "fresh pivot order"
        # Whatever the first cold open decoded, it left a tail under
        # the bound: the next one decodes less than that.
        again, got = self.cold_query(query, bounded=True)
        assert _dumps(got) == want, "second fresh disagrees with the recount"
        views = _views(fresh)
        for name, store in (("writer", self.writer),
                            ("reader", self.reader),
                            ("second fresh", again),
                            ("snapshot-free", self.without_snapshots())):
            assert _views(store) == views, f"{name} serves other records"

    def cold_query(self, query: ResultQuery, bounded: bool):
        """A fresh handle and its answer to ``query``.  If it decoded
        1/DECODE_PER_LOAD or more of the bytes the snapshot it loaded
        covers (any bytes, if none), it wrote ``index.idx`` anew; if
        ``bounded``, it decoded less."""
        path = self.root / "index.idx"
        before = path.read_bytes() if path.exists() else None
        snapshot = _load_snapshot(path)
        covered = 0 if snapshot is None else snapshot.covered
        decoded = []
        real = store_module._decode_lines

        def counting(data, offset=0):
            decoded.append(len(data))
            return real(data, offset)

        with mock.patch.object(store_module, "_decode_lines", counting):
            store = ResultStore(self.root)
            got = query_results(store, query)
        bound = max(covered, 1)
        if sum(decoded) * DECODE_PER_LOAD >= bound:
            assert not bounded, "decoded a tail at the bound"
            assert path.read_bytes() != before, "left a tail at the bound"
        else:
            after = path.read_bytes() if path.exists() else None
            assert after == before, "rewrote a tail under the bound"
        return store, got

    def without_snapshots(self) -> ResultStore:
        """A fresh handle on a copy of the shards with no snapshot (the
        payloads are the same files)."""
        copy = Path(tempfile.mkdtemp(dir=self.root.parent))
        for shard in self.root.glob("shard-*.jsonl"):
            shutil.copyfile(shard, copy / shard.name)
        if (self.root / "arrays").exists():
            (copy / "arrays").symlink_to(self.root / "arrays")
        return ResultStore(copy)

    def rewrite_shorter(self, pick: int) -> None:
        """Drop the tail half of one shard, as a compaction would."""
        shards = sorted(self.root.glob("shard-*.jsonl"))
        if not shards:
            return
        shard = shards[pick % len(shards)]
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[:len(lines) // 2]))


def _foreign_snapshot(raw: bytes) -> bytes:
    """``raw`` as another format version would have it: every metric
    value one higher, and the version bumped."""
    cut = raw.index(b"\n")
    head = json.loads(raw[:cut])
    head["format"] = "0/" + head["format"]
    start = cut + 1 + 8 * head["rows"] * (3 + len(_CODED))
    end = start + 8 * head["rows"] * len(head["metrics"])
    values = np.frombuffer(raw[start:end], "<f8") + 1.0
    return (json.dumps(head).encode() + raw[cut:start]
            + values.astype("<f8").tobytes() + raw[end:])


def _round_trip(steps, checks, pick, tail) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "store"
        harness = Harness(root)
        for event in steps:
            harness.apply(event)
        for query in checks:
            harness.check(query)
        # Every store has now consumed every shard to its end, so the
        # rewrite leaves each shard shorter than its consumed offset.
        harness.rewrite_shorter(pick)
        for query in checks:
            harness.check(query)
        for event in tail:
            harness.apply(event)
        for query in checks:
            harness.check(query)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(steps=st.lists(events, min_size=1, max_size=20),
       checks=st.lists(queries, min_size=1, max_size=2),
       pick=st.integers(0, 10 ** 6),
       tail=st.lists(puts, max_size=4))
def test_queries_agree_with_recount(steps, checks, pick, tail):
    _round_trip(steps, checks, pick, tail)


class TestRegressions:
    """Fixed cases: shrunk counterexamples and hand-picked edges."""

    def test_reordered_override_pair_rekeys_the_case_id(self):
        # Same key, different case_id: the later record's id must
        # replace the earlier one's place in the order, which moves
        # it past c (ids: a < c < b).
        a = SweepCase("siam", 16, "uniform", 0, OVERRIDES[3])
        b = SweepCase("siam", 16, "uniform", 0, OVERRIDES[4])
        c = SweepCase("siam", 16, "uniform", 0, OVERRIDES[1])
        assert a.case_id < c.case_id < b.case_id
        _round_trip(
            [("put", a, {"lat": 1.0}, False),
             ("query", ResultQuery(metrics=("lat",))),
             ("put", c, {"lat": 3.0}, False),
             ("query", ResultQuery(metrics=("lat",))),
             ("put", b, {"lat": 2.0}, False)],
            [ResultQuery(metrics=("lat",), limit=5)], 0, [],
        )

    def test_nan_and_string_values_are_missing_everywhere(self):
        a = SweepCase("kite", 36, "uniform", 1, OVERRIDES[1], tag="β")
        b = SweepCase("kite", 36, "uniform", 2, OVERRIDES[2], tag="β")
        _round_trip(
            [("put", a, {"lat": math.nan, "energy": "x"}, False),
             ("put", b, {"lat": math.inf, "energy": 2}, True)],
            [ResultQuery(metrics=METRICS, pivot="lat",
                         overrides=(("fc_buffer_flits", 8),))],
            0, [],
        )

    def test_deleted_npz_leaves_every_view(self):
        a = SweepCase("floret", 16, "hotspot@0.1", 0, tag="中")
        _round_trip(
            [("put", a, {"lat": 1.0}, True),
             ("query", ResultQuery(pivot="lat")),
             ("drop_npz", 0)],
            [ResultQuery(pivot="lat")], 0,
            [("put", a, {"lat": 4.0}, False)],
        )

    def test_rewrite_after_the_columns_were_built(self):
        a = SweepCase("siam", 16, "uniform", 0, OVERRIDES[1], tag="a")
        b = SweepCase("kite", 16, "uniform", 1, tag="b")
        query = ResultQuery(metrics=METRICS, pivot="lat", tags=("a", "b"))
        _round_trip(
            [("put", a, {"lat": 1.0, "energy": True}, False),
             ("put", b, {"lat": 2.0}, False),
             ("query", query),
             ("reput", 0, {"lat": 10 ** 400, "energy": 3.0}),
             ("query", query)],
            [query], 0, [("put", b, {"lat": -1.5}, False)],
        )

    def test_signed_zero_ties_keep_the_first(self):
        cases = [SweepCase("siam", 16, "uniform", s) for s in range(3)]
        _round_trip(
            [("put", cases[0], {"lat": 0.0, "energy": -0.0}, False),
             ("put", cases[1], {"lat": -0.0, "energy": 0.0}, False),
             ("put", cases[2], {"lat": 0.0, "energy": -0.0}, False)],
            [ResultQuery(metrics=METRICS, pivot="energy")], 0, [],
        )

    def test_rewriting_a_zero_sign_after_the_columns_were_built(self):
        # 0.0 == -0.0 in Python, but the JSON bytes of min/max differ,
        # so a rewrite that only flips a zero's sign must still
        # replace the value in the index's metric column.
        a = SweepCase("siam", 16, "uniform", 0)
        query = ResultQuery(metrics=("lat",), pivot="lat")
        _round_trip(
            [("put", a, {"lat": 0.0}, False),
             ("query", query),
             ("reput", 0, {"lat": -0.0}),
             ("query", query)],
            [query], 0, [],
        )

    def test_eight_and_eight_point_zero_stay_apart(self):
        # 8 == 8.0 as override values, and they share a filter verdict,
        # but not a key, a case_id or their JSON: every view keeps them
        # apart, also after both are rewritten.
        a = SweepCase("kite", 16, "uniform", 0, OVERRIDES[1])
        b = SweepCase("kite", 16, "uniform", 0, OVERRIDES[2])
        query = ResultQuery(metrics=("lat",), limit=5,
                            overrides=(("fc_buffer_flits", 8.0),))
        _round_trip(
            [("put", a, {"lat": 0.0}, False),
             ("put", b, {"lat": -0.0}, False),
             ("query", query),
             ("reput", 0, {"lat": -0.0}),
             ("reput", 1, {"lat": 8}),
             ("query", query)],
            [query], 0, [("put", a, {"lat": 8.0}, False)],
        )

    def test_equal_axis_values_take_the_first_label_in_match_order(self):
        # Put first: workload True and arch 0.0.  First in (case_id,
        # key) order: workload 1 and arch -0.0, which label the merged
        # pivot row and column on every handle, whatever order its
        # positions are in.
        a = SweepCase(0.0, 16, True, 0)
        b = SweepCase(-0.0, 16, 1, 0)
        c = SweepCase("siam", 16, 1.0, 0)
        assert b.case_id < a.case_id < c.case_id
        query = ResultQuery(metrics=("lat",), pivot="lat")
        _round_trip(
            [("put", a, {"lat": 1.0}, False),
             ("put", b, {"lat": 2.0}, False),
             ("put", c, {"lat": 4.0}, False),
             ("query", query),
             ("snapshot",),
             ("query", query)],
            [query], 0, [],
        )

    def test_equal_axis_values_take_the_first_finite_label(self):
        # Shrunk: -0.0 is first in match order but has no value to
        # pivot, so the 0.0 after it labels the row, also on a handle
        # whose snapshot holds -0.0 at the first position.
        with_override = SweepCase("siam", 16, 0.0, 0, OVERRIDES[2])
        query = ResultQuery(pivot="lat", limit=0)
        _round_trip(
            [("snapshot",)], [ResultQuery(limit=0), query], 0,
            [("put", with_override, {}, False),
             ("put", SweepCase("siam", 16, -0.0, 0), {}, False),
             ("put", SweepCase("siam", 16, 0.0, 0), {"lat": 0.0}, False)],
        )

    def test_torn_snapshot_counts_as_absent(self):
        # A snapshot cut short is unparsable (or its metric block is
        # short): the next open decodes the shard and writes it anew.
        a = SweepCase("siam", 16, "uniform", 0, OVERRIDES[1], tag="a")
        b = SweepCase("siam", 16, "uniform", 1, OVERRIDES[2], tag="b")
        query = ResultQuery(metrics=METRICS, pivot="lat")
        _round_trip(
            [("put", a, {"lat": 1.0, "energy": 2}, False),
             ("put", b, {"lat": -0.0}, False),
             ("snapshot",),
             ("tear_snapshot", 50),
             ("query", query),
             ("tear_snapshot", 99),
             ("put", a, {"lat": 3.0}, False),
             ("query", query)],
            [query], 0, [],
        )

    def test_same_length_rewrite_fails_the_crc(self):
        # The shard keeps its length, so only the crc of the covered
        # prefix tells the snapshot is stale; the garbage line is then
        # skipped, also once a new snapshot covers it.
        cases = [SweepCase("kite", 16, "uniform", s) for s in range(3)]
        query = ResultQuery(metrics=("lat",), limit=5)
        _round_trip(
            [("put", cases[0], {"lat": 1.0}, False),
             ("put", cases[1], {"lat": 2.0}, False),
             ("put", cases[2], {"lat": 3.0}, False),
             ("snapshot",),
             ("rewrite_same", 0, 1),
             ("query", query),
             ("snapshot",),
             ("put", cases[0], {"lat": 4.0}, False),
             ("query", query)],
            [query], 0, [],
        )

    def test_key_in_an_earlier_shard_counts_nowhere(self):
        # A copy of the later shard's line, with another metric value,
        # lands in the earlier shard: only the later shard's own line
        # counts, also when the snapshot holds that shard and once a
        # new snapshot is written over both.
        cases = [SweepCase("kite", 16, "uniform", s) for s in range(2)]
        query = ResultQuery(metrics=("lat",), limit=5)
        _round_trip(
            [("put", cases[0], {"lat": 1.0}, False),
             ("put", cases[1], {"lat": 2.0}, False),
             ("snapshot",),
             ("stray_line", 1, 0, 7.5),
             ("query", query),
             ("snapshot",),
             ("put", cases[0], {"lat": 3.0}, False),
             ("query", query)],
            [query], 0, [],
        )

    def test_key_in_a_later_shard_counts_nowhere(self):
        # The copy lands in the later shard, which shard order would
        # read last: it still counts nowhere, for the long-lived
        # handles that read it after the first shard's own line, and
        # once the snapshot covers both shards.
        cases = [SweepCase("kite", 16, "uniform", s) for s in range(2)]
        query = ResultQuery(metrics=("lat",), limit=5)
        _round_trip(
            [("put", cases[0], {"lat": 1.0}, False),
             ("put", cases[1], {"lat": 2.0}, False),
             ("query", query),
             ("stray_line", 0, 0, 7.5),
             ("query", query),
             ("snapshot",),
             ("rewrite_shorter", 1),
             ("query", query)],
            [query], 0, [],
        )

    def test_planted_snapshot_of_another_format_is_ignored(self):
        a = SweepCase("floret", 36, "hotspot@0.1", 2, tag="中")
        query = ResultQuery(metrics=METRICS)
        _round_trip(
            [("put", a, {"lat": 1.5, "energy": 10 ** 400}, True),
             ("plant_snapshot",),
             ("query", query)],
            [query], 0, [],
        )


def test_second_cold_open_decodes_no_covered_line(monkeypatch, tmp_path):
    """A cold open after one that wrote the snapshots decodes only the
    lines appended since, and answers the same."""
    writer = ResultStore(tmp_path)
    cases = [SweepCase(ARCHS[s % 3], 16, "uniform", s) for s in range(40)]
    for case in cases:
        writer.put(case_key(case, FP), SweepResult(
            case=case, metrics={"lat": float(case.seed)}, elapsed_s=0.5))
    query = ResultQuery(metrics=("lat",), pivot="lat", limit=40)
    first = query_results(ResultStore(tmp_path), query)
    assert [p.name for p in tmp_path.glob("*.idx")] == ["index.idx"]

    decoded = []
    real = store_module._decode_lines

    def counting(data, offset=0):
        decoded.append(data)
        return real(data, offset)

    monkeypatch.setattr(store_module, "_decode_lines", counting)
    assert _dumps(query_results(ResultStore(tmp_path), query)) == _dumps(
        first)
    assert decoded == []
    extra = SweepCase("kite", 36, "uniform", 0)
    writer.put(case_key(extra, FP), SweepResult(
        case=extra, metrics={"lat": 9.0}, elapsed_s=0.5))
    again = query_results(ResultStore(tmp_path), query)
    assert again["total"] == len(cases) + 1
    assert b"".join(decoded).count(b"\n") == 1  # the appended line only

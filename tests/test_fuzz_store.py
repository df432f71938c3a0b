"""Differential fuzzing of store/query round-trips (hypothesis).

Random cases (arch, size, workload, seed, unicode tag, overrides such
as ``8`` vs ``8.0`` and one pair in both orders, which share a key but
not a ``case_id``) are put through a writer store with random metrics
-- missing, NaN, inf, strings, booleans, an integer too large for a
float, ``0.0``/``-0.0`` ties -- and random npz payloads.  Between the
puts, payloads are deleted, earlier cases are re-put with new metrics
(a key rewritten after queries built the column cache) and queries
run; at the end one shard is rewritten shorter and more records are
appended.  After each step ``query_results`` on the writer, on a
long-lived reader and on a fresh reader must equal, byte for byte as
JSON, a brute-force recount: every shard line parsed (last writer
wins, records with a missing npz dropped), ``case_from_record`` ->
``SweepCase.case_id``, ``sorted``, a per-record filter, then a
per-value Neumaier loop with builtin ``min``/``max``.  The writer
and the long-lived reader must also serve the same ``iter_records``
records, ``get`` results and page rows as a fresh reader, byte for
byte as JSON: records are decoded from stored lines, page rows are
rebuilt from the index, and the two must never drift apart.

The suite is derandomised with a fixed example budget, so tier-1 runs
the same examples every time.  Counterexamples the fuzzer shrinks are
committed to ``TestRegressions``.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.queries import MAX_PAGE_ROWS, ResultQuery, query_results
from repro.eval.store import (
    ResultStore,
    case_from_record,
    case_key,
    evaluator_fingerprint,
)
from repro.eval.sweeps import SweepCase, SweepResult


def _fuzz_eval(case):
    return {"lat": float(case.seed)}


FP = evaluator_fingerprint(_fuzz_eval)

ARCHS = ("siam", "kite", "floret")
SIZES = (16, 36)
WORKLOADS = ("uniform", "hotspot@0.1")
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
)


# -- the brute-force recount ---------------------------------------------


def _disk_records(root: Path) -> dict:
    """Every record on disk, last writer wins, incomplete ones dropped."""
    records = {}
    for shard in sorted(root.glob("shard-*.jsonl")):
        for line in shard.read_bytes().splitlines():
            record = json.loads(line)
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
            "rows": {row: {col: _neumaier(vals) / len(vals)
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
            # queries built the column cache.
            if self.cases:
                self.put(self.cases[event[1] % len(self.cases)], event[2],
                         False)
        elif kind == "drop_npz":
            if self.array_keys:
                key = self.array_keys[event[1] % len(self.array_keys)]
                (self.root / "arrays" / f"{key}.npz").unlink(missing_ok=True)
        else:
            self.check(event[1])

    def check(self, query: ResultQuery) -> None:
        expected = recount(self.root, query)
        want = _dumps(expected)
        fresh = ResultStore(self.root)
        for name, store in (("writer", self.writer),
                            ("reader", self.reader),
                            ("fresh", fresh)):
            got = query_results(store, query)
            assert _dumps(got) == want, f"{name} disagrees with the recount"
            # sort_keys hides dict order: pivot rows, and the columns
            # within a row, come in order of first appearance.
            assert _layout(got) == _layout(expected), f"{name} pivot order"
        views = _views(fresh)
        for name, store in (("writer", self.writer),
                            ("reader", self.reader)):
            assert _views(store) == views, f"{name} serves other records"

    def rewrite_shorter(self, pick: int) -> None:
        """Drop the tail half of one shard, as a compaction would."""
        shards = sorted(self.root.glob("shard-*.jsonl"))
        if not shards:
            return
        shard = shards[pick % len(shards)]
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[:len(lines) // 2]))


def _round_trip(steps, checks, pick, tail) -> None:
    with tempfile.TemporaryDirectory() as root:
        harness = Harness(Path(root))
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
        # replace the built metric column.
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

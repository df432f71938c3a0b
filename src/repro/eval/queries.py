"""Query layer over a :class:`~repro.eval.store.ResultStore`.

The store is a content-addressed cache keyed for *exact replay*; a
service answering ad-hoc questions needs the complementary access
path: *which results match these scenario axes, and what do they
aggregate to?*  This module is that path -- the ``GET /v1/results``
endpoint of :mod:`repro.svc` is a thin HTTP shim over it, and it is
equally usable from scripts against any store directory.

Three properties matter for serving queries at scale:

* **Array-speed filters and folds, no payload I/O.**  A query reads
  the store's index as it is (:meth:`~repro.eval.store.ResultStore
  .columns`): per-axis codes into each axis's distinct values and
  float64 metric columns over the records, which sit at stable
  positions in flat lists.  Each
  filter is evaluated once per *distinct* value of its axis and
  broadcast into a position mask; the matches, in order, are
  ``perm[mask[perm]]`` for the store's ``(case_id, key)`` permutation
  ``perm``.  No :class:`~repro.eval.sweeps.SweepCase` or
  :class:`~repro.eval.sweeps.SweepResult` is built, and only the
  returned page's records are rebuilt from the lists (each
  ``case_id`` was computed when its record was indexed), their lines
  decoded by one ``json.loads`` for the metrics they echo.  Array
  payloads (npz) are never opened; only records flagged as having one
  are checked for its existence, and a row merely reports
  ``has_arrays`` so a client can fetch the heavy data by key through
  other means.  Combined with the store's (mtime, size) refresh guard,
  a repeated query over a quiescent store touches no file contents at
  all, and a cold query on a fresh handle loads the store's one index
  snapshot instead of decoding the lines it covers
  (:mod:`repro.eval.store`).
* **Deterministic pagination.**  Matches come in ``(case_id, key)``
  order -- the order of the store's record index, kept sorted as
  records arrive, so a query never sorts -- and the ``offset``/
  ``limit`` window is cut from that order, so the same query against
  the same store content always returns the same page -- regardless
  of which worker wrote which record when.
* **Server-side aggregates.**  Requested metrics are folded over
  *all* matches -- not just the returned page -- in the deterministic
  order above, so identical store content yields bit-identical
  aggregates.  The fold is the Neumaier-compensated arithmetic of
  :meth:`~repro.obs.metrics.StreamingStats.extend` (the streaming
  sweeps' fold, and this one's scalar oracle), done in a few array
  passes: ``np.add.accumulate`` for the running sums, one elementwise
  step for the compensation terms, the first ``argmin``/``argmax``
  for the extrema (:func:`_fold`).  An optional pivot metric folds
  each (workload row, arch column) cell the same way, rows and columns
  in first-appearance order, equal values (``16`` and ``16.0``) in one
  row or column labelled by the first of them (the table
  ``SweepOutcome.pivot`` and :class:`~repro.eval.stream.RunningPivot`
  build).  Aggregates and
  pivot count the same values as ``missing``: absent, non-numeric,
  non-finite or too large for a float
  (:func:`~repro.eval.store.finite_float`).  Page rows echo stored
  metrics with NaN and infinities as ``null``, and a sum, mean or
  pivot cell that overflows is ``null`` too, so every response is
  strict JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..obs.metrics import StreamingStats
from .store import RecordColumns, ResultStore

__all__ = [
    "ResultQuery",
    "parse_result_query",
    "query_results",
]

#: Pagination ceiling: one page never ships more rows than this, no
#: matter what ``limit`` a client asks for.
MAX_PAGE_ROWS = 1000


@dataclass(frozen=True)
class ResultQuery:
    """One query: axis filters + pagination + requested aggregates.

    Empty filter tuples mean "any value" for that axis.  ``overrides``
    is a *subset* match on the case's ``noi_overrides``: every listed
    ``(name, value)`` pair must be present (numeric values compare as
    floats, so ``8`` matches ``8.0``); cases may carry more overrides
    than the query names.
    """

    archs: Tuple[str, ...] = ()
    sizes: Tuple[int, ...] = ()
    workloads: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = ()
    tags: Tuple[str, ...] = ()
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: Metrics to aggregate server-side over every match.
    metrics: Tuple[str, ...] = ()
    #: Optional metric to pivot into a {workload: {arch: mean}} table.
    pivot: str = ""
    offset: int = 0
    limit: int = 50


def _values_equal(a: object, b: object) -> bool:
    """Override-value equality: numbers numerically, the rest exactly."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        try:
            return float(a) == float(b)
        except OverflowError:  # an int too large for a float
            return a == b
    return a == b


def _parse_override(text: str) -> Tuple[str, object]:
    """``"name=value"`` with the value parsed as JSON when possible."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise ValueError(
            f"override filter {text!r} is not 'name=value'"
        )
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return name, value


def parse_result_query(
    params: Mapping[str, Sequence[str]],
) -> ResultQuery:
    """Build a :class:`ResultQuery` from parsed query-string params.

    ``params`` is the ``urllib.parse.parse_qs`` shape -- each key maps
    to a list of values, and repeating a key widens the filter
    (``arch=siam&arch=kite`` matches either).  ``metrics`` accepts
    comma-separated lists as well as repeats.  Unknown parameter names
    raise ``ValueError`` so a typo'd filter fails loudly instead of
    silently matching everything.
    """
    known = {
        "arch", "size", "workload", "seed", "tag", "override",
        "metric", "metrics", "pivot", "offset", "limit",
    }
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown query parameters {unknown} "
            f"(known: {sorted(known)})"
        )

    def values(name: str) -> List[str]:
        return [v for v in params.get(name, ()) if v != ""]

    def split_csv(name: str) -> List[str]:
        out: List[str] = []
        for chunk in values(name):
            out.extend(p for p in chunk.split(",") if p)
        return out

    def one_int(name: str, default: int) -> int:
        got = values(name)
        if not got:
            return default
        try:
            return int(got[-1])
        except ValueError:
            raise ValueError(
                f"query parameter {name}={got[-1]!r} is not an integer"
            ) from None

    try:
        sizes = tuple(int(v) for v in values("size"))
        seeds = tuple(int(v) for v in values("seed"))
    except ValueError:
        raise ValueError(
            "size/seed filters must be integers"
        ) from None
    return ResultQuery(
        archs=tuple(values("arch")),
        sizes=sizes,
        workloads=tuple(values("workload")),
        seeds=seeds,
        tags=tuple(values("tag")),
        overrides=tuple(_parse_override(v) for v in values("override")),
        metrics=tuple(split_csv("metric") + split_csv("metrics")),
        pivot=(values("pivot") or [""])[-1],
        offset=max(0, one_int("offset", 0)),
        limit=one_int("limit", 50),
    )


def _member(value: object, wanted: Tuple[object, ...]) -> bool:
    """Axis filter: the value is one of the wanted ones."""
    return value in wanted


def _has_overrides(pairs, wanted: Tuple[Tuple[str, object], ...]) -> bool:
    """Override filter: every wanted ``(name, value)`` pair is present."""
    have = {str(name): value for name, value in pairs}
    return all(name in have and _values_equal(have[name], value)
               for name, value in wanted)


def _matches(columns: RecordColumns, query: ResultQuery) -> np.ndarray:
    """Positions of the matching records, in ``(case_id, key)`` order.

    Each filter runs once per *distinct* value of its axis; the
    per-value verdicts are broadcast over the records through the
    axis codes into one position mask.
    """
    mask = None
    for axis, wanted, test in (
        ("arch", query.archs, _member),
        ("num_chiplets", query.sizes, _member),
        ("workload", query.workloads, _member),
        ("seed", query.seeds, _member),
        ("tag", query.tags, _member),
        ("noi_overrides", query.overrides, _has_overrides),
    ):
        if not wanted:
            continue
        codes, distinct = columns.axis(axis)
        keep = np.fromiter((test(value, wanted) for value in distinct),
                           bool, len(distinct))[codes]
        mask = keep if mask is None else mask & keep
    perm = columns.perm
    return columns.complete(perm if mask is None else perm[mask[perm]])


def _fold(values: np.ndarray) -> StreamingStats:
    """Neumaier fold of the finite ``values`` (NaN = missing), in order:
    bit for bit what :meth:`StreamingStats.extend
    <repro.obs.metrics.StreamingStats.extend>` makes of them, in a few
    array passes.

    ``np.add.accumulate`` adds strictly left to right (``np.sum`` would
    add pairwise), so it yields every running sum the loop does, each
    from ``0.0`` on; each step's compensation term is one elementwise
    ``np.where`` of the running sums before and after it, and a second
    ``accumulate`` adds the terms up in the loop's order.  Min and max
    are the first ``argmin``/``argmax``: a later equal value (``-0.0``
    after ``0.0``) does not replace them.  A sum that overflows gives
    the loop's inf or NaN.
    """
    values = values[~np.isnan(values)]
    stats = StreamingStats()
    if not len(values):
        return stats
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.accumulate(np.concatenate(([0.0], values)))
        before, after = sums[:-1], sums[1:]
        terms = np.where(np.abs(before) >= np.abs(values),
                         (before - after) + values, (values - after) + before)
        comp = np.add.accumulate(np.concatenate(([0.0], terms)))
    stats.count = len(values)
    stats._sum, stats._compensation = float(sums[-1]), float(comp[-1])
    stats.min = float(values[values.argmin()])
    stats.max = float(values[values.argmax()])
    return stats


def _aggregate(values: np.ndarray) -> Dict[str, object]:
    """One metric's aggregate over the matches' column values.

    Matches without a finite number for the metric are counted as
    ``missing`` (mixed-evaluator stores are normal) instead of raising
    mid-fold.  A ``sum`` or ``mean`` that overflows to inf or NaN is
    ``None`` (JSON ``null``), the rule page rows follow, while
    ``count`` still counts the values.
    """
    stats = _fold(values)
    count = stats.count
    return {
        "count": count,
        "sum": _json_number(stats.sum),
        "mean": _json_number(stats.mean),
        "min": stats.min if count else None,
        "max": stats.max if count else None,
        "missing": len(values) - count,
    }


def _pivot(columns: RecordColumns, matches: np.ndarray,
           metric: str) -> Dict[str, object]:
    """Mean of ``metric`` per (workload row, arch column) cell.

    Each cell folds its values in match order; rows, and the columns
    within a row, come out in order of first appearance among the
    finite values -- the table a per-record
    :class:`~repro.eval.stream.RunningPivot` fold would build.  Equal
    values (``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``) share a
    row or column, which the first of them in match order labels, as a
    dict keyed by value keeps its first key.  A cell whose mean
    overflows is ``None``.
    """
    values = columns.metric(metric)[matches]
    finite = ~np.isnan(values)
    held = matches[finite]
    row_codes, rows = columns.axis("workload")
    col_codes, cols = columns.axis("arch")
    row_codes, col_codes = row_codes[held], col_codes[held]
    cell = _merged(rows)[row_codes] * len(cols) + _merged(cols)[col_codes]
    order = np.argsort(cell, kind="stable")
    _, first, counts = np.unique(cell, return_index=True,
                                 return_counts=True)
    groups = np.split(values[finite][order], np.cumsum(counts)[:-1])
    table: Dict[object, Dict[object, float]] = {}
    for i in np.argsort(first).tolist():
        at = first[i]
        table.setdefault(rows[row_codes[at]], {})[
            cols[col_codes[at]]] = _json_number(_fold(groups[i]).mean)
    return {
        "metric": metric,
        "missing": int(len(values) - finite.sum()),
        "rows": {str(row): {str(col): mean for col, mean in means.items()}
                 for row, means in table.items()},
    }


def _merged(distinct: list) -> np.ndarray:
    """A code per one of ``distinct``, shared by the values that are
    equal: one dict over the few distinct values of an axis."""
    codes: Dict[object, int] = {}
    return np.array([codes.setdefault(value, len(codes))
                     for value in distinct], np.int64)


def _json_number(value: object) -> object:
    """``value`` with NaN/inf floats as ``None`` (strict JSON ``null``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _row(record: Mapping, case_id: str) -> Dict[str, object]:
    """Page row of a :meth:`RecordColumns.page_records
    <repro.eval.store.RecordColumns.page_records>` record."""
    return {
        "key": record["k"],
        "case_id": case_id,
        "case": record["case"],
        "metrics": {name: _json_number(value)
                    for name, value in record["metrics"].items()},
        "elapsed_s": float(record["elapsed_s"]),
        "has_arrays": record["arrays"],
    }


def query_results(store: ResultStore, query: ResultQuery) -> Dict[str, object]:
    """Execute ``query`` against ``store``; JSON-ready response dict.

    Returns ``{"total", "offset", "limit", "results", "aggregates",
    "pivot"}``: ``total`` counts every match, ``results`` is the
    deterministic ``(case_id, key)``-ordered page, ``aggregates`` maps
    each requested metric to its fold over all matches, and ``pivot``
    (present only when requested) is the mean table of the pivot
    metric over workload rows x arch columns.  Filters, folds and the
    page all read the store's index
    (:meth:`~repro.eval.store.ResultStore.columns`).  A page line whose
    shard changed since it was indexed makes the store index that shard
    again and the query run once more
    (:meth:`~repro.eval.store.ResultStore.retrying`).
    """
    return store.retrying(lambda: _answer(store.columns(), query))


def _answer(columns: RecordColumns, query: ResultQuery) -> Dict[str, object]:
    """:func:`query_results` over ``columns``."""
    matches = _matches(columns, query)
    limit = max(0, min(query.limit, MAX_PAGE_ROWS))
    page = matches[query.offset:query.offset + limit].tolist()
    out: Dict[str, object] = {
        "total": len(matches),
        "offset": query.offset,
        "limit": limit,
        "results": [_row(record, columns.case_id(pos)) for pos, record
                    in zip(page, columns.page_records(page))],
        "aggregates": {
            name: _aggregate(columns.metric(name)[matches])
            for name in query.metrics
        },
    }
    if query.pivot:
        out["pivot"] = _pivot(columns, matches, query.pivot)
    return out

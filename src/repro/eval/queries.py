"""Query layer over a :class:`~repro.eval.store.ResultStore`.

The store is a content-addressed cache keyed for *exact replay*; a
service answering ad-hoc questions needs the complementary access
path: *which results match these scenario axes, and what do they
aggregate to?*  This module is that path -- the ``GET /v1/results``
endpoint of :mod:`repro.svc` is a thin HTTP shim over it, and it is
equally usable from scripts against any store directory.

Three properties matter for serving queries at scale:

* **No payload I/O, no per-record objects.**  Filtering and
  aggregation walk the store's raw JSONL records
  (:meth:`~repro.eval.store.ResultStore.iter_records`) -- scalar
  metrics and case axes only -- and test filters on each record's
  ``case`` mapping directly; no :class:`~repro.eval.sweeps.SweepCase`
  or :class:`~repro.eval.sweeps.SweepResult` is built per record, and
  ``case_id`` is computed only for the returned page.  Array payloads
  (npz) are never opened; a row merely reports ``has_arrays`` so a
  client can fetch the heavy data by key through other means.
  Combined with the store's (mtime, size) refresh guard, a repeated
  query over a quiescent store touches no file contents at all.
* **Deterministic pagination.**  Matches come in ``(case_id, key)``
  order -- the order of the store's record index, kept sorted as
  records arrive, so a query never sorts -- and the ``offset``/
  ``limit`` window is cut from that order, so the same query against
  the same store content always returns the same page -- regardless
  of which worker wrote which record when.
* **Server-side aggregates.**  Requested metrics fold through
  :class:`~repro.eval.stream.RunningStats` (Neumaier-compensated, the
  same machinery as the streaming sweeps) over *all* matches -- not
  just the returned page -- in the deterministic order above, so
  identical store content yields bit-identical aggregates.  An
  optional pivot metric folds a :class:`~repro.eval.stream
  .RunningPivot` (workload rows x arch columns, like
  ``SweepOutcome.pivot``).  Aggregates and pivot count the same
  values as ``missing``: absent, non-numeric or non-finite ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .store import ResultStore
from .stream import RunningPivot, RunningStats
from .sweeps import case_id_of

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

    def matches(self, case: Mapping) -> bool:
        """Whether a stored record's ``case`` mapping passes the filters."""
        if self.archs and case["arch"] not in self.archs:
            return False
        if self.sizes and case["num_chiplets"] not in self.sizes:
            return False
        if self.workloads and case["workload"] not in self.workloads:
            return False
        if self.seeds and case["seed"] not in self.seeds:
            return False
        if self.tags and case.get("tag", "") not in self.tags:
            return False
        if self.overrides:
            have = {str(name): value
                    for name, value in case["noi_overrides"]}
            for name, value in self.overrides:
                if name not in have or not _values_equal(have[name], value):
                    return False
        return True


def _finite(value: object) -> Optional[float]:
    """``value`` as a float if it is a finite number, else ``None``."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return float(value)
    return None


def _values_equal(a: object, b: object) -> bool:
    """Override-value equality: numbers numerically, the rest exactly."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
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


@dataclass
class _MetricFold:
    """One metric's server-side aggregate over the matched results."""

    stats: RunningStats
    #: Matches that lacked the metric or held no finite number for it
    #: (mixed-evaluator stores are normal; the count is surfaced
    #: instead of raising mid-fold).
    missing: int = 0

    def add(self, value: object) -> None:
        number = _finite(value)
        if number is None:
            self.missing += 1
        else:
            self.stats.add(number)

    def payload(self) -> Dict[str, object]:
        count = self.stats.count
        return {
            "count": count,
            "sum": self.stats.sum if count else 0.0,
            "mean": self.stats.mean if count else None,
            "min": self.stats.min if count else None,
            "max": self.stats.max if count else None,
            "missing": self.missing,
        }


def _row(key: str, record: Mapping) -> Dict[str, object]:
    case = record["case"]
    return {
        "key": key,
        "case_id": case_id_of(case),
        "case": {
            "arch": case["arch"],
            "num_chiplets": case["num_chiplets"],
            "workload": case["workload"],
            "seed": case["seed"],
            "noi_overrides": [[str(name), value]
                              for name, value in case["noi_overrides"]],
            "tag": case.get("tag", ""),
        },
        "metrics": dict(record["metrics"]),
        "elapsed_s": float(record["elapsed_s"]),
        "has_arrays": bool(record.get("arrays")),
    }


def query_results(store: ResultStore, query: ResultQuery) -> Dict[str, object]:
    """Execute ``query`` against ``store``; JSON-ready response dict.

    Returns ``{"total", "offset", "limit", "results", "aggregates",
    "pivot"}``: ``total`` counts every match, ``results`` is the
    deterministic ``(case_id, key)``-ordered page, ``aggregates`` maps
    each requested metric to its fold over all matches, and ``pivot``
    (present only when requested) is the mean table of the pivot
    metric over workload rows x arch columns.  One pass over the
    store's ordered records does all of it.
    """
    folds = {name: _MetricFold(RunningStats(name)) for name in query.metrics}
    pivot = (
        RunningPivot(query.pivot, row=itemgetter("workload"),
                     col=itemgetter("arch"))
        if query.pivot else None
    )
    pivot_missing = 0
    limit = max(0, min(query.limit, MAX_PAGE_ROWS))
    first, stop = query.offset, query.offset + limit
    page: List[Tuple[str, Mapping]] = []
    total = 0
    for key, record in store.iter_records():
        case = record["case"]
        if not query.matches(case):
            continue
        if first <= total < stop:
            page.append((key, record))
        total += 1
        metrics = record["metrics"]
        for name, fold in folds.items():
            fold.add(metrics.get(name))
        if pivot is not None:
            value = _finite(metrics.get(query.pivot))
            if value is None:
                pivot_missing += 1
            else:
                pivot.add(case, value)

    out: Dict[str, object] = {
        "total": total,
        "offset": query.offset,
        "limit": limit,
        "results": [_row(key, record) for key, record in page],
        "aggregates": {
            name: fold.payload() for name, fold in folds.items()
        },
    }
    if pivot is not None:
        out["pivot"] = {
            "metric": query.pivot,
            "missing": pivot_missing,
            "rows": {
                str(row): {str(col): mean for col, mean in cols.items()}
                for row, cols in pivot.table().items()
            },
        }
    return out

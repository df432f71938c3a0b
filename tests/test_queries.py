"""Unit tests: the ResultStore query layer (repro.eval.queries)."""

from __future__ import annotations

import json
import math
import threading
import urllib.parse
import urllib.request

import numpy as np
import pytest
from helpers import MALFORMED_RECORDS, malformed_store

from repro.eval.queries import (
    MAX_PAGE_ROWS,
    ResultQuery,
    parse_result_query,
    query_results,
)
from repro.eval.store import ResultStore, case_key, evaluator_fingerprint
from repro.eval.stream import RunningStats
from repro.eval.sweeps import SweepCase, SweepResult


def _eval_q(case):
    return {"value": float(case.seed + len(case.arch))}


FP = evaluator_fingerprint(_eval_q)


def _put(store, case, metrics, arrays=None):
    key = case_key(case, FP)
    store.put(key, SweepResult(
        case=case, metrics=metrics, elapsed_s=0.125, arrays=arrays,
    ))
    return key


@pytest.fixture()
def filled(tmp_path):
    """A store mixing axes, tags, overrides, arrays and metric sets."""
    store = ResultStore(tmp_path)
    cases = []
    for arch in ("siam", "kite"):
        for workload in ("uniform", "neighbor"):
            for seed in (0, 1):
                case = SweepCase(
                    arch=arch, num_chiplets=16, workload=workload,
                    seed=seed, tag="grid-β" if arch == "siam" else "",
                )
                _put(store, case, {
                    "value": float(seed + len(arch)),
                    "latency": 10.0 * (seed + 1),
                })
                cases.append(case)
    # One overridden case with an array payload and a sparser metric set.
    special = SweepCase(
        arch="siam", num_chiplets=36, workload="uniform", seed=7,
        noi_overrides=(("flit_bytes", 64),), tag="overridden",
    )
    _put(store, special, {"value": 99.0},
         arrays={"tiers": np.arange(3)})
    cases.append(special)
    return ResultStore(tmp_path), cases


class TestFilters:
    def test_empty_query_matches_everything(self, filled):
        store, cases = filled
        out = query_results(store, ResultQuery(limit=100))
        assert out["total"] == len(cases)
        assert len(out["results"]) == len(cases)

    def test_axis_filters_narrow(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(
            archs=("siam",), workloads=("uniform",), seeds=(0,),
            sizes=(16,),
        ))
        assert out["total"] == 1
        row = out["results"][0]
        assert row["case"]["arch"] == "siam"
        assert row["case"]["workload"] == "uniform"

    def test_repeated_values_widen(self, filled):
        store, _ = filled
        both = query_results(store, ResultQuery(
            archs=("siam", "kite"), sizes=(16,),
        ))
        assert both["total"] == 8

    def test_unicode_tag_filter(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(tags=("grid-β",)))
        assert out["total"] == 4
        assert all(r["case"]["tag"] == "grid-β" for r in out["results"])

    def test_override_subset_match_is_numeric(self, filled):
        store, _ = filled
        for probe in (64, 64.0):
            out = query_results(store, ResultQuery(
                overrides=(("flit_bytes", probe),),
            ))
            assert out["total"] == 1
            assert out["results"][0]["case"]["tag"] == "overridden"
        none = query_results(store, ResultQuery(
            overrides=(("flit_bytes", 32),),
        ))
        assert none["total"] == 0

    def test_has_arrays_flag_without_payload_io(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(tags=("overridden",)))
        assert out["results"][0]["has_arrays"] is True
        assert store.stats.hits == 0  # no npz was ever opened


class TestPagination:
    def test_pages_tile_the_match_set_deterministically(self, filled):
        store, cases = filled
        whole = query_results(store, ResultQuery(limit=100))["results"]
        keys = [r["key"] for r in whole]
        assert keys == sorted(set(keys), key=lambda k: (
            next(r["case_id"] for r in whole if r["key"] == k), k
        ))
        paged = []
        for offset in range(0, len(cases), 2):
            page = query_results(
                store, ResultQuery(offset=offset, limit=2)
            )["results"]
            paged.extend(r["key"] for r in page)
        assert paged == keys

    def test_identical_queries_are_bit_identical(self, filled):
        store, _ = filled
        query = ResultQuery(metrics=("value",), pivot="value", limit=5)
        a = json.dumps(query_results(store, query), sort_keys=True)
        b = json.dumps(query_results(store, query), sort_keys=True)
        # A second, fresh reader over the same directory agrees too.
        fresh = ResultStore(store.root)
        c = json.dumps(query_results(fresh, query), sort_keys=True)
        assert a == b == c

    def test_limit_is_capped(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(limit=10**9))
        assert out["limit"] == MAX_PAGE_ROWS

    def test_offset_past_the_end_is_empty(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(offset=1000, limit=10))
        assert out["results"] == []
        assert out["total"] > 0


class TestAggregates:
    def test_stats_cover_all_matches_not_the_page(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(
            sizes=(16,), metrics=("value",), limit=2,
        ))
        agg = out["aggregates"]["value"]
        assert agg["count"] == 8
        assert len(out["results"]) == 2

    def test_stats_match_a_manual_fold(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(
            sizes=(16,), metrics=("latency",), limit=100,
        ))
        ref = RunningStats("latency")
        for row in out["results"]:
            ref.add(row["metrics"]["latency"])
        agg = out["aggregates"]["latency"]
        assert agg["count"] == ref.count
        assert agg["sum"] == ref.sum
        assert agg["mean"] == ref.mean
        assert agg["min"] == ref.min
        assert agg["max"] == ref.max
        assert agg["missing"] == 0

    def test_missing_metric_is_counted_not_raised(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(metrics=("latency",)))
        # The overridden special case lacks "latency".
        assert out["aggregates"]["latency"]["missing"] == 1
        assert out["aggregates"]["latency"]["count"] == 8

    def test_no_matches_yields_null_mean(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(
            archs=("nosuch",), metrics=("value",),
        ))
        agg = out["aggregates"]["value"]
        assert agg == {"count": 0, "sum": 0.0, "mean": None,
                       "min": None, "max": None, "missing": 0}

    def test_pivot_table(self, filled):
        store, _ = filled
        out = query_results(store, ResultQuery(
            sizes=(16,), pivot="value",
        ))
        rows = out["pivot"]["rows"]
        assert set(rows) == {"uniform", "neighbor"}
        assert set(rows["uniform"]) == {"siam", "kite"}
        # mean of seeds (0, 1) with value = seed + len(arch)
        assert rows["uniform"]["siam"] == pytest.approx(4.5)
        assert rows["uniform"]["kite"] == pytest.approx(4.5)
        assert out["pivot"]["missing"] == 0


class TestMissingValues:
    """The pivot and the aggregates agree on which values are missing:
    absent, non-numeric and non-finite ones."""

    @pytest.fixture()
    def odd(self, tmp_path):
        store = ResultStore(tmp_path)
        values = [1.0, 2, math.nan, math.inf, -math.inf, "x", None]
        for seed, value in enumerate(values):
            _put(store, SweepCase(arch="siam", num_chiplets=16, seed=seed),
                 {"lat": value})
        _put(store, SweepCase(arch="siam", num_chiplets=16, seed=99), {})
        return tmp_path

    def test_pivot_counts_what_aggregates_count(self, odd):
        out = query_results(ResultStore(odd), ResultQuery(
            metrics=("lat",), pivot="lat", limit=0,
        ))
        agg = out["aggregates"]["lat"]
        assert (agg["count"], agg["missing"]) == (2, 6)
        assert out["pivot"]["missing"] == agg["missing"]
        assert out["pivot"]["rows"] == {"uniform": {"siam": 1.5}}

    def test_service_body_is_strict_json(self, odd):
        payload = _strict_json(
            _served_body(odd, "pivot=lat&metric=lat&limit=0"))
        assert payload["pivot"]["missing"] == 6
        assert payload["pivot"]["rows"] == {"uniform": {"siam": 1.5}}

    def test_page_rows_emit_null_for_nan_and_inf(self, odd):
        out = query_results(ResultStore(odd), ResultQuery(limit=100))
        lat = [row["metrics"].get("lat", "absent")
               for row in sorted(out["results"],
                                 key=lambda r: r["case"]["seed"])]
        assert lat == [1.0, 2, None, None, None, "x", None, "absent"]
        rows = _strict_json(_served_body(odd, "limit=100"))["results"]
        assert [r["metrics"].get("lat", "absent") for r in rows] == [
            r["metrics"].get("lat", "absent") for r in out["results"]]


def _strict_json(body: bytes):
    """``body`` parsed, rejecting bare NaN/Infinity (invalid JSON)."""
    def reject(constant):
        raise ValueError(f"bare {constant} in the response body")

    return json.loads(body, parse_constant=reject)


def _served_body(root, query: str) -> bytes:
    """The raw ``/v1/results?<query>`` body of a service over ``root``."""
    from repro.svc import start_service

    service = start_service(root, workers=1)
    thread = threading.Thread(target=service.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = service.server_address[:2]
    try:
        url = f"http://{host}:{port}/v1/results?{query}"
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.status == 200
            return response.read()
    finally:
        service.shutdown()
        service.server_close()


@pytest.mark.parametrize("shape", sorted(MALFORMED_RECORDS))
def test_malformed_record_is_skipped_directly_and_over_http(tmp_path,
                                                            shape):
    malformed_store(tmp_path, shape, FP)
    query = "arch=kite&override=flit_bytes=64&metric=value&pivot=value"
    direct = query_results(ResultStore(tmp_path), parse_result_query(
        urllib.parse.parse_qs(query)))
    assert direct["total"] == 2
    assert direct["aggregates"]["value"]["sum"] == 2.0
    assert json.loads(_served_body(tmp_path, query)) \
        == json.loads(json.dumps(direct))


class TestHugeIntegers:
    """An integer metric too large for a float is missing, not fatal."""

    @pytest.fixture()
    def huge(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed, value in enumerate([10 ** 400, 3.0, -(10 ** 400), 5]):
            _put(store, SweepCase(arch="kite", num_chiplets=16, seed=seed),
                 {"lat": value})
        return tmp_path

    def test_direct_query_counts_them_missing(self, huge):
        out = query_results(ResultStore(huge), ResultQuery(
            metrics=("lat",), pivot="lat", limit=10,
        ))
        agg = out["aggregates"]["lat"]
        assert (agg["count"], agg["missing"]) == (2, 2)
        assert (agg["sum"], agg["min"], agg["max"]) == (8.0, 3.0, 5.0)
        assert out["pivot"]["missing"] == 2
        assert out["pivot"]["rows"] == {"uniform": {"kite": 4.0}}
        # The page echoes the stored integer exactly.
        assert out["results"][0]["metrics"]["lat"] == 10 ** 400

    def test_override_filter_on_a_huge_integer(self, huge):
        store = ResultStore(huge)
        _put(store, SweepCase(arch="kite", num_chiplets=16, seed=9,
                              noi_overrides=(("flit_bytes", 10 ** 400),)),
             {"lat": 1.0})
        for value, total in ((10 ** 400, 1), (10 ** 400 + 1, 0), (64, 0)):
            out = query_results(store, ResultQuery(
                overrides=(("flit_bytes", value),)))
            assert out["total"] == total

    def test_service_answers_instead_of_dropping(self, huge):
        payload = json.loads(_served_body(huge, "metric=lat&pivot=lat"))
        assert payload["aggregates"]["lat"]["missing"] == 2
        assert payload["pivot"]["rows"] == {"uniform": {"kite": 4.0}}


class TestParseOnce:
    """Queries walk the store's ordered raw records: no SweepCase per
    record, no re-read of a quiescent store, no repeated case_id."""

    def test_quiescent_queries_parse_and_read_nothing(self, filled,
                                                      monkeypatch):
        from repro.eval import store as store_module

        store, cases = filled
        calls = []

        def counting(name):
            original = getattr(store_module, name)

            def counted(arg):
                calls.append(name)
                return original(arg)
            return counted

        for name in ("case_from_record", "case_id_of"):
            monkeypatch.setattr(store_module, name, counting(name))
        query = ResultQuery(metrics=("value",), pivot="value", limit=3)
        first = query_results(store, query)
        # The first query indexes each record once; none is rebuilt
        # into a SweepCase.
        assert calls == ["case_id_of"] * len(cases)
        reads = store.stats.shard_reads
        calls.clear()
        for _ in range(5):
            assert query_results(store, query) == first
        assert calls == []
        assert store.stats.shard_reads == reads


class TestColumns:
    """Filters run once per distinct axis value, never per record."""

    def test_predicates_run_once_per_distinct_value(self, tmp_path,
                                                    monkeypatch):
        from repro.eval import queries

        store = ResultStore(tmp_path)
        for seed in range(30):
            _put(store, SweepCase(
                arch=("siam", "kite")[seed % 2], num_chiplets=16,
                workload=("uniform", "neighbor", "hotspot")[seed % 3],
                seed=seed, tag=("a", "b")[seed % 2],
                noi_overrides=((), (("flit_bytes", 64),))[seed % 2],
            ), {"value": float(seed)})
        calls = []

        def counting(name):
            original = getattr(queries, name)

            def counted(value, wanted):
                calls.append(name)
                return original(value, wanted)
            return counted

        for name in ("_member", "_has_overrides"):
            monkeypatch.setattr(queries, name, counting(name))
        query = ResultQuery(
            archs=("kite",), workloads=("uniform", "hotspot"),
            seeds=tuple(range(0, 30, 3)), tags=("b",),
            overrides=(("flit_bytes", 64),), metrics=("value",),
            pivot="value",
        )
        first = query_results(store, query)
        # 2 archs + 3 workloads + 30 seeds + 2 tags, 2 override sets.
        assert sorted(calls) == ["_has_overrides"] * 2 + ["_member"] * 37
        calls.clear()
        assert query_results(store, query) == first
        assert len(calls) == 39
        assert first["total"] == 5  # odd seeds divisible by 3
        # case_id order: "s15" < "s21" < "s27" < "s3" < "s9".
        assert [r["case"]["seed"] for r in first["results"]] \
            == [15, 21, 27, 3, 9]


class TestSharedColumnCache:
    def test_concurrent_service_queries_match_a_fresh_store(
            self, tmp_path):
        # The service's one read store builds and extends its column
        # cache lazily under its lock: threads racing to do so must
        # each get a fresh reader's answer.
        import sys

        from repro.svc.jobs import JobManager

        writer = ResultStore(tmp_path)

        def put_seeds(seeds):
            for seed in seeds:
                _put(writer, SweepCase(
                    arch=("siam", "kite", "floret")[seed % 3],
                    num_chiplets=16,
                    workload=("uniform", "neighbor")[seed % 2], seed=seed,
                    noi_overrides=((), (("flit_bytes", 64),))[seed % 2],
                ), {"value": float(seed), "latency": 1.0 / (seed + 1)})

        shapes = [
            {"metric": ["value,latency"], "limit": ["5"]},
            {"pivot": ["latency"], "arch": ["kite", "siam"]},
            {"override": ["flit_bytes=64"], "metric": ["value"]},
            {"seed": ["1", "2", "301"], "workload": ["neighbor"]},
        ]
        put_seeds(range(300))
        manager = JobManager(tmp_path)
        first = manager.query(shapes[0])  # builds part of the cache
        put_seeds(range(300, 600))        # ...which the swarm extends
        answers, errors = [], []
        start = threading.Barrier(6)

        def client(offset):
            try:
                start.wait(timeout=30)
                for i in range(12):
                    params = shapes[(offset + i) % len(shapes)]
                    answers.append((params, manager.query(params)))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(answers) == 72
        fresh = ResultStore(tmp_path)
        want = {repr(params): query_results(fresh,
                                            parse_result_query(params))
                for params in shapes}
        assert (first["total"], want[repr(shapes[0])]["total"]) == (300, 600)
        for params, got in answers:
            assert got == want[repr(params)]


class TestParse:
    def test_parse_full_query(self):
        query = parse_result_query({
            "arch": ["siam", "kite"], "size": ["16"], "seed": ["0", "1"],
            "workload": ["uniform"], "tag": ["grid-β"],
            "override": ["flit_bytes=64"],
            "metric": ["value,latency"], "pivot": ["value"],
            "offset": ["4"], "limit": ["2"],
        })
        assert query.archs == ("siam", "kite")
        assert query.sizes == (16,)
        assert query.seeds == (0, 1)
        assert query.tags == ("grid-β",)
        assert query.overrides == (("flit_bytes", 64),)
        assert query.metrics == ("value", "latency")
        assert query.pivot == "value"
        assert (query.offset, query.limit) == (4, 2)

    def test_unknown_parameter_is_an_error(self):
        with pytest.raises(ValueError, match="unknown query parameters"):
            parse_result_query({"archs": ["siam"]})

    def test_bad_ints_are_errors(self):
        with pytest.raises(ValueError, match="integer"):
            parse_result_query({"size": ["big"]})
        with pytest.raises(ValueError, match="integer"):
            parse_result_query({"limit": ["many"]})

    def test_bad_override_is_an_error(self):
        with pytest.raises(ValueError, match="name=value"):
            parse_result_query({"override": ["flit_bytes"]})

    def test_string_override_value_passes_through(self):
        query = parse_result_query({"override": ["sim_engine=jit"]})
        assert query.overrides == (("sim_engine", "jit"),)

    def test_negative_offset_clamps(self):
        assert parse_result_query({"offset": ["-3"]}).offset == 0

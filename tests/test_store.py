"""Unit tests: the content-addressed on-disk ResultStore."""

from __future__ import annotations

import gc
import json
import os
import shutil
import tempfile
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from helpers import MALFORMED_RECORDS, malformed_store

import repro.eval.store as store_module
from repro.eval.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    StaleIndexError,
    _float_column,
    _load_snapshot,
    case_from_record,
    case_key,
    evaluator_fingerprint,
    finite_float,
)
from repro.eval.queries import ResultQuery, query_results
from repro.eval.sweeps import SweepCase, SweepResult, case_id_of


def _fn_a(case):
    return {"value": 1.0}


def _fn_b(case):
    return {"value": 2.0}


FP = evaluator_fingerprint(_fn_a)


def result_for(case, metrics=None, arrays=None, error=None):
    return SweepResult(
        case=case,
        metrics=metrics if metrics is not None else {"value": 1.0},
        elapsed_s=0.25,
        error=error,
        arrays=arrays,
    )


class TestKeys:
    def test_key_is_stable(self):
        case = SweepCase(arch="siam", num_chiplets=16, workload="uniform")
        assert case_key(case, FP) == case_key(case, FP)

    def test_tag_excluded_from_key(self):
        a = SweepCase(arch="siam", num_chiplets=16, tag="")
        b = SweepCase(arch="siam", num_chiplets=16, tag="renamed-grid")
        assert case_key(a, FP) == case_key(b, FP)

    def test_override_order_canonicalised(self):
        a = SweepCase(arch="siam", noi_overrides=(
            ("flit_bytes", 64), ("chiplet_pitch_mm", 4.0)))
        b = SweepCase(arch="siam", noi_overrides=(
            ("chiplet_pitch_mm", 4.0), ("flit_bytes", 64)))
        assert case_key(a, FP) == case_key(b, FP)

    @pytest.mark.parametrize("field,value", [
        ("arch", "kite"), ("num_chiplets", 36),
        ("workload", "hotspot"), ("seed", 1),
    ])
    def test_each_axis_changes_key(self, field, value):
        from dataclasses import replace

        base = SweepCase(arch="siam", num_chiplets=16, workload="uniform",
                         seed=0)
        assert case_key(base, FP) != case_key(
            replace(base, **{field: value}), FP
        )

    def test_evaluator_identity_changes_key(self):
        # Different source code -> different fingerprint -> cold cache.
        case = SweepCase(arch="siam")
        assert evaluator_fingerprint(_fn_a) != evaluator_fingerprint(_fn_b)
        assert case_key(case, evaluator_fingerprint(_fn_a)) != case_key(
            case, evaluator_fingerprint(_fn_b)
        )

    def test_fingerprint_names_the_function(self):
        assert "_fn_a" in evaluator_fingerprint(_fn_a)

    def test_fingerprint_rejects_address_bearing_callables(self):
        # functools.partial has no __qualname__; its repr embeds a
        # memory address, which would silently break content-addressing.
        from functools import partial

        with pytest.raises(TypeError, match="module-level function"):
            evaluator_fingerprint(partial(_fn_a))

    def test_fingerprint_rejects_stateful_closures(self):
        # Two closures from one factory share identical source; hashing
        # it would serve one configuration the other's cached results.
        def factory(scale):
            def evaluate(case):
                return {"x": scale}
            return evaluate

        with pytest.raises(TypeError, match="captured variables"):
            evaluator_fingerprint(factory(2.0))

    def test_fingerprint_rejects_bound_methods(self):
        class Evaluator:
            def evaluate(self, case):
                return {"x": 1.0}

        with pytest.raises(TypeError, match="instance state"):
            evaluator_fingerprint(Evaluator().evaluate)

    def test_package_version_participates_in_key(self, monkeypatch):
        # Bumping repro.__version__ is the documented lever to
        # invalidate cached results after callee-code (physics) fixes
        # that the evaluator-source hash cannot see.
        import repro

        case = SweepCase(arch="siam")
        before = case_key(case, FP)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert case_key(case, FP) != before


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16)
        key = case_key(case, FP)
        original = result_for(case, {"latency": 3.25, "energy": 1e-9})
        assert store.put(key, original)
        got = store.get(key, case)
        assert got is not None
        assert got.metrics == original.metrics
        assert got.elapsed_s == original.elapsed_s
        assert got.ok

    def test_float_metrics_roundtrip_exactly(self, tmp_path):
        # JSON repr round-trips doubles exactly; aggregate reproduction
        # on warm runs depends on this.
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        value = 28700.999999999996
        store.put(key, result_for(case, {"m": value}))
        assert store.get(key, case).metrics["m"] == value

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        assert store.get(case_key(case, FP), case) is None
        assert store.stats.misses == 1
        assert store.stats.hits == 0

    def test_hit_rebinds_to_callers_case(self, tmp_path):
        # Same key, different tag: the returned result carries the
        # caller's case (tags are display-only).
        from dataclasses import replace

        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam", tag="cold")
        key = case_key(case, FP)
        store.put(key, result_for(case))
        relabelled = replace(case, tag="warm")
        assert store.get(case_key(relabelled, FP), relabelled).case.tag == (
            "warm"
        )

    def test_errors_never_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="boom")
        key = case_key(case, FP)
        assert not store.put(key, result_for(case, error="Traceback ..."))
        assert store.get(key, case) is None
        assert store.stats.skipped_errors == 1

    def test_arrays_roundtrip_via_npz(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="floret", workload="DNN10")
        key = case_key(case, FP)
        tier = np.arange(25, dtype=np.float64).reshape(5, 5) + 300.0
        store.put(key, result_for(case, {"peak_k": 330.0},
                                  arrays={"tier_map_k": tier}))
        got = store.get(key, case)
        assert np.array_equal(got.arrays["tier_map_k"], tier)
        assert (tmp_path / "arrays" / f"{key}.npz").exists()

    def test_missing_npz_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="floret")
        key = case_key(case, FP)
        store.put(key, result_for(case, arrays={"a": np.ones(3)}))
        (tmp_path / "arrays" / f"{key}.npz").unlink()
        fresh = ResultStore(tmp_path)
        # Membership, enumeration and get must agree: a record whose
        # array payload is gone is absent through every probe.
        assert fresh.get(key, case) is None
        assert not fresh.has(key)
        assert key not in fresh
        assert len(fresh) == 0
        assert fresh.keys() == ()
        assert list(fresh.iter_results()) == []

    def test_has_and_contains_are_stats_neutral(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        store.put(key, result_for(case))
        assert store.has(key)
        assert key in store
        assert not store.has("0" * 64)
        assert store.stats.hits == 0
        assert store.stats.misses == 0

    def test_iter_results_is_stats_neutral(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        store.put(case_key(case, FP), result_for(case))
        reader = ResultStore(tmp_path)
        assert len(list(reader.iter_results())) == 1
        assert reader.stats.hits == 0
        assert reader.stats.misses == 0

    def test_last_writer_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        store.put(key, result_for(case, {"m": 1.0}))
        store.put(key, result_for(case, {"m": 2.0}))
        assert store.get(key, case).metrics["m"] == 2.0
        assert ResultStore(tmp_path).get(key, case).metrics["m"] == 2.0


class TestConcurrencyAndDurability:
    def test_second_instance_sees_appends(self, tmp_path):
        # Two store handles on one directory (two runner processes):
        # writes through one become visible to the other on next get.
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        assert reader.get(key, case) is None
        writer.put(key, result_for(case))
        assert reader.get(key, case) is not None

    def test_interleaved_puts_resolve_in_file_order(self, tmp_path):
        # A put right after what a handle has read is never re-read; a
        # put behind another writer's line is, so that line is not
        # skipped and the file order wins.
        first, second = (SweepCase(arch="siam", seed=s) for s in (0, 1))
        k1, k2 = ("ab" + case_key(c, FP)[2:] for c in (first, second))
        a, b = ResultStore(tmp_path), ResultStore(tmp_path)
        a.put(k1, result_for(first, {"value": 1.0}))
        assert a.get(k1, first).metrics == {"value": 1.0}
        b.put(k2, result_for(second, {"value": 2.0}))
        b.put(k1, result_for(first, {"value": 3.0}))
        a.put(k1, result_for(first, {"value": 4.0}))
        for store in (a, b, ResultStore(tmp_path)):
            assert store.get(k1, first).metrics == {"value": 4.0}
            assert store.get(k2, second).metrics == {"value": 2.0}
            assert len(store) == 2

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        store.put(key, result_for(case))
        shard = tmp_path / f"shard-{key[:2]}.jsonl"
        with shard.open("ab") as fh:
            fh.write(b'{"v": 1, "k": "deadbeef", "metr')  # mid-append
        fresh = ResultStore(tmp_path)
        assert fresh.get(key, case) is not None
        assert len(fresh) == 1

    def test_corrupt_full_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        shard = tmp_path / f"shard-{key[:2]}.jsonl"
        with shard.open("ab") as fh:
            fh.write(b"not json at all\n")
        store.put(key, result_for(case))
        fresh = ResultStore(tmp_path)
        assert fresh.get(key, case) is not None

    def test_non_object_line_is_skipped(self, tmp_path):
        # Valid JSON that is not a record (a list, a number, null) must
        # not make the whole store unreadable.
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        store.put(key, result_for(case))
        shard = tmp_path / f"shard-{key[:2]}.jsonl"
        with shard.open("ab") as fh:
            fh.write(b"[1]\n7\nnull\n")
        for reader in (store, ResultStore(tmp_path)):
            assert len(reader) == 1
            assert reader.get(key, case) is not None
            assert query_results(reader, ResultQuery())["total"] == 1

    def test_foreign_schema_version_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        shard = tmp_path / f"shard-{key[:2]}.jsonl"
        record = {"v": STORE_SCHEMA_VERSION + 1, "k": key,
                  "metrics": {}, "elapsed_s": 0.0}
        with shard.open("ab") as fh:
            fh.write((json.dumps(record) + "\n").encode())
        assert store.get(key, case) is None

    def test_iter_results_reconstructs_cases(self, tmp_path):
        store = ResultStore(tmp_path)
        cases = [
            SweepCase(arch="siam", num_chiplets=16, seed=s,
                      noi_overrides=(("flit_bytes", 64),), tag="grid")
            for s in range(3)
        ]
        for case in cases:
            store.put(case_key(case, FP), result_for(case))
        recovered = {r.case for r in ResultStore(tmp_path).iter_results()}
        assert recovered == set(cases)

    def test_len_and_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in (16, 36, 64):
            case = SweepCase(arch="siam", num_chiplets=n)
            store.put(case_key(case, FP), result_for(case))
        assert len(store) == 3
        assert len(store.keys()) == 3
        assert len(ResultStore(tmp_path)) == 3

    def test_failed_payload_write_leaves_store_clean(
        self, tmp_path, monkeypatch
    ):
        # Regression: a raising np.savez_compressed (disk full,
        # non-serialisable array) must not leave an orphaned ``.tmp``
        # file behind for later directory walks to trip over, and the
        # case must stay absent so it re-evaluates.
        import numpy as _np

        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(_np, "savez_compressed", explode)
        with pytest.raises(OSError, match="disk full"):
            store.put(key, result_for(
                case, arrays={"x": np.arange(4, dtype=np.int64)}
            ))
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.npz")) == []
        assert ResultStore(tmp_path).get(key, case) is None

    def test_fdopen_failure_closes_descriptor(self, tmp_path, monkeypatch):
        # Regression companion: if os.fdopen itself rejects the fd,
        # the raw descriptor from mkstemp must still be closed and the
        # temp file unlinked.
        import os as _os
        import tempfile as _tempfile

        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam")
        key = case_key(case, FP)
        seen = {}
        real_mkstemp = _tempfile.mkstemp

        def spying_mkstemp(*args, **kwargs):
            fd, tmp = real_mkstemp(*args, **kwargs)
            seen["fd"] = fd
            return fd, tmp

        def rejecting_fdopen(fd, *args, **kwargs):
            raise OSError("fdopen rejected")

        monkeypatch.setattr(_tempfile, "mkstemp", spying_mkstemp)
        monkeypatch.setattr(_os, "fdopen", rejecting_fdopen)
        with pytest.raises(OSError, match="fdopen rejected"):
            store.put(key, result_for(
                case, arrays={"x": np.arange(4, dtype=np.int64)}
            ))
        monkeypatch.undo()
        with pytest.raises(OSError):
            _os.fstat(seen["fd"])  # closed: EBADF, not a leaked fd
        assert list(tmp_path.rglob("*.tmp")) == []


class TestShardHelpers:
    def test_missing_reports_unstored_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        cases = [SweepCase(arch="siam", num_chiplets=n)
                 for n in (16, 36, 64)]
        keys = [case_key(c, FP) for c in cases]
        store.put(keys[0], result_for(cases[0]))
        assert store.missing(keys) == frozenset(keys[1:])
        for key, case in zip(keys[1:], cases[1:]):
            store.put(key, result_for(case))
        assert store.missing(keys) == frozenset()

    def test_missing_is_stats_neutral(self, tmp_path):
        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16)
        store.put(case_key(case, FP), result_for(case))
        store.missing([case_key(case, FP), "absent"])
        assert store.stats.hits == 0
        assert store.stats.misses == 0

    def test_missing_sees_other_writers(self, tmp_path):
        reader = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16)
        key = case_key(case, FP)
        assert reader.missing([key]) == frozenset([key])
        ResultStore(tmp_path).put(key, result_for(case))
        assert reader.missing([key]) == frozenset()

    def test_claims_root_is_inside_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claims_root == store.root / "claims"


class TestRefreshGuard:
    """Satellite regression: unchanged shards are never re-read."""

    def _fill(self, root, n=4):
        writer = ResultStore(root)
        cases = [SweepCase(arch="siam", num_chiplets=16, seed=i)
                 for i in range(n)]
        keys = [case_key(c, FP) for c in cases]
        for key, case in zip(keys, cases):
            writer.put(key, result_for(case))
        return keys

    def test_quiescent_store_does_no_shard_io(self, tmp_path):
        keys = self._fill(tmp_path)
        reader = ResultStore(tmp_path)
        assert not reader.missing(keys)
        baseline = reader.stats.shard_reads
        assert baseline >= 1
        for _ in range(25):
            assert not reader.missing(keys)
            assert len(list(reader.iter_records())) == len(keys)
            assert len(reader) == len(keys)
        # Repeated queries over an unchanged store: pure dict work.
        assert reader.stats.shard_reads == baseline

    def test_appended_record_is_picked_up(self, tmp_path):
        keys = self._fill(tmp_path, n=2)
        reader = ResultStore(tmp_path)
        assert not reader.missing(keys)
        before = reader.stats.shard_reads
        case = SweepCase(arch="kite", num_chiplets=16, seed=9)
        key = case_key(case, FP)
        ResultStore(tmp_path).put(key, result_for(case))
        assert reader.has(key)
        assert reader.stats.shard_reads > before

    def test_torn_tail_still_refreshes_correctly(self, tmp_path):
        # A writer crashed (or is mid-write) after half a line: the
        # reader must neither consume the torn tail nor let the sig
        # guard hide the completed line once the rest lands.
        writer = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16, seed=0)
        key = case_key(case, FP)
        writer.put(key, result_for(case))
        shard = writer._shard_path(key)

        line = shard.read_bytes().splitlines()[0]
        record = json.loads(line)
        key2 = key[:2] + "f" * (len(key) - 2)
        record["k"] = key2
        full = json.dumps(record, separators=(",", ":")).encode()
        head, tail = full[: len(full) // 2], full[len(full) // 2:]

        reader = ResultStore(tmp_path)
        assert reader.has(key)
        with shard.open("ab") as fh:
            fh.write(head)  # torn: no trailing newline
        assert not reader.has(key2)       # tail not consumed
        assert reader.has(key)            # existing records intact
        reads_after_torn = reader.stats.shard_reads
        assert not reader.has(key2)       # unchanged file: no re-read
        assert reader.stats.shard_reads == reads_after_torn
        with shard.open("ab") as fh:
            fh.write(tail + b"\n")        # the newline lands
        assert reader.has(key2)
        assert reader.has(key)

    def test_rewritten_shorter_shard_rebuilds(self, tmp_path):
        # A shard rewritten shorter (manual compaction, restored
        # backup) must drop the records it no longer contains.
        store = ResultStore(tmp_path)
        k1, k2 = "aa" + "1" * 14, "aa" + "2" * 14
        case = SweepCase(arch="siam", num_chiplets=16, seed=0)
        store.put(k1, result_for(case))
        store.put(k2, result_for(case))
        reader = ResultStore(tmp_path)
        assert reader.has(k1) and reader.has(k2)
        shard = reader._shard_path(k1)
        first_line = shard.read_bytes().splitlines()[0] + b"\n"
        assert [r["key"] for r in query_results(
            reader, ResultQuery())["results"]] == [k1, k2]
        shard.write_bytes(first_line)
        assert reader.has(k1)
        assert not reader.has(k2)
        assert len(reader) == 1
        assert [r["key"] for r in query_results(
            reader, ResultQuery())["results"]] == [k1]

    def test_iter_records_skips_payload_io(self, tmp_path):
        from repro.eval.store import case_from_record

        store = ResultStore(tmp_path)
        case = SweepCase(arch="siam", num_chiplets=16, seed=3,
                         tag="arrayful")
        key = case_key(case, FP)
        store.put(key, result_for(
            case, arrays={"tiers": np.arange(4)},
        ))
        reader = ResultStore(tmp_path)
        records = dict(reader.iter_records())
        assert set(records) == {key}
        assert records[key]["arrays"] is True
        # No npz was opened: array loads count store hits; none here.
        assert reader.stats.hits == 0
        rebuilt = case_from_record(records[key])
        assert rebuilt == case


class TestBulkDecode:
    """A shard chunk decodes in one call; any doubt falls back to
    per-line decoding, which keeps every good line."""

    CASES = [SweepCase(arch="siam", num_chiplets=16, seed=s)
             for s in range(3)]

    def _lines(self, tmp_path):
        writer = ResultStore(tmp_path / "src")
        lines = []
        for case in self.CASES:
            key = "ab" + case_key(case, FP)[2:]
            writer.put(key, result_for(case, {"value": float(case.seed)}))
            lines.append(writer._shard_path(key).read_bytes()
                         .splitlines()[-1])
        return lines

    def _store(self, tmp_path, data: bytes) -> ResultStore:
        (tmp_path / "shard-ab.jsonl").write_bytes(data)
        return ResultStore(tmp_path)

    def _seeds(self, store):
        return sorted(r["case"]["seed"] for _, r in store.iter_records())

    def test_clean_shard_decodes_whole(self, tmp_path):
        lines = self._lines(tmp_path)
        store = self._store(tmp_path, b"\n".join(lines) + b"\n")
        assert self._seeds(store) == [0, 1, 2]

    def test_corrupt_middle_line_keeps_the_others(self, tmp_path):
        lines = self._lines(tmp_path)
        data = b"\n".join([lines[0], b'{"v": 1, "k": "ab', lines[2]])
        store = self._store(tmp_path, data + b"\n")
        assert self._seeds(store) == [0, 2]

    def test_line_holding_two_values_is_rejected(self, tmp_path):
        # Joined into one array the chunk parses, with one value more
        # than there are lines; the per-line fallback rejects the pair.
        lines = self._lines(tmp_path)
        data = b"\n".join([lines[0], lines[1] + b"," + lines[2]])
        store = self._store(tmp_path, data + b"\n")
        assert self._seeds(store) == [0]

    def test_blank_lines_and_torn_tail(self, tmp_path):
        lines = self._lines(tmp_path)
        data = (b"\n" + lines[0] + b"\n \n\n" + lines[1] + b"\n"
                + lines[2][:20])
        store = self._store(tmp_path, data)
        assert self._seeds(store) == [0, 1]
        with (tmp_path / "shard-ab.jsonl").open("ab") as fh:
            fh.write(lines[2][20:] + b"\n")
        assert self._seeds(store) == [0, 1, 2]


class TestRecordOrder:
    """``iter_records`` yields in ``(case_id, key)`` order, each
    ``case_id`` computed once, when its record is first indexed."""

    CASES = [
        SweepCase(arch="siam", num_chiplets=16, seed=2, tag="β"),
        SweepCase(arch="kite", num_chiplets=64, workload="uniform@0.1",
                  seed=0, noi_overrides=(("fc_buffer_flits", 8),)),
        SweepCase(arch="kite", num_chiplets=64, workload="uniform@0.1",
                  seed=0, noi_overrides=(("fc_buffer_flits", 8.0),)),
        SweepCase(arch="floret", num_chiplets=36, seed=1,
                  noi_overrides=(("fc_credit_rtt", 2),
                                 ("fc_buffer_flits", 16))),
        SweepCase(arch="siam", num_chiplets=100, seed=0, tag="中"),
    ]

    @staticmethod
    def _count_case_ids(monkeypatch):
        """Every ``case_id`` the store computes from here on."""
        from repro.eval import store as store_module

        seen = []
        real = store_module._case_ids

        def counted(axes, ids):
            computed = real(axes, ids)
            seen.extend(computed)
            return computed

        monkeypatch.setattr(store_module, "_case_ids", counted)
        return seen

    def test_iteration_is_case_id_ordered(self, tmp_path):
        writer = ResultStore(tmp_path)
        for case in self.CASES:
            writer.put(case_key(case, FP), result_for(case))
        want = sorted((c.case_id, case_key(c, FP)) for c in self.CASES)
        for store in (writer, ResultStore(tmp_path)):
            got = [(case_id_of(r["case"]), k)
                   for k, r in store.iter_records()]
            assert got == want
            assert list(store.keys()) == [k for _, k in want]

    def test_helper_equals_sweep_case_id_through_put(self, tmp_path):
        writer = ResultStore(tmp_path)
        for case in self.CASES:
            writer.put(case_key(case, FP), result_for(case))
        records = dict(ResultStore(tmp_path).iter_records())
        for case in self.CASES:
            record = records[case_key(case, FP)]
            assert case_id_of(record["case"]) == case.case_id

    def test_append_computes_only_the_new_case_id(self, tmp_path,
                                                  monkeypatch):
        writer = ResultStore(tmp_path)
        for case in self.CASES[:-1]:
            writer.put(case_key(case, FP), result_for(case))
        reader = ResultStore(tmp_path)
        seen = self._count_case_ids(monkeypatch)
        assert len(list(reader.iter_records())) == len(self.CASES) - 1
        assert len(seen) == len(self.CASES) - 1
        seen.clear()
        for _ in range(3):
            list(reader.iter_records())
        assert seen == []
        new = self.CASES[-1]
        writer.put(case_key(new, FP), result_for(new))
        keys = [k for k, _ in reader.iter_records()]
        assert seen == [new.case_id]
        assert keys == [k for _, k in sorted(
            (c.case_id, case_key(c, FP)) for c in self.CASES)]

    def test_reordered_overrides_replace_the_case_id(self, tmp_path):
        # (a, b) and (b, a) share a key but not a case_id: last
        # writer wins, for the order as well as for the record, so
        # the key moves past c (ids: a < c < b).
        a = SweepCase(arch="siam", num_chiplets=16,
                      noi_overrides=(("fc_buffer_flits", 16),
                                     ("fc_credit_rtt", 1)))
        b = SweepCase(arch="siam", num_chiplets=16,
                      noi_overrides=(("fc_credit_rtt", 1),
                                     ("fc_buffer_flits", 16)))
        c = SweepCase(arch="siam", num_chiplets=16,
                      noi_overrides=(("fc_buffer_flits", 8),))
        assert a.case_id < c.case_id < b.case_id
        key, other = case_key(a, FP), case_key(c, FP)
        assert key == case_key(b, FP)
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        writer.put(key, result_for(a))
        writer.put(other, result_for(c))
        assert [k for k, _ in reader.iter_records()] == [key, other]
        writer.put(key, result_for(b))
        for store in (writer, reader, ResultStore(tmp_path)):
            assert [(k, case_id_of(r["case"]))
                    for k, r in store.iter_records()] \
                == [(other, c.case_id), (key, b.case_id)]


@pytest.mark.parametrize("shape", sorted(MALFORMED_RECORDS))
def test_malformed_record_counts_as_missing(tmp_path, shape):
    # Valid JSON of this schema version, but not a record every view
    # can read: skipped like a corrupt line, so its case re-runs.
    good, keys, bad = malformed_store(tmp_path, shape, FP)
    store = ResultStore(tmp_path)
    assert len(store) == 2
    assert sorted(store.keys()) == sorted(keys)
    assert sorted(k for k, _ in store.iter_records()) == sorted(keys)
    assert {r.case for r in store.iter_results()} == set(good)
    assert not store.has(bad)
    assert store.missing(keys + [bad]) == {bad}
    assert store.get(keys[0], good[0]).metrics == {"value": 0.0}


def _fill(root, count, prefix=None, seed0=0):
    """Put ``count`` records (all in shard ``prefix``, if given)."""
    store = ResultStore(root)
    seed = seed0
    while count:
        case = SweepCase(arch="kite", num_chiplets=16, seed=seed)
        seed += 1
        key = case_key(case, FP)
        if prefix is None or key[:2] == prefix:
            store.put(key, result_for(case, {"value": seed * 0.5}))
            count -= 1
    return seed


def _answer(store) -> str:
    return json.dumps(query_results(store, ResultQuery(
        metrics=("value",), pivot="value", limit=1000)), sort_keys=True)


def _snapshot_free(root) -> ResultStore:
    """A fresh handle on a copy of the shards alone (and the payloads)."""
    copy = tempfile.mkdtemp(dir=root.parent)
    for shard in root.glob("shard-*.jsonl"):
        shutil.copyfile(shard, os.path.join(copy, shard.name))
    if (root / "arrays").exists():
        shutil.copytree(root / "arrays", os.path.join(copy, "arrays"))
    return ResultStore(copy)


def _snapshot_free_answer(root) -> str:
    """The answer of a fresh open of a copy of the shards alone."""
    return _answer(_snapshot_free(root))


def _views(store) -> str:
    """Every record a handle serves, as ``iter_records``, ``get`` and
    page rows, plus a query answer."""
    records = list(store.iter_records())
    results = [store.get(key, case_from_record(record))
               for key, record in records]
    return json.dumps([
        records, [[r.case.case_id, r.metrics, r.elapsed_s]
                  for r in results],
        query_results(store, ResultQuery(limit=1000))["results"],
        _answer(store)])


def _valid(root) -> dict:
    """``{shard name: covered bytes}`` of the index snapshot, which must
    parse and still describe every shard it covers."""
    snapshot = _load_snapshot(root / "index.idx", {})
    assert snapshot is not None
    for name, (_, covered, crc) in snapshot.shards.items():
        data = (root / name).read_bytes()
        assert snapshot.cut(name, data)[1:] == (covered, crc)
    return {name: entry[1] for name, entry in snapshot.shards.items()}


def _decoded_bytes(monkeypatch) -> list:
    """Every chunk ``_decode_lines`` decodes from now on."""
    decoded = []
    real = store_module._decode_lines

    def counting(data, offset=0):
        decoded.append(data)
        return real(data, offset)

    monkeypatch.setattr(store_module, "_decode_lines", counting)
    return decoded


def _key_in(prefix, seed0=0, arch="siam"):
    """A case (from ``seed0`` up) whose key falls in shard ``prefix``."""
    return next(c for c in (SweepCase(arch=arch, seed=s)
                            for s in range(seed0, seed0 + 50_000))
                if case_key(c, FP)[:2] == prefix)


class TestSnapshots:
    """The store's index snapshot: who writes it, what it covers,
    failure hygiene, and what never touches it."""

    def test_reader_writes_and_next_open_loads(self, tmp_path,
                                               monkeypatch):
        _fill(tmp_path, 30)
        want = _snapshot_free_answer(tmp_path)
        sizes = {p.name: p.stat().st_size
                 for p in tmp_path.glob("shard-*.jsonl")}
        assert not (tmp_path / "index.idx").exists()  # puts write none
        assert _answer(ResultStore(tmp_path)) == want
        assert _valid(tmp_path) == sizes
        assert [p.name for p in tmp_path.glob("*.idx")] == ["index.idx"]
        decoded = _decoded_bytes(monkeypatch)
        reader = ResultStore(tmp_path)
        assert _answer(reader) == want
        assert decoded == []
        assert reader.stats.shard_reads == len(sizes)

    def test_snapshot_records_come_in_case_id_order(self, tmp_path):
        _fill(tmp_path, 30)
        len(ResultStore(tmp_path))
        snapshot = _load_snapshot(tmp_path / "index.idx", {})
        order = list(zip(snapshot.case_ids, snapshot.keys))
        assert order == sorted(order) and len(order) == 30

    def test_query_metric_column_is_the_index_column(self, tmp_path):
        # Decoded, loaded from the snapshot or put by the handle, every
        # record's metric sits in one float64 column per name: a query
        # reads a view of it and copies no column.  The snapshot holds
        # every metric with a finite value.
        store = ResultStore(tmp_path)
        for seed in range(12):
            case = SweepCase(arch="kite", seed=seed)
            store.put(case_key(case, FP), result_for(
                case, {"a": seed, "b": seed * 0.5, "c": "x" * seed}))
        query = ResultQuery(metrics=("a",), limit=0)
        extra = SweepCase(arch="siam", seed=0)
        for reader in (ResultStore(tmp_path), ResultStore(tmp_path)):
            # The first decodes the shards and writes the snapshot; the
            # second loads it, then reads back its own put.
            assert query_results(reader, query)["aggregates"]["a"][
                "sum"] == 66
            assert (tmp_path / "index.idx").exists()
        reader.put(case_key(extra, FP), result_for(extra, {"a": 4}))
        assert query_results(reader, query)["aggregates"]["a"]["sum"] == 70
        column = reader.columns().metric("a")
        assert len(column) == 13
        assert np.shares_memory(column, reader._positions.floats["a"])
        loaded = ResultStore(tmp_path)
        for name in "abc":
            assert query_results(loaded, ResultQuery(metrics=(name,))) \
                == query_results(_snapshot_free(tmp_path),
                                 ResultQuery(metrics=(name,)))
        assert _load_snapshot(tmp_path / "index.idx", {}).names == ["a", "b"]

    def test_own_puts_write_no_snapshot(self, tmp_path):
        writer = ResultStore(tmp_path)
        for seed in range(10):
            case = SweepCase(arch="siam", seed=seed)
            writer.put(case_key(case, FP), result_for(case))
        assert len(writer) == 10
        assert list(tmp_path.glob("*.idx")) == []

    def test_small_tail_rewrites_nothing(self, tmp_path):
        seed = _fill(tmp_path, 6, prefix="ab")
        len(ResultStore(tmp_path))
        before = (tmp_path / "index.idx").read_bytes()
        _fill(tmp_path, 1, prefix="ab", seed0=seed)
        assert _answer(ResultStore(tmp_path)) == _snapshot_free_answer(
            tmp_path)
        assert (tmp_path / "index.idx").read_bytes() == before

    def test_two_handles_write_the_same_snapshot_in_turn(self, tmp_path):
        seed = _fill(tmp_path, 3, prefix="ab")
        first = ResultStore(tmp_path)
        len(first)
        covered = _valid(tmp_path)["shard-ab.jsonl"]
        # Grow the store past twice what the snapshot covers: a fresh
        # handle decodes a tail as long as the snapshot, so it writes.
        seed = _fill(tmp_path, 4, prefix="ab", seed0=seed)
        seed = _fill(tmp_path, 2, prefix="cd", seed0=seed)
        second = ResultStore(tmp_path)
        len(second)
        sizes = {p.name: p.stat().st_size
                 for p in tmp_path.glob("shard-*.jsonl")}
        assert _valid(tmp_path) == sizes
        assert sizes["shard-ab.jsonl"] > 2 * covered
        # The first handle has decoded as many bytes since its write
        # and now writes in turn, over the second's.
        _fill(tmp_path, 12, prefix="ab", seed0=seed)
        len(first)
        assert _valid(tmp_path) == {p.name: p.stat().st_size
                                    for p in tmp_path.glob("shard-*.jsonl")}
        assert _answer(ResultStore(tmp_path)) == _snapshot_free_answer(
            tmp_path)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_shard_with_an_own_put_is_snapshotted(self, tmp_path):
        # The handle reads its own put back among another writer's
        # lines: the put kept its line's offsets, so the snapshot it
        # writes covers that shard too.
        seed = _fill(tmp_path, 2, prefix="ab")
        _fill(tmp_path, 2, prefix="cd", seed0=seed)
        handle = ResultStore(tmp_path)
        len(handle)
        seed = _fill(tmp_path, 4, prefix="ab", seed0=seed)
        case = _key_in("ab")
        handle.put(case_key(case, FP), result_for(case, {"value": 7.0}))
        _fill(tmp_path, 8, prefix="ab", seed0=seed)
        assert _answer(handle) == _snapshot_free_answer(tmp_path)
        assert set(_valid(tmp_path)) == {"shard-ab.jsonl", "shard-cd.jsonl"}
        assert _answer(ResultStore(tmp_path)) == _snapshot_free_answer(
            tmp_path)

    def test_put_right_after_what_was_read_stays_covered(self, tmp_path,
                                                         monkeypatch):
        # The put directly follows what the handle read of its shard, so
        # it is never decoded; its bytes extend the shard's crc32, and
        # the handle's next snapshot covers the shard to its end.
        seed = _fill(tmp_path, 2, prefix="ab")
        handle = ResultStore(tmp_path)
        len(handle)
        case = _key_in("ab")
        handle.put(case_key(case, FP), result_for(case, {"value": 7.0}))
        _fill(tmp_path, 8, prefix="cd", seed0=seed)
        want = _snapshot_free_answer(tmp_path)
        decoded = _decoded_bytes(monkeypatch)
        assert _answer(handle) == want
        assert b'"value":7.0' not in b"".join(decoded)
        assert _valid(tmp_path) == {p.name: p.stat().st_size
                                    for p in tmp_path.glob("shard-*.jsonl")}
        assert _answer(ResultStore(tmp_path)) == want

    def test_key_in_another_shard_leaves_its_shard_covered(self, tmp_path):
        # A line whose key belongs to another shard counts nowhere, so
        # the shard holding it is described exactly and the snapshot
        # covers every shard; fresh opens still answer like a
        # snapshot-free one.
        _fill(tmp_path, 3, prefix="ab")
        _fill(tmp_path, 3, prefix="cd")
        _fill(tmp_path, 3, prefix="ef")
        stray = (tmp_path / "shard-ab.jsonl").read_bytes().splitlines()[0]
        assert b'"elapsed_s":0.25' in stray
        with open(tmp_path / "shard-cd.jsonl", "ab") as fh:
            fh.write(stray.replace(b'"elapsed_s":0.25',
                                   b'"elapsed_s":0.5') + b"\n")
        want = _views(_snapshot_free(tmp_path))
        assert _views(ResultStore(tmp_path)) == want
        assert _valid(tmp_path) == {p.name: p.stat().st_size
                                    for p in tmp_path.glob("shard-*.jsonl")}
        assert _views(ResultStore(tmp_path)) == want

    def test_newline_in_a_case_id_leaves_its_shard_out(self, tmp_path):
        # Keys and case ids are stored as newline-joined text: a shard
        # holding a case id with a newline in it is left out, and the
        # snapshot still covers every other shard.
        _fill(tmp_path, 2, prefix="ab")
        case = SweepCase(arch="kite", workload="uni\nform")
        ResultStore(tmp_path).put(case_key(case, FP), result_for(case))
        odd = f"shard-{case_key(case, FP)[:2]}.jsonl"
        want = _views(_snapshot_free(tmp_path))
        assert _views(ResultStore(tmp_path)) == want
        assert set(_valid(tmp_path)) == {"shard-ab.jsonl"} - {odd}
        assert _views(ResultStore(tmp_path)) == want

    def test_carriage_returns_leave_their_shard_covered(self, tmp_path,
                                                         monkeypatch):
        # A foreign writer's CRLF-terminated line, and two records
        # parted by a lone carriage return: every line keeps its own
        # offsets, so the snapshot covers the shard, and every view
        # reads the lines back like a snapshot-free decode.
        _fill(tmp_path, 2, prefix="ab")
        other = tmp_path / "other"
        cases = [_key_in("ab", seed0=s) for s in (0, 10_000, 20_000)]
        for value, case in enumerate(cases):
            ResultStore(other).put(case_key(case, FP),
                                   result_for(case, {"value": 9.0 + value}))
        first, second, third = (other / "shard-ab.jsonl").read_bytes(
        ).splitlines()
        with open(tmp_path / "shard-ab.jsonl", "ab") as fh:
            fh.write(first + b"\r\n" + second + b"\r" + third + b"\n")
        shutil.rmtree(other)
        want = _views(_snapshot_free(tmp_path))
        assert _views(ResultStore(tmp_path)) == want
        assert _valid(tmp_path) == {p.name: p.stat().st_size
                                    for p in tmp_path.glob("shard-*.jsonl")}
        decoded = _decoded_bytes(monkeypatch)
        store = ResultStore(tmp_path)
        assert _views(store) == want
        assert decoded == []
        for value, case in enumerate(cases):
            assert store.get(case_key(case, FP), case).metrics == {
                "value": 9.0 + value}

    @pytest.mark.parametrize("fault", ["shorter", "same-length", "deleted",
                                       "foreign-line"])
    def test_one_spoilt_shard_alone_is_decoded(self, tmp_path, monkeypatch,
                                               fault):
        # One shard no longer matches the snapshot (or gains a line
        # holding another shard's key): the next open decodes that
        # shard alone, loads every other shard from the snapshot, and
        # answers like a snapshot-free handle.
        seed = 0
        for prefix in ("0a", "5b", "c3"):
            seed = _fill(tmp_path, 4, prefix=prefix, seed0=seed)
        len(ResultStore(tmp_path))
        assert len(_valid(tmp_path)) == 3
        shard = tmp_path / "shard-5b.jsonl"
        lines = shard.read_bytes().splitlines(keepends=True)
        if fault == "shorter":
            shard.write_bytes(b"".join(lines[:2]))
        elif fault == "same-length":
            lines[1] = b"#" * (len(lines[1]) - 1) + b"\n"
            shard.write_bytes(b"".join(lines))
        elif fault == "deleted":
            shard.unlink()
        else:
            # A later shard's record, with another elapsed time, in an
            # earlier shard: it counts nowhere.
            line = (tmp_path / "shard-c3.jsonl").read_bytes().splitlines(
                keepends=True)[0]
            with shard.open("ab") as fh:
                fh.write(line.replace(b'"elapsed_s":0.25',
                                      b'"elapsed_s":0.5'))
        want = _views(_snapshot_free(tmp_path))
        decoded = _decoded_bytes(monkeypatch)
        store = ResultStore(tmp_path)
        store.columns()
        spoilt = b"" if fault == "deleted" else shard.read_bytes()
        if fault == "foreign-line":
            spoilt = spoilt[sum(map(len, lines)):]  # only the new line
        assert b"".join(decoded) == spoilt
        assert _views(store) == want

    def test_torn_or_foreign_snapshot_counts_as_absent(self, tmp_path,
                                                       monkeypatch):
        _fill(tmp_path, 20)
        len(ResultStore(tmp_path))
        path = tmp_path / "index.idx"
        good = path.read_bytes()
        cut = good.index(b"\n")
        head = json.loads(good[:cut])
        want = _views(_snapshot_free(tmp_path))
        spoilt = [good[:n] for n in (0, cut // 2, cut + 1, len(good) - 1)]
        spoilt.append(good + b"\n")
        for name, value in (("format", "1/" + head["format"]),
                            ("arch", [["siam"]]), ("seed", [{}]),
                            ("flags", ["yes"]), ("elapsed", ["0.25"]),
                            ("tag", [[]]), ("rows", head["rows"] + 1)):
            other = dict(head, **{name: value})
            spoilt.append(json.dumps(other).encode() + good[cut:])
        for raw in spoilt:
            path.write_bytes(raw)
            assert _load_snapshot(path, {}) is None
            decoded = _decoded_bytes(monkeypatch)
            store = ResultStore(tmp_path)
            assert _views(store) == want
            assert len(decoded) == len(list(tmp_path.glob("*.jsonl")))
            assert path.read_bytes() == good  # written anew
            monkeypatch.undo()

    def test_leftover_shard_snapshots_are_never_read(self, tmp_path,
                                                     monkeypatch):
        # Per-shard ``shard-XX.idx`` files of an older format sit beside
        # their shards: claiming to cover each shard with the right crc
        # and wrong values, they are neither read nor rewritten.
        _fill(tmp_path, 20)
        want = _views(_snapshot_free(tmp_path))
        leftovers = {}
        for shard in tmp_path.glob("shard-*.jsonl"):
            data = shard.read_bytes()
            head = {"format": "1/1/1.6.0", "covered": len(data),
                    "crc": zlib.crc32(data), "rows": 0, "metrics": []}
            leftovers[shard.with_suffix(".idx")] = (
                json.dumps(head).encode() + b"\n")
        for path, raw in leftovers.items():
            path.write_bytes(raw)
        for _ in range(2):  # the first open writes index.idx
            assert _views(ResultStore(tmp_path)) == want
        assert {path: path.read_bytes() for path in leftovers} == leftovers
        assert sorted(p.name for p in tmp_path.glob("*.idx")) == sorted(
            [p.name for p in leftovers] + ["index.idx"])

    @pytest.mark.parametrize("fault", ["replace", "read-only"])
    def test_failed_snapshot_write_leaves_store_clean(
        self, tmp_path, monkeypatch, fault
    ):
        # A snapshot that cannot be published (os.replace raising, or a
        # read-only directory refusing the temp file) costs nothing but
        # the snapshot: the query answers, no temp file stays behind.
        _fill(tmp_path, 20)
        want = _snapshot_free_answer(tmp_path)
        real_replace = os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if str(dst).endswith(".idx"):
                raise OSError("snapshot replace failed")
            return real_replace(src, dst, *args, **kwargs)

        def read_only(*args, **kwargs):
            raise PermissionError("read-only directory")

        if fault == "replace":
            monkeypatch.setattr(os, "replace", failing_replace)
        else:
            monkeypatch.setattr(tempfile, "mkstemp", read_only)
        assert _answer(ResultStore(tmp_path)) == want
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.glob("*.idx")) == []
        monkeypatch.undo()
        assert _answer(ResultStore(tmp_path)) == want
        assert list(tmp_path.glob("*.idx")) != []

    def test_hot_paths_leave_snapshots_alone(self, tmp_path, monkeypatch):
        # get/probe/missing never load or write the snapshot: not on a
        # handle that consumed its shards while others append, nor on a
        # cold handle, which decodes the shards it is asked about.
        seed = _fill(tmp_path, 3, prefix="ab")
        store = ResultStore(tmp_path)
        len(store)
        assert (tmp_path / "index.idx").exists()

        def untouchable(*args, **kwargs):
            raise AssertionError("snapshot touched on a hot path")

        monkeypatch.setattr(store_module, "_load_snapshot", untouchable)
        monkeypatch.setattr(ResultStore, "_write_snapshot", untouchable)
        end = _fill(tmp_path, 6, prefix="ab", seed0=seed)
        cases = [SweepCase(arch="kite", num_chiplets=16, seed=s)
                 for s in range(end)]
        keys = [k for k in (case_key(c, FP) for c in cases)
                if k[:2] == "ab"]
        assert len(keys) == 9
        for handle in (store, ResultStore(tmp_path)):
            assert handle.get(keys[-1], cases[end - 1]) is not None
            assert handle.probe(keys[0])
            assert handle.missing(keys) == frozenset()


class TestRewrittenShard:
    """Records are read back by ``os.pread`` at their lines' indexed
    offsets.  A shard rewritten between a refresh and a read holds
    another key there: the read finds it, the shard is indexed again
    from offset 0, and the read is retried."""

    @pytest.mark.parametrize("longer", [False, True])
    @pytest.mark.parametrize("read", ["get", "page", "iter"])
    def test_read_after_a_rewrite_equals_a_fresh_handle(self, tmp_path,
                                                        longer, read):
        cases = [_key_in("ab", seed0=s) for s in (0, 10_000, 20_000)]
        keys = [case_key(case, FP) for case in cases]
        writer = ResultStore(tmp_path)
        for value, (key, case) in enumerate(zip(keys, cases)):
            writer.put(key, result_for(case, {"value": 1.0 + value}))
        shard = tmp_path / "shard-ab.jsonl"
        first, second, third = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(first + second)
        handle = ResultStore(tmp_path)
        assert len(handle) == 2
        # The first key's offset now holds the second key's line; a
        # longer file also gains a third record past the old end.
        shard.write_bytes(second + first + (third if longer else b""))
        fresh = _snapshot_free(tmp_path)
        if read == "get":
            got = handle.get(keys[0], cases[0])
            assert got.metrics == {"value": 1.0}
            assert got.metrics == fresh.get(keys[0], cases[0]).metrics
        elif read == "page":
            query = ResultQuery(metrics=("value",), limit=10)
            answer = query_results(handle, query)
            assert answer == query_results(fresh, query)
            assert answer["total"] == 2 + longer
        else:
            records = list(handle.iter_records())
            assert records == list(fresh.iter_records())
            assert len(records) == 2 + longer
        assert _views(handle) == _views(fresh)

    def test_same_size_rewrite_of_a_value_is_read_again(self, tmp_path):
        # Every key stays at its offset and only a metric value changes:
        # no key check can see it, but the shard's signature changed at
        # the size already read, which no append does.  The handle reads
        # the shard again, so its page rows and aggregates agree.
        case = _key_in("ab")
        key = case_key(case, FP)
        handle = ResultStore(tmp_path)
        handle.put(key, result_for(case, {"value": 1.0}))
        query = ResultQuery(metrics=("value",), limit=10)
        assert query_results(handle, query)["aggregates"]["value"][
            "sum"] == 1.0
        shard = tmp_path / "shard-ab.jsonl"
        before = shard.stat()
        shard.write_bytes(shard.read_bytes().replace(b'"value":1.0',
                                                     b'"value":2.0'))
        os.utime(shard, ns=(before.st_atime_ns,
                            before.st_mtime_ns + 1_000_000))
        answer = query_results(handle, query)
        assert answer["results"][0]["metrics"] == {"value": 2.0}
        assert answer["aggregates"]["value"]["sum"] == 2.0
        assert answer == query_results(_snapshot_free(tmp_path), query)

    def test_rewrite_during_an_enumeration_changes_nothing_it_yields(
            self, tmp_path):
        # The rewrite lands while an enumeration is under way: it read
        # every line when it started, so it yields each record once.
        cases = [_key_in("ab", seed0=s) for s in (0, 10_000)]
        store = ResultStore(tmp_path)
        for case in cases:
            store.put(case_key(case, FP), result_for(case))
        shard = tmp_path / "shard-ab.jsonl"
        records = store.iter_records()
        key, _ = next(records)
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[::-1]))
        rest = [k for k, _ in records]
        assert [key] + rest == [k for k, _ in _snapshot_free(
            tmp_path).iter_records()]

    def test_a_read_stale_twice_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []

        def read():
            calls.append(None)
            raise StaleIndexError(["shard-ab.jsonl"])

        with pytest.raises(StaleIndexError):
            store.retrying(read)
        assert len(calls) == 2


class TestOwnShard:
    """A record counts only in its own shard, the one ``put`` writes it
    to: a line strayed into another shard counts nowhere."""

    @pytest.mark.parametrize("snapshot", [False, True])
    @pytest.mark.parametrize("into", ["earlier", "later"])
    def test_strayed_line_counts_nowhere(self, tmp_path, snapshot, into):
        first, last = _key_in("0a"), _key_in("f3")
        lost = _key_in("77")  # its own shard never exists
        writer = ResultStore(tmp_path)
        for case, value in ((first, 1.0), (last, 2.0)):
            writer.put(case_key(case, FP), result_for(case, {"value": value}))
        other = ResultStore(tmp_path / "other")
        other.put(case_key(lost, FP), result_for(lost))
        if snapshot:
            len(ResultStore(tmp_path))
        assert (tmp_path / "index.idx").exists() == snapshot
        # A copy of one shard's line, with another value, lands in the
        # other shard, and so does the line of a key no shard owns.
        case, value, target = ((last, 2.0, "0a") if into == "earlier"
                               else (first, 1.0, "f3"))
        shard = tmp_path / f"shard-{case_key(case, FP)[:2]}.jsonl"
        record = json.loads(shard.read_bytes().splitlines()[0])
        record["metrics"] = {"value": 7.5}
        stray = (tmp_path / "other" / f"shard-{case_key(lost, FP)[:2]}"
                 ".jsonl").read_bytes()
        with open(tmp_path / f"shard-{target}.jsonl", "ab") as fh:
            fh.write(json.dumps(record).encode() + b"\n" + stray)
        key, gone = case_key(case, FP), case_key(lost, FP)
        want = _views(_snapshot_free(tmp_path))
        for store in (writer, ResultStore(tmp_path)):
            assert store.get(key, case).metrics == {"value": value}
            assert len(store) == 2
            assert store.get(key, case).metrics == {"value": value}
            assert store.has(key) and not store.has(gone)
            assert store.missing([key, gone]) == {gone}
            records = dict(store.iter_records())
            assert records[key]["metrics"] == {"value": value}
            assert gone not in records
            rows = query_results(store, ResultQuery(
                metrics=("value",), limit=10))
            assert rows["aggregates"]["value"]["sum"] == 3.0
            assert _views(store) == want


class TestFloatColumn:
    def test_bulk_conversion_matches_finite_float_bit_for_bit(self):
        numbers = [True, False, 0, -0.0, 0.0, 7, 2 ** 53 + 1, 2 ** 63 + 5,
                   -(2 ** 70) + 3, 2 ** 1023 * 3 // 2, 1e308 * 10, -1e999,
                   float("nan"), None, 1.5, -2.25e-308]
        for values in (numbers, numbers + ["1.5"], numbers + [10 ** 400],
                       numbers + [[1.0]]):
            want = np.array([finite_float(v) for v in values], np.float64)
            assert _float_column(values).tobytes() == want.tobytes()


class TestMemory:
    """The index holds no per-record container the garbage collector
    tracks, and nothing in it refers back to the store."""

    def test_dropped_store_is_freed_by_refcount(self, tmp_path):
        case = SweepCase(arch="siam", noi_overrides=(("flit_bytes", 64),))
        ResultStore(tmp_path).put(case_key(case, FP), result_for(case))
        gc.disable()
        try:
            store = ResultStore(tmp_path)
            store.columns().axis("noi_overrides")
            ref = weakref.ref(store)
            del store
            assert ref() is None
        finally:
            gc.enable()

    def test_held_bytes_do_not_grow_with_line_bytes(self, tmp_path):
        # Two stores of the same records, the second's lines padded
        # with whitespace that no index keeps: a handle holds about as
        # many bytes of either after columns(), decoding the shards or
        # loading the snapshot, since the lines stay on disk.
        count, pad = 1000, 2000
        plain, padded = tmp_path / "plain", tmp_path / "padded"
        writer = ResultStore(plain)
        for seed in range(count):
            case = SweepCase(arch="siam", num_chiplets=16, seed=seed)
            writer.put(case_key(case, FP), result_for(case))
        padded.mkdir()
        for shard in plain.glob("shard-*.jsonl"):
            (padded / shard.name).write_bytes(shard.read_bytes().replace(
                b'{"v":', b"{" + b" " * pad + b'"v":'))
        held = {}
        for root in (plain, padded):
            for opened in range(2):  # decodes, then loads the snapshot
                tracemalloc.start()
                try:
                    store = ResultStore(root)
                    store.columns()
                    held[root, opened] = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                del store
        assert (tmp_path / "padded" / "index.idx").exists()
        for opened in range(2):
            assert held[padded, opened] - held[plain, opened] < (
                0.05 * count * pad)
        assert _views(ResultStore(padded)) == _views(ResultStore(plain))

    def test_open_and_query_add_almost_no_tracked_objects(self, tmp_path):
        overrides = ((), (("fc_buffer_flits", 8),),
                     (("fc_buffer_flits", 16), ("fc_credit_rtt", 1)))
        cases = [SweepCase(arch=("siam", "kite")[i % 2], num_chiplets=16,
                           seed=i, noi_overrides=overrides[i % 3])
                 for i in range(2000)]
        writer = ResultStore(tmp_path)
        for case in cases:
            writer.put(case_key(case, FP),
                       result_for(case, {"value": float(case.seed)}))
        writer.put(case_key(cases[2], FP), result_for(cases[2]))  # rewrite
        del writer
        extra = SweepCase(arch="floret", noi_overrides=overrides[2])
        query = ResultQuery(overrides=(("fc_buffer_flits", 16),),
                            metrics=("value",), limit=5)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects(2))
            store = ResultStore(tmp_path)
            assert query_results(store, query)["total"] == 666
            store.put(case_key(extra, FP), result_for(extra))
            assert query_results(store, query)["total"] == 667
            gc.collect(1)
            grown = len(gc.get_objects(2)) - before
        finally:
            gc.enable()
        assert grown <= 0.05 * len(cases)

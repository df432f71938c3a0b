"""Integration tests: tracing threaded through sweep/shard/dse/engines.

The acceptance contract of the observability layer: a traced run's
JSONL records must reconstruct the run's own reports (DrainReport case
counts, phase timings) exactly, and an untraced run must not change
behaviour at all.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.dse import design_space, dse_search
from repro.eval.shard import LeaseBoard, drain_cases, wait_for_cases
from repro.eval.store import ResultStore, case_key, evaluator_fingerprint
from repro.eval.stream import RunningStats
from repro.eval.sweeps import SweepCase, SweepRunner, sweep_grid
from repro.net.simulator import Message, simulate
from repro.noi.topology import Chiplet, Link, Topology
from repro.obs import (
    REGISTRY,
    Tracer,
    merge_traces,
    summarize_metrics,
    worker_case_counts,
)


def _eval_ok(case):
    """Deterministic, dependency-free evaluator."""
    return {"value": float(case.num_chiplets * (case.seed + 1))}


def _eval_flaky(case):
    if case.workload == "neighbor":
        raise RuntimeError("broken on purpose")
    return {"value": float(case.seed)}


def _grid(seeds=(0, 1), workloads=("uniform", "transpose")):
    return sweep_grid(
        archs=("siam", "kite"), sizes=(16,),
        workloads=workloads, seeds=seeds,
    )


def _spans(records, name):
    return [r for r in records if r.get("kind") == "span"
            and r.get("name") == name]


# ---------------------------------------------------------------------------
# shard drain <-> trace reconstruction (the acceptance criterion)


class TestDrainTracing:
    def test_trace_reconstructs_drain_report(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace_dir = tmp_path / "traces"
        cases = _grid()
        report = drain_cases(
            store, _eval_ok, cases, worker="w0", trace=trace_dir,
        )
        records = merge_traces(trace_dir)
        counts = worker_case_counts(records)["w0"]
        evaluated = counts.get("evaluated", 0) + counts.get("stolen", 0)
        assert evaluated == report.evaluated == len(cases)
        assert counts.get("hit", 0) == report.store_hits == 0

        # The summary "drain" span carries the same numbers.
        (drain,) = _spans(records, "drain")
        assert drain["worker"] == "w0"
        assert drain["total"] == report.total
        assert drain["evaluated"] == report.evaluated
        assert drain["store_hits"] == report.store_hits
        assert drain["stolen"] == report.stolen

    def test_second_drain_traces_hits(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace_dir = tmp_path / "traces"
        cases = _grid()
        drain_cases(store, _eval_ok, cases, worker="w0")
        report = drain_cases(
            store, _eval_ok, cases, worker="w1", trace=trace_dir,
        )
        assert report.store_hits == len(cases)
        counts = worker_case_counts(merge_traces(trace_dir))["w1"]
        assert counts.get("hit", 0) == len(cases)
        assert counts.get("evaluated", 0) == 0

    def test_failed_cases_traced(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace_dir = tmp_path / "traces"
        cases = _grid(workloads=("uniform", "neighbor"))
        report = drain_cases(
            store, _eval_flaky, cases, worker="w0", trace=trace_dir,
        )
        counts = worker_case_counts(merge_traces(trace_dir))["w0"]
        assert counts.get("failed", 0) == len(report.failures) > 0

    def test_lease_events_and_metrics_snapshot(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        trace_dir = tmp_path / "traces"
        REGISTRY.reset()
        try:
            drain_cases(store, _eval_ok, _grid(), worker="w0",
                        trace=trace_dir)
            records = merge_traces(trace_dir)
            claims = [r for r in records if r.get("kind") == "event"
                      and r.get("name") == "lease_claims"]
            assert len(claims) == len(_grid())
            assert all(c["worker"] == "w0" for c in claims)
            summary = summarize_metrics(records)
            assert summary["counters"]["lease_claims"] == len(_grid())
            assert summary["counters"]["cases_evaluated"] == len(_grid())
            assert (summary["histograms"]["drain_case_s"]["count"]
                    == len(_grid()))
        finally:
            REGISTRY.reset()

    def test_case_timings_populated(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cases = _grid()
        report = drain_cases(store, _eval_ok, cases, worker="w0")
        assert len(report.case_timings) == len(cases)
        for case_id, start, end in report.case_timings:
            assert end >= start >= 0.0
        slow_id, slow_dur = report.slowest_case
        assert slow_dur >= 0.0
        assert slow_id in {c.case_id for c in cases}
        # Hits-only drains have no evaluator timings.
        rerun = drain_cases(store, _eval_ok, cases, worker="w1")
        assert rerun.case_timings == ()
        assert rerun.slowest_case is None

    def test_case_timings_roundtrip_json(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = drain_cases(store, _eval_ok, _grid(), worker="w0")
        data = json.loads(report.to_json())
        assert len(data["case_timings"]) == len(report.case_timings)


class TestDeadlineDiagnostics:
    def test_deadline_names_slowest_completed_case(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cases = _grid(seeds=(0,), workloads=("uniform",))  # 2 cases
        fingerprint = evaluator_fingerprint(_eval_ok)
        # A live peer lease wedges the second case; the first still
        # evaluates, so the timeout can name a slowest completed case.
        peer = LeaseBoard(store, worker="peer", ttl_s=60.0)
        assert peer.acquire(case_key(cases[1], fingerprint))
        with pytest.raises(TimeoutError) as excinfo:
            drain_cases(
                store, _eval_ok, cases, worker="w0",
                lease_ttl_s=60.0, poll_s=0.01, deadline_s=0.3,
            )
        message = str(excinfo.value)
        assert "outstanding" in message
        assert "slowest completed case" in message
        assert cases[0].case_id in message

    def test_deadline_checked_mid_pass(self, tmp_path):
        # A pre-expired deadline must fire before the first case, not
        # after a whole pass evaluated the grid.
        store = ResultStore(tmp_path / "store")
        with pytest.raises(TimeoutError):
            drain_cases(
                store, _eval_ok, _grid(), worker="w0", deadline_s=0.0,
            )
        report = drain_cases(store, _eval_ok, _grid(), worker="w1")
        # Nothing (or at most one in-flight case) landed before the
        # deadline fired.
        assert report.store_hits <= 1

    def test_wait_timeout_reports_progress_age(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cases = _grid()
        with pytest.raises(TimeoutError) as excinfo:
            wait_for_cases(store, _eval_ok, cases,
                           timeout_s=0.05, poll_s=0.01)
        message = str(excinfo.value)
        assert "grid incomplete after" in message
        assert "last progress" in message
        assert cases[0].case_id in message


# ---------------------------------------------------------------------------
# sweep runners


class TestSweepTracing:
    def test_sweep_run_span_and_case_spans(self, tmp_path):
        trace_dir = tmp_path / "traces"
        runner = SweepRunner(_eval_ok, workers=1, trace=trace_dir)
        cases = _grid()
        outcome = runner.run(cases)
        assert outcome.elapsed_s > 0.0
        records = merge_traces(trace_dir)
        (run_span,) = _spans(records, "sweep_run")
        assert run_span["cases"] == len(cases)
        assert run_span["evaluated"] == len(cases)
        assert run_span["store_hits"] == 0

    def test_stream_run_span(self, tmp_path):
        trace_dir = tmp_path / "traces"
        runner = SweepRunner(_eval_ok, workers=1, trace=trace_dir)
        stats = RunningStats("value")
        outcome = runner.run_stream(_grid(), [stats])
        assert outcome.elapsed_s > 0.0
        assert stats.count == len(_grid())
        (span,) = _spans(merge_traces(trace_dir), "stream_run")
        assert span["total"] == len(_grid())
        assert span["failures"] == 0

    @pytest.mark.parametrize("method", ["run", "run_stream"])
    def test_store_replay_traces_replay_spans(self, tmp_path, method):
        store = ResultStore(tmp_path / "store")
        trace_dir = tmp_path / "traces"
        cases = _grid()
        SweepRunner(_eval_ok, workers=1, store=store).run_stream(cases, [])
        runner = SweepRunner(
            _eval_ok, workers=1, store=store, trace=trace_dir
        )
        outcome = getattr(runner, method)(cases)
        assert outcome.store_hits == len(cases)
        replays = _spans(merge_traces(trace_dir), "replay_case")
        assert len(replays) == len(cases)

    def test_untraced_run_unchanged(self, monkeypatch):
        # Regression for the elapsed_s contract after the Stopwatch
        # refactor: no REPRO_TRACE, no trace kwarg, everything still
        # populates timing fields and no trace file appears.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        outcome = SweepRunner(_eval_ok, workers=1).run(_grid())
        assert outcome.elapsed_s > 0.0
        assert all(r.elapsed_s >= 0.0 for r in outcome.results)


class TestDseTracing:
    def test_generation_spans(self, tmp_path):
        trace_dir = tmp_path / "traces"
        space = design_space(
            ("siam", "kite"), (16,), flit_bytes=(16, 32),
            workload="uniform",
        )
        result = dse_search(
            space, _eval_ok,
            objectives=("value",),
            population_size=4, generations=2, seed=0, workers=1,
            trace=trace_dir,
        )
        spans = _spans(merge_traces(trace_dir), "dse_generation")
        # Generation 0 plus each search generation.
        assert len(spans) == result.generations + 1 == 3
        generations = sorted(s["generation"] for s in spans)
        assert generations == [0, 1, 2]
        for span in spans:
            assert span["population"] >= 1
        assert all("fronts" in s for s in spans if s["generation"] > 0)


# ---------------------------------------------------------------------------
# engine phase timings


@pytest.fixture(scope="module")
def line():
    chiplets = [Chiplet(i, x=i, y=0) for i in range(6)]
    links = [Link(i, i + 1, length_mm=3.0) for i in range(5)]
    return Topology("line", chiplets, links)


class TestPhaseTimings:
    def test_disabled_by_default(self, line, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        report = simulate(line, [Message(0, 3, payload_bytes=256)])
        assert report.phase_timings is None

    def test_profile_flag_populates_timings(self, line):
        report = simulate(
            line,
            [Message(0, 3, payload_bytes=256),
             Message(1, 4, payload_bytes=256)],
            profile=True,
        )
        timings = report.phase_timings
        assert timings is not None
        assert {"packetize", "classify", "resolve"} <= set(timings)
        assert all(v >= 0.0 for v in timings.values())

    def test_env_enables_profiling(self, line, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        report = simulate(line, [Message(0, 3, payload_bytes=256)])
        assert report.phase_timings is not None

    def test_timings_do_not_affect_equality(self, line):
        # Oracle bit-exactness comparisons must ignore phase timings.
        plain = simulate(line, [Message(0, 3, payload_bytes=256)])
        profiled = simulate(line, [Message(0, 3, payload_bytes=256)],
                            profile=True)
        assert profiled == plain

    def test_engine_dispatch_counters(self, line):
        REGISTRY.reset()
        try:
            simulate(line, [Message(0, 3, payload_bytes=256)],
                     engine="events", profile=True)
            snap = REGISTRY.snapshot()["counters"]
            assert snap.get("sim_engine_events", 0) == 1
            assert snap.get("sim_packets", 0) >= 1
        finally:
            REGISTRY.reset()

    def test_empty_grid_timings(self, line):
        report = simulate(line, [], profile=True)
        assert report.phase_timings is not None

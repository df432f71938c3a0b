"""End-to-end tests: the HTTP sweep service (repro.svc)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.eval.shard import GridSpec
from repro.eval.store import ResultStore, case_key, evaluator_fingerprint
from repro.eval.stream import RunningStats
from repro.eval.sweeps import SweepRunner, evaluate_comm_case
from repro.obs.report import report_data
from repro.svc import register_evaluator, start_service

GRID = {
    "archs": ["siam", "kite"],
    "sizes": [16],
    "workloads": ["uniform", "neighbor"],
    "seeds": [0, 1],
    "tag": "svc-β",
}


def _arrayful_evaluator(case):
    """Registered test evaluator returning an npz array payload."""
    return {
        "value": float(case.seed),
        "profile": np.arange(3, dtype=np.float64) + case.seed,
    }


register_evaluator("test_svc_arrays", _arrayful_evaluator)

#: Holds ``_blocking_evaluator`` until a test sets it.
_RELEASE = threading.Event()


def _blocking_evaluator(case):
    """Registered test evaluator that keeps its job running."""
    _RELEASE.wait(timeout=30)
    return {"value": float(case.seed)}


register_evaluator("test_svc_blocking", _blocking_evaluator)


class _Client:
    def __init__(self, base: str) -> None:
        self.base = base

    def get(self, path: str):
        with urllib.request.urlopen(self.base + path, timeout=30) as r:
            return r.status, json.loads(r.read())

    def get_raw(self, path: str) -> bytes:
        with urllib.request.urlopen(self.base + path, timeout=30) as r:
            return r.read()

    def post(self, path: str, body: dict):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as r:
            return r.status, json.loads(r.read())

    def error(self, method: str, path: str, body=None):
        """Status + payload of an expected-error request."""
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def wait_done(self, status_url: str, timeout_s: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            _, progress = self.get(status_url)
            if progress["state"] == "done":
                return progress
            time.sleep(0.05)
        raise AssertionError(f"job never finished: {progress}")

    def sse_frames(self, events_url: str):
        """All SSE frames until the stream closes, as (event, dict)."""
        frames = []
        with urllib.request.urlopen(self.base + events_url,
                                    timeout=60) as response:
            raw = response.read().decode("utf-8")
        for block in raw.strip().split("\n\n"):
            lines = block.splitlines()
            event = lines[0][len("event: "):]
            data = json.loads(lines[1][len("data: "):])
            frames.append((event, data))
        return frames


@pytest.fixture()
def service(tmp_path):
    svc = start_service(tmp_path / "store", workers=2, lease_ttl_s=30.0)
    # A short poll keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(target=svc.serve_forever, daemon=True,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    host, port = svc.server_address[:2]
    try:
        yield _Client(f"http://{host}:{port}"), tmp_path / "store"
    finally:
        svc.shutdown()
        svc.server_close()


def _spawn_external_worker(store, grid_json, trace_dir):
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.eval.shard", "worker",
            "--store", str(store), "--grid", grid_json,
            "--evaluator", "evaluate_comm_case",
            "--worker-id", "external-1", "--poll", "0.01",
            "--deadline", "120", "--trace", str(trace_dir),
        ],
        env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )


class TestEndToEnd:
    def test_post_drain_stream_query_replay(self, service, tmp_path):
        client, store_root = service

        # POST the grid; an external shard worker joins the same drain.
        status, job = client.post("/v1/sweeps", {
            "grid": GRID, "evaluator": "evaluate_comm_case",
        })
        assert status == 201
        assert job["total"] == 8
        worker = _spawn_external_worker(
            store_root, json.dumps(GRID), job["trace_dir"]
        )
        try:
            progress = client.wait_done(job["status_url"])
            out = worker.communicate(timeout=120)[0]
            assert worker.returncode == 0, out
        finally:
            if worker.poll() is None:  # pragma: no cover - cleanup
                worker.kill()
        assert progress["done"] == 8
        assert progress["failed"] == 0
        assert progress["worker_errors"] == []
        assert progress["eta_s"] == 0.0

        # Every case landed in the shared store, whichever participant
        # (service thread or external worker) produced it.
        cases = GridSpec.from_json(json.dumps(GRID)).cases()
        fingerprint = evaluator_fingerprint(evaluate_comm_case)
        keys = [case_key(c, fingerprint) for c in cases]
        assert not ResultStore(store_root).missing(keys)

        # SSE: stream after completion -> exactly one "done" frame that
        # equals a post-hoc report_data() over the same trace dir.
        frames = client.sse_frames(job["events_url"])
        assert [event for event, _ in frames] == ["done"]
        posthoc = report_data(job["trace_dir"])
        assert (
            json.dumps(frames[-1][1], sort_keys=True)
            == json.dumps(posthoc, sort_keys=True)
        )
        # The external worker's spans made it into the stream.
        assert "external-1" in frames[-1][1]["workers"]

        # Queried aggregates are bit-identical to a single-host
        # run_stream of the same grid.
        ref_stats = RunningStats("latency_cycles")
        ref = SweepRunner(
            evaluate_comm_case, workers=1,
            store=ResultStore(tmp_path / "ref-store"),
        ).run_stream(cases, (ref_stats,))
        assert not ref.failures
        _, queried = client.get(
            "/v1/results?tag=svc-%CE%B2&metric=latency_cycles&limit=8"
        )
        agg = queried["aggregates"]["latency_cycles"]
        assert queried["total"] == 8
        assert agg["count"] == ref_stats.count
        assert agg["sum"] == ref_stats.sum
        assert agg["mean"] == ref_stats.mean
        assert agg["min"] == ref_stats.min
        assert agg["max"] == ref_stats.max

        # Repeated queries are bit-identical bytes (cold vs warm).
        path = "/v1/results?tag=svc-%CE%B2&metric=latency_cycles"
        assert client.get_raw(path) == client.get_raw(path)

        # Warm re-POST of the same grid: pure cache replay, zero
        # evaluations anywhere.
        _, rejob = client.post("/v1/sweeps", {
            "grid": GRID, "evaluator": "evaluate_comm_case",
        })
        reprogress = client.wait_done(rejob["status_url"])
        assert reprogress["done"] == 8
        assert reprogress["evaluated"] == 0
        assert reprogress["store_hits"] > 0

    def test_unicode_axes_round_trip_the_service_boundary(self, service):
        client, _ = service
        grid = dict(GRID, tag="グリッド-Ω", seeds=[5])
        _, job = client.post("/v1/sweeps", {
            "grid": grid, "evaluator": "evaluate_comm_case",
        })
        assert job["total"] == 4
        client.wait_done(job["status_url"])
        _, queried = client.get(
            "/v1/results?tag=" + urllib.parse.quote("グリッド-Ω")
        )
        assert queried["total"] == 4
        assert all(r["case"]["tag"] == "グリッド-Ω"
                   for r in queried["results"])
        assert all(r["case"]["seed"] == 5 for r in queried["results"])

    def test_failing_cases_surface_as_failed_never_cached(self, service):
        client, store_root = service
        grid = {"archs": ["siam"], "sizes": [16],
                "workloads": ["uniform", "nosuchpattern"], "seeds": [0]}
        _, job = client.post("/v1/sweeps", {
            "grid": grid, "evaluator": "evaluate_comm_case",
        })
        progress = client.wait_done(job["status_url"])
        assert progress["done"] == 1
        assert progress["failed"] == 1
        assert any("nosuchpattern" in case_id
                   for case_id in progress["failures"])
        # Never cached: a re-POST fails it again instead of replaying.
        _, rejob = client.post("/v1/sweeps", {"grid": grid})
        reprogress = client.wait_done(rejob["status_url"])
        assert reprogress["failed"] == 1
        assert reprogress["evaluated"] == 0  # retry happened, no cache

    def test_array_payloads_ride_the_store(self, service):
        client, store_root = service
        grid = {"archs": ["siam"], "sizes": [16],
                "workloads": ["uniform"], "seeds": [0, 1],
                "tag": "arrayful"}
        _, job = client.post("/v1/sweeps", {
            "grid": grid, "evaluator": "test_svc_arrays",
        })
        progress = client.wait_done(job["status_url"])
        assert progress["failed"] == 0
        _, queried = client.get("/v1/results?tag=arrayful")
        assert queried["total"] == 2
        assert all(r["has_arrays"] for r in queried["results"])
        # The npz payloads are real: load one back through the store.
        store = ResultStore(store_root)
        cases = GridSpec.from_json(json.dumps(grid)).cases()
        fingerprint = evaluator_fingerprint(_arrayful_evaluator)
        result = store.get(case_key(cases[0], fingerprint), cases[0])
        assert result is not None
        np.testing.assert_array_equal(
            result.arrays["profile"], np.arange(3, dtype=np.float64)
        )


class TestEndpoints:
    def test_healthz_and_metrics(self, service):
        client, store_root = service
        _, health = client.get("/v1/healthz")
        assert health["ok"] is True
        assert health["store"] == str(store_root)
        _, metrics = client.get("/v1/metrics")
        assert metrics["counters"]["svc_requests"] >= 1
        assert "histograms" in metrics

    def test_unknown_evaluator_is_400(self, service):
        client, _ = service
        status, payload = client.error("POST", "/v1/sweeps", {
            "grid": GRID, "evaluator": "import_me_please",
        })
        assert status == 400
        assert "registered" in payload["error"]

    def test_bad_grid_is_400(self, service):
        client, _ = service
        status, payload = client.error("POST", "/v1/sweeps", {
            "grid": {"sizes": [16]},
        })
        assert status == 400
        assert "grid" in payload["error"]

    def test_bad_override_is_400(self, service):
        client, _ = service
        _, before = client.get("/v1/metrics")
        grid = dict(GRID, overrides=[[["fc_bufer_flits", 16]]])
        status, payload = client.error("POST", "/v1/sweeps", {"grid": grid})
        assert status == 400
        assert "fc_bufer_flits" in payload["error"]
        # Rejected before a job (and its leases) existed.
        _, after = client.get("/v1/metrics")
        submitted = "svc_sweeps_submitted"
        assert (after["counters"].get(submitted, 0)
                == before["counters"].get(submitted, 0))

    @pytest.mark.parametrize("grid, named", [
        pytest.param(dict(GRID, archs=["nope"]), "'nope'", id="arch"),
        pytest.param(dict(GRID, overrides=[[["fc_buffer_flits", "x"]]]),
                     "fc_buffer_flits='x'", id="override-type"),
    ])
    def test_unknown_arch_or_mistyped_override_is_400(self, service, grid,
                                                      named):
        # Rejected at the boundary: no job, so no lease and no case
        # that would fail per case later.
        client, _ = service
        _, before = client.get("/v1/metrics")
        status, payload = client.error("POST", "/v1/sweeps", {"grid": grid})
        assert status == 400
        assert named in payload["error"]
        _, after = client.get("/v1/metrics")
        submitted = "svc_sweeps_submitted"
        assert (after["counters"].get(submitted, 0)
                == before["counters"].get(submitted, 0))

    def test_infinite_size_is_400(self, service):
        # JSON 1e999 reads as inf; int(inf) used to raise OverflowError,
        # which the handler did not catch, so the connection dropped.
        client, _ = service
        status, payload = client.error("POST", "/v1/sweeps", {
            "grid": dict(GRID, sizes=[float("inf")]),
        })
        assert status == 400
        assert "'sizes'" in payload["error"]

    def test_unexpected_error_is_json_500(self, service, monkeypatch):
        from repro.svc.jobs import JobManager

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic submit failure")

        monkeypatch.setattr(JobManager, "submit", explode)
        client, _ = service
        _, before = client.get("/v1/metrics")
        status, payload = client.error("POST", "/v1/sweeps", {"grid": GRID})
        assert status == 500
        assert "synthetic submit failure" in payload["error"]
        _, after = client.get("/v1/metrics")
        assert (after["counters"]["svc_errors"]
                == before["counters"].get("svc_errors", 0) + 1)

    def test_missing_grid_is_400(self, service):
        client, _ = service
        status, payload = client.error("POST", "/v1/sweeps", {})
        assert status == 400

    def test_unknown_job_is_404(self, service):
        client, _ = service
        status, payload = client.error("GET", "/v1/sweeps/job-nope")
        assert status == 404
        assert "job" in payload["error"]

    def test_finished_jobs_are_evicted_running_kept(self, service,
                                                    monkeypatch):
        from repro.svc import jobs

        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 2)
        client, _ = service
        one_case = dict(GRID, archs=["siam"], workloads=["uniform"],
                        seeds=[0])
        _RELEASE.clear()
        try:
            _, running = client.post("/v1/sweeps", {
                "grid": one_case, "evaluator": "test_svc_blocking",
            })
            finished = []
            for seed in range(4):
                _, job = client.post("/v1/sweeps", {
                    "grid": dict(one_case, seeds=[seed]),
                    "evaluator": "test_svc_arrays",
                })
                client.wait_done(job["status_url"])
                finished.append(job)
            # The fourth submit saw three finished jobs: the oldest
            # went; the older but still running job stayed.
            status, payload = client.error("GET",
                                           finished[0]["status_url"])
            assert status == 404
            assert "job" in payload["error"]
            for job in finished[1:]:
                assert client.get(job["status_url"])[0] == 200
            _, progress = client.get(running["status_url"])
            assert progress["state"] == "running"
        finally:
            _RELEASE.set()
        assert client.wait_done(running["status_url"])["done"] == 1

    def test_unknown_route_is_404(self, service):
        client, _ = service
        status, _ = client.error("GET", "/v2/everything")
        assert status == 404

    def test_bad_query_parameter_is_400(self, service):
        client, _ = service
        status, payload = client.error("GET", "/v1/results?archs=siam")
        assert status == 400
        assert "unknown query parameters" in payload["error"]

    def test_results_pagination_over_http(self, service):
        client, _ = service
        _, job = client.post("/v1/sweeps", {"grid": GRID})
        client.wait_done(job["status_url"])
        first = client.get("/v1/results?limit=3&offset=0")[1]
        rest = client.get("/v1/results?limit=100&offset=3")[1]
        assert first["total"] == rest["total"] == 8
        keys = [r["key"] for r in first["results"] + rest["results"]]
        assert len(keys) == 8 and len(set(keys)) == 8


class TestCLI:
    def test_serve_command_binds_and_answers(self, tmp_path):
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.svc", "serve",
                "--store", str(tmp_path / "store"), "--port", "0",
            ],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "http://" in line, line
            port = int(line.rsplit(":", 1)[1])
            client = _Client(f"http://127.0.0.1:{port}")
            _, health = client.get("/v1/healthz")
            assert health["ok"] is True
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_service_imports_stdlib_only(self):
        """The HTTP layer adds no dependency: stdlib and repro only."""
        import ast

        package = Path(repro.__file__).resolve().parent / "svc"
        foreign = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                foreign += [
                    f"{path.name}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names
                    and name.split(".")[0] != "repro"
                ]
        assert foreign == []

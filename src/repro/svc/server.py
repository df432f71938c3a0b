"""Stdlib HTTP front end: routes, SSE streaming, JSON plumbing.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` only -- per the
repo's zero-dependency convention the service must run anywhere the
package does, so there is no web framework underneath.  One daemon
thread per connection is the right shape here: every endpoint is
either a dictionary read or a long-lived SSE tail, and the evaluation
work itself runs on the job's own worker threads (plus any external
fleet), never on request threads.

Wire formats are deliberately borrowed rather than invented:

* ``GET /v1/sweeps/{id}/events`` frames are
  :func:`repro.obs.report.report_data` dicts -- exactly what
  ``python -m repro.obs report --json`` prints -- fed by an
  incremental :class:`~repro.obs.watch.TraceTail` over the job's trace
  directory.  The final frame (``event: done``) is emitted after the
  job is observed finished *and* the tail has been polled once more,
  so it equals a post-hoc ``report_data()`` over the same directory.
* ``GET /v1/results`` responses are :func:`repro.eval.queries
  .query_results` dicts.
* ``GET /v1/metrics`` is the :data:`~repro.obs.metrics.REGISTRY`
  snapshot, with the service's own request counters and latency
  histogram (``svc_requests``, ``svc_request_s``) folded in alongside
  the drain substrate's.
"""

from __future__ import annotations

import json
import re
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..eval.shard import GridSpec
from ..obs.clock import clock
from ..obs.metrics import REGISTRY
from ..obs.report import report_data
from ..obs.watch import TraceTail
from .jobs import EVALUATORS, JobManager

__all__ = [
    "SweepService",
    "start_service",
]

_JOB_PATH = re.compile(r"^/v1/sweeps/([A-Za-z0-9._-]+)(/events)?$")

#: SSE tail poll interval: fast enough to feel live, slow enough that
#: an idle stream is a handful of directory scans per second.
SSE_POLL_S = 0.2


def _json_bytes(payload: object) -> bytes:
    # sort_keys so identical state serialises identically -- the warm
    # vs cold bit-identical-response contract is byte equality.
    return json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


class SweepService(ThreadingHTTPServer):
    """The server object: one :class:`~repro.svc.jobs.JobManager` + HTTP."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    # Connection: close keeps the threading model one-request-one-
    # thread; SSE streams end by the server closing the connection.
    protocol_version = "HTTP/1.1"
    server: SweepService

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        # Request logging rides the metrics/trace layer, not stderr.
        return

    def _reply(self, status: int, payload: object) -> None:
        body = _json_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        REGISTRY.counter("svc_errors").inc()
        self._reply(status, {"error": message})

    def _observe(self, route: str, start: float) -> None:
        REGISTRY.counter("svc_requests").inc()
        REGISTRY.counter(f"svc_requests_{route}").inc()
        REGISTRY.histogram("svc_request_s").observe(clock() - start)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        start = clock()
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        try:
            if path == "/v1/healthz":
                self._reply(200, {
                    "ok": True,
                    "store": str(self.server.manager.store_root),
                    "jobs": self.server.manager.job_count(),
                })
                self._observe("healthz", start)
            elif path == "/v1/metrics":
                self._reply(200, REGISTRY.snapshot())
                self._observe("metrics", start)
            elif path == "/v1/results":
                self._get_results(parts.query)
                self._observe("results", start)
            else:
                match = _JOB_PATH.match(path)
                if not match:
                    self._error(404, f"no route for {path}")
                    return
                job = self.server.manager.get(match.group(1))
                if job is None:
                    self._error(404, f"unknown job {match.group(1)!r}")
                    return
                if match.group(2):
                    self._stream_events(job)
                    self._observe("events", start)
                else:
                    self._reply(200, self.server.manager.progress(job))
                    self._observe("sweep_status", start)
        except (BrokenPipeError, ConnectionResetError):
            REGISTRY.counter("svc_disconnects").inc()
        except Exception as exc:
            # A JSON 500, never a dropped connection.
            traceback.print_exc()
            self._error(500, f"internal error: {exc!r}")

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        start = clock()
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if path != "/v1/sweeps":
                self._error(404, f"no route for {path}")
                return
            self._post_sweep()
            self._observe("sweeps", start)
        except (BrokenPipeError, ConnectionResetError):
            REGISTRY.counter("svc_disconnects").inc()
        except Exception as exc:
            # A JSON 500, never a dropped connection.
            traceback.print_exc()
            self._error(500, f"internal error: {exc!r}")

    # -- endpoint bodies ---------------------------------------------------

    def _read_body(self) -> Optional[Dict[str, object]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length > 0 else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(body, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return body

    def _post_sweep(self) -> None:
        body = self._read_body()
        if body is None:
            return
        grid = body.get("grid")
        if grid is None:
            self._error(400, "missing 'grid' (a GridSpec JSON object)")
            return
        try:
            spec = GridSpec.from_json(
                grid if isinstance(grid, str) else json.dumps(grid)
            )
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad grid: {exc}")
            return
        evaluator = body.get("evaluator", "evaluate_comm_case")
        if not isinstance(evaluator, str) or evaluator not in EVALUATORS:
            self._error(400, (
                f"unknown evaluator {evaluator!r} "
                f"(registered: {sorted(EVALUATORS)})"
            ))
            return
        workers = body.get("workers")
        if workers is not None and (
            not isinstance(workers, int) or workers < 1
        ):
            self._error(400, "'workers' must be a positive integer")
            return
        try:
            job = self.server.manager.submit(
                spec, evaluator, workers=workers,
            )
        except ValueError as exc:
            self._error(400, str(exc))
            return
        self._reply(201, {
            "job": job.job_id,
            "total": len(job.cases),
            "evaluator": job.evaluator_name,
            "workers": job.workers,
            "trace_dir": str(job.trace_dir),
            "status_url": f"/v1/sweeps/{job.job_id}",
            "events_url": f"/v1/sweeps/{job.job_id}/events",
        })

    def _get_results(self, query_string: str) -> None:
        params = parse_qs(query_string, keep_blank_values=False)
        try:
            payload = self.server.manager.query(params)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        self._reply(200, payload)

    def _stream_events(self, job) -> None:
        """SSE: ``report`` frames while draining, one ``done`` frame.

        Ordering is the correctness story: ``finished`` is sampled
        *before* each poll, so the ``done`` frame always includes every
        record that existed when the job completed -- it is the same
        dict a post-hoc ``report_data(trace_dir)`` produces, because
        both are ``merge_traces`` over the same set of records.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        tail = TraceTail(job.trace_dir)
        seen = 0
        while True:
            finished = job.finished
            tail.poll()
            # Emit on news or state change; an idle drain produces
            # polls, not frames.
            if len(tail.records) != seen or finished:
                seen = len(tail.records)
                frame = report_data(tail.records)
                event = "done" if finished else "report"
                self.wfile.write(
                    b"event: " + event.encode("ascii") + b"\n"
                    b"data: " + _json_bytes(frame) + b"\n\n"
                )
                self.wfile.flush()
                REGISTRY.counter("svc_sse_frames").inc()
            if finished:
                return
            time.sleep(SSE_POLL_S)


def start_service(
    store_dir,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    lease_ttl_s: float = 30.0,
    deadline_s: Optional[float] = None,
) -> SweepService:
    """Build a ready-to-serve :class:`SweepService` (not yet serving).

    ``port=0`` binds an ephemeral port -- read it back from
    ``service.server_address``.  Call ``serve_forever()`` (or run it on
    a thread) to start handling requests, ``shutdown()`` + ``
    server_close()`` to stop.
    """
    manager = JobManager(
        store_dir, workers=workers,
        lease_ttl_s=lease_ttl_s, deadline_s=deadline_s,
    )
    return SweepService((host, port), manager)

"""``results_query``: ``/v1/results`` queries over a 20k-record store.

Set-up writes synthetic comm-shaped records through ``ResultStore.put``,
starts ``start_service(workers=1)`` and answers one query so the
service's index is warm.  One closed-loop client then runs rounds of a
fixed query mix.  Each round is five warm HTTP queries (full-scan
aggregate, pivot, selective axis filter, override filter, paging), one
live query (a second store handle appends a batch first) and one cold
query (``query_results`` on a freshly opened ``ResultStore``).  Nothing
is simulated: store refresh, record parsing, the fold and HTTP carry
all the cost.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request
from urllib.parse import urlencode

import numpy as np

from common import (
    HostSpeed,
    Outcome,
    digest,
    median,
    peak_rss_mb,
    percentile,
    remove_dir,
    scratch_dir,
)

ARCHS = ("floret", "siam", "kite", "swap")
SIZES = (16, 36, 64, 100, 256)
WORKLOADS = ("uniform", "neighbor", "hotspot", "transpose", "uniform@0.02",
             "uniform@0.05", "uniform@0.1", "neighbor@0.1", "hotspot@0.05",
             "transpose@0.05")
OVERRIDES = (
    (),
    (("fc_buffer_flits", 8),),
    (("fc_buffer_flits", 16),),
    (("fc_buffer_flits", 32),),
    (("fc_buffer_flits", 16), ("fc_credit_rtt", 1)),
    (("fc_buffer_flits", 64), ("fc_credit_rtt", 2)),
    (("fc_credit_rtt", 4),),
    (("flit_bytes", 16),),
    (("flit_bytes", 64),),
    (("flit_bytes", 32), ("fc_buffer_flits", 16)),
)
#: Case seeds of the initial records: 4 x 5 x 10 x 10 x 10 = 20k cases.
SEEDS = 10
#: Records a live round appends before its query.
LIVE_BATCH = 20
#: Evaluator identity stamped into the synthetic records' keys.
FINGERPRINT = "perfbench.synthetic_comm@1"
SETUP_SAMPLES = 3
MIN_ROUNDS = 4


def _query_mix(index: int):
    """The five warm queries of round ``index`` (parse_qs-shaped dicts)."""
    return [
        {"metric": ["latency_cycles,energy_pj"], "limit": ["20"]},
        {"pivot": ["latency_cycles"], "limit": ["10"]},
        {"arch": ["kite"], "size": ["256"], "workload": ["uniform@0.05"],
         "metric": ["energy_pj"]},
        {"override": ["fc_buffer_flits=16"],
         "metric": ["latency_cycles,total_flits"]},
        {"arch": ["siam"], "offset": [str(50 * (index % 40))],
         "limit": ["50"]},
    ]


LIVE_QUERY = {"tag": ["live"], "metric": ["latency_cycles"], "limit": ["20"]}
COLD_QUERY = {"workload": ["uniform@0.1"], "metric": ["energy_pj"],
              "limit": ["20"]}


class Records:
    """The generator: every record written, for recounts."""

    def __init__(self, seed: int) -> None:
        from repro.eval import SweepCase

        self.rng = np.random.default_rng(seed)
        cases = [
            SweepCase(arch, size, workload, s, overrides, tag="base")
            for arch in ARCHS for size in SIZES for workload in WORKLOADS
            for overrides in OVERRIDES for s in range(SEEDS)
        ]
        order = self.rng.permutation(len(cases))
        self.initial = [self._row(cases[i]) for i in order]
        self.live_count = 0

    def _row(self, case):
        from repro.eval import case_key

        r = self.rng
        metrics = {
            "latency_cycles": float(r.integers(100, 100_000)),
            "serial_latency_cycles": float(r.integers(100, 400_000)),
            "energy_pj": float(r.lognormal(12.0, 1.5)),
            "total_flits": float(r.integers(64, 200_000)),
            "weighted_hops": float(r.uniform(1.0, 12.0)),
            "mean_packet_latency": float(r.uniform(5.0, 400.0)),
        }
        return case_key(case, FINGERPRINT), case, metrics

    def live_batch(self):
        from repro.eval import SweepCase

        batch = []
        for _ in range(LIVE_BATCH):
            i = self.live_count
            self.live_count += 1
            case = SweepCase(ARCHS[i % 4], SIZES[i % 5], WORKLOADS[i % 10],
                             SEEDS + i, OVERRIDES[i % 10], tag="live")
            batch.append(self._row(case))
        return batch


def _put_all(store, rows, outcome) -> None:
    from repro.eval import SweepResult

    for key, case, metrics in rows:
        outcome.attempted += 1
        if not store.put(key, SweepResult(case=case, metrics=metrics,
                                          elapsed_s=0.001)):
            outcome.failed += 1


class Served:
    """A store directory with a running service over it."""

    def __init__(self, rows, outcome) -> None:
        from repro.eval import ResultStore
        from repro.svc import start_service

        self.path = scratch_dir("query-")
        t0 = time.perf_counter()
        _put_all(ResultStore(self.path), rows, outcome)
        self.service = start_service(self.path, workers=1)
        self.thread = threading.Thread(
            target=self.service.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        host, port = self.service.server_address[:2]
        self.base = f"http://{host}:{port}/v1/results?"
        self.get(_query_mix(0)[0])  # load the service's store index
        self.setup_s = time.perf_counter() - t0

    def get(self, params) -> bytes:
        url = self.base + urlencode(params, doseq=True)
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.read()

    def close(self) -> None:
        self.service.shutdown()
        self.service.server_close()
        self.thread.join(timeout=10)
        remove_dir(self.path)


def _matches(params, case) -> bool:
    """The recount's own reading of a query's filters."""
    if "arch" in params and case.arch not in params["arch"]:
        return False
    if "size" in params and str(case.num_chiplets) not in params["size"]:
        return False
    if "workload" in params and case.workload not in params["workload"]:
        return False
    if "tag" in params and case.tag not in params["tag"]:
        return False
    have = dict(case.noi_overrides)
    for text in params.get("override", ()):
        name, value = text.split("=")
        if name not in have or float(have[name]) != float(value):
            return False
    return True


def _close(a, b) -> bool:
    return a == b or (a is not None and b is not None
                      and math.isclose(a, b, rel_tol=1e-12))


def check_response(params, payload, rows) -> list:
    """Compare one response with a recount over the generator's rows."""
    errors = []
    label = urlencode(params, doseq=True)
    matched = sorted(
        (case.case_id, key, case, metrics)
        for key, case, metrics in rows if _matches(params, case)
    )
    if payload["total"] != len(matched):
        errors.append(f"{label}: total {payload['total']} != "
                      f"{len(matched)}")
    names = [n for chunk in params.get("metric", ()) for n in
             chunk.split(",")]
    for name in names:
        values = [m[name] for _, _, _, m in matched]
        got = payload["aggregates"][name]
        want = {"count": len(values), "min": min(values, default=None),
                "max": max(values, default=None),
                "sum": math.fsum(values),
                "mean": math.fsum(values) / len(values) if values else None}
        for field, value in want.items():
            if not _close(got[field], value):
                errors.append(f"{label}: {name}.{field} {got[field]} != "
                              f"{value}")
    if "pivot" in params:
        name = params["pivot"][0]
        cells = {}
        for _, _, case, metrics in matched:
            cells.setdefault(case.workload, {}).setdefault(
                case.arch, []).append(metrics[name])
        rows_got = payload["pivot"]["rows"]
        for workload, cols in cells.items():
            for arch, values in cols.items():
                mean = math.fsum(values) / len(values)
                if not _close(rows_got[workload][arch], mean):
                    errors.append(f"{label}: pivot {workload}/{arch}")
    offset = int(params.get("offset", ["0"])[0])
    limit = int(params.get("limit", ["50"])[0])
    page = [key for _, key, _, _ in matched[offset:offset + limit]]
    if [row["key"] for row in payload["results"]] != page:
        errors.append(f"{label}: page differs from recount")
    return errors


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.eval import ResultStore, parse_result_query, queries

    out = Outcome()
    records = Records(seed)
    speed = HostSpeed()
    setups = []
    for index in range(SETUP_SAMPLES):
        # Only the last set-up's puts are accounted; the others are
        # discarded after timing.
        last = index == SETUP_SAMPLES - 1
        served, _, factor = speed.around(
            lambda: Served(records.initial, out if last else Outcome()))
        setups.append((served.setup_s, served.setup_s * factor))
        if not last:
            served.close()
    try:
        rows = list(records.initial)
        # The digest covers answers over the initial records only, so
        # it does not depend on how many live rounds fit in the run.
        initial = [json.loads(served.get(p)) for p in _query_mix(0)]
        for params, payload in zip(_query_mix(0), initial):
            out.errors += check_response(params, payload, rows)
        out.digest = digest(initial)
        writer = ResultStore(served.path)
        warm, live, cold = [], [], []
        clock = None
        http_overhead = []

        def timed_get(params, samples) -> bool:
            speed.sample()
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                served.get(params)
            except OSError as exc:  # URLError and HTTPError included
                out.failed += 1
                out.errors.append(f"{urlencode(params, doseq=True)}: "
                                  f"{exc!r}")
                return False
            elapsed = time.perf_counter() - t0
            samples.append(elapsed)
            if clock is not None:
                http_overhead.append(elapsed - clock.latest("query"))
            return True

        def one_round(index, warm, live, cold):
            """One round of the mix, a host-speed sample before each
            query.  Appends (host s, quiet-host s) latencies to ``warm``,
            ``live`` and ``cold``; returns (queries done, records scanned,
            host s, quiet-host s)."""
            since = len(speed.samples)
            t_round = time.perf_counter()
            times = ([], [], [])
            done = sum(timed_get(params, times[0])
                       for params in _query_mix(index))
            scanned = done * len(rows)
            batch = records.live_batch()
            _put_all(writer, batch, out)
            rows.extend(batch)
            fresh = timed_get(LIVE_QUERY, times[1]) + 1
            speed.sample()
            out.attempted += 1
            t0 = time.perf_counter()
            # Looked up per call, so a traced run sees the shim.
            queries.query_results(ResultStore(served.path),
                                  parse_result_query(COLD_QUERY))
            times[2].append(time.perf_counter() - t0)
            wall = (time.perf_counter() - t_round
                    - sum(speed.samples[since:]))
            factor = speed.factor(since)
            for samples, kind in zip((warm, live, cold), times):
                samples.extend((t, t * factor) for t in kind)
            return (done + fresh, scanned + fresh * len(rows), wall,
                    wall * factor)

        rounds = []
        overhead = 0.0
        snapshot = None
        count = 0
        start = time.perf_counter()
        if trace:
            from shims import LayerClock

            # Same round mix twice, untraced then traced.
            while count < 2 or time.perf_counter() - start < seconds / 2:
                one_round(count, [], [], [])
                count += 1
            plain_s = time.perf_counter() - start
            clock = LayerClock().install()
            clock.watch_store(served.service.manager.read_store)
            clock.watch_store(writer)
            try:
                start = time.perf_counter()
                for index in range(count):
                    rounds.append(one_round(index, warm, live, cold))
                overhead = (time.perf_counter() - start) / plain_s - 1.0
                snapshot = clock.snapshot()
            finally:
                clock.uninstall()
        else:
            while count < MIN_ROUNDS or time.perf_counter() - start < seconds:
                rounds.append(one_round(count, warm, live, cold))
                count += 1
        rss_mb = peak_rss_mb()

        # Output checks against the generator's own recount, and
        # byte-identical repeats.
        answers = {}
        for params in _query_mix(count) + [LIVE_QUERY, COLD_QUERY]:
            first, second = served.get(params), served.get(params)
            label = urlencode(params, doseq=True)
            out.check(first == second, f"{label}: repeat differs")
            answers[label] = json.loads(first)
            out.errors += check_response(params, answers[label], rows)
        direct = queries.query_results(ResultStore(served.path),
                                       parse_result_query(COLD_QUERY))
        out.check(json.loads(json.dumps(direct))
                  == answers[urlencode(COLD_QUERY, doseq=True)],
                  "cold query_results differs from the HTTP answer")
    finally:
        served.close()

    out.end_to_end(setups=setups, rounds=rounds, latencies=warm + live + cold,
                   rss_mb=rss_mb, speed=speed.samples)

    def ms(pairs, q):
        value = percentile([quiet for _, quiet in pairs], q)
        return (None if value is None else 1e3 * value, "ms")

    out.details.update({
        "rounds": (count, "count"),
        "records": (len(rows), "count"),
        "query_p50_ms": ms(warm, 50),
        "query_p90_ms": ms(warm, 90),
        "live_query_p50_ms": ms(live, 50),
        "cold_query_p50_ms": ms(cold, 50),
        "live_query_median_ms": (1e3 * median([q for _, q in live]), "ms"),
        "cold_query_median_ms": (1e3 * median([q for _, q in cold]), "ms"),
        "failed_frac": (out.failed_frac, "ratio"),
    })
    if trace:
        from shims import layer_metrics

        out.layers = layer_metrics(
            snapshot, dse_overhead_s=0.0,
            http_overhead_ms=1e3 * median(http_overhead),
            overhead_frac=overhead,
            failed_frac=out.failed_frac,
        )
    return out

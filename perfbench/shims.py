"""Timing shims around the repo's public layer entry points.

Used only by traced runs (``--trace 1``).  Each shim replaces a module
attribute (or class attribute) in this process, so nothing under
``src/`` changes and untraced runs pay nothing.  A layer's *self time*
is its wall time minus the time of wrapped layers it called, tracked
with a per-thread stack so the HTTP server thread and the client
thread keep separate accounts.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, layer) of every wrapped free function.  A
# function imported by name into other ``repro`` modules is patched
# there too (see ``LayerClock.install``), so call sites that bound the
# name at import time are covered.
FUNCTION_LAYERS = (
    ("repro.core.floret", "build_floret", "noi"),
    ("repro.noi.mesh", "build_mesh", "noi"),
    ("repro.noi.kite", "build_kite", "noi"),
    ("repro.noi.swap", "build_swap", "noi"),
    ("repro.net.routing", "build_routing_tables", "routing.tables"),
    ("repro.net.routing", "build_link_queue_index", "routing.queue_index"),
    ("repro.eval.experiments", "load_sweep_traffic", "traffic"),
    ("repro.net.simulator", "simulate_packets", "sim"),
    ("repro.eval.experiments", "schedule", "sched"),
    ("repro.eval.queries", "query_results", "query"),
)

# (module, class, method, layer) of every wrapped method.
METHOD_LAYERS = (
    ("repro.eval.store", "ResultStore", "put", "store.put"),
    ("repro.eval.store", "ResultStore", "get", "store.get"),
)

SIM_ENGINES = ("none", "events", "epochs", "epochs-par", "epochs-jit")


class LayerClock:
    """Per-layer call counts, self time and simulator counters."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        #: Duration of the latest call per layer, any thread.
        self.latest_s = {}
        self.sim = defaultdict(int)
        self.store_hits = 0
        self.records_parsed = 0
        self.store_stats = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- accounting ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, layer, fn, observe=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_s[layer] += elapsed - children
                    self.calls[layer] += 1
                    self.latest_s[layer] = elapsed
            if observe is not None:
                with self._lock:
                    observe(result)
            return result

        return timed

    def _observe_sim(self, sim) -> None:
        self.sim["packets"] += sim.packets
        self.sim["contended"] += sim.contended_packets
        # Tiers that keep no epoch or component count may drop the field.
        self.sim["epochs"] += getattr(sim, "epochs", 0)
        self.sim["components"] += getattr(sim, "components", 0)
        self.sim[f"engine.{sim.engine}"] += 1

    def _observe_get(self, result) -> None:
        if result is not None:
            self.store_hits += 1

    def latest(self, layer: str) -> float:
        """Duration of the most recent ``layer`` call on any thread."""
        with self._lock:
            return self.latest_s.get(layer, 0.0)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "LayerClock":
        import importlib

        observers = {"sim": self._observe_sim}
        for module_name, attr, layer in FUNCTION_LAYERS:
            original = getattr(importlib.import_module(module_name), attr,
                               None)
            if original is None:
                continue  # entry point gone: its layer reports 0
            wrapper = self._timed(layer, original, observers.get(layer))
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, attr, None) is original):
                    self._patch(other, attr, wrapper)
        for module_name, cls_name, method, layer in METHOD_LAYERS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            observe = self._observe_get if method == "get" else None
            self._patch(cls, method,
                        self._timed(layer, getattr(cls, method), observe))
        self._count_parses()
        self._track_store_stats()
        return self

    def _count_parses(self) -> None:
        """Count ``case_from_record`` calls: records parsed per query."""
        from repro.eval import store

        original = store.case_from_record

        @functools.wraps(original)
        def counted(record):
            self.records_parsed += 1
            return original(record)

        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, "case_from_record", None)
                    is original):
                self._patch(other, "case_from_record", counted)

    def watch_store(self, store) -> None:
        """Count ``store``'s shard reads from now on.

        Keeps the ``StoreStats`` object, not the store, so short-lived
        stores (cold queries) are still freed.
        """
        with self._lock:
            self.store_stats.append((store.stats, store.stats.shard_reads))

    def _track_store_stats(self) -> None:
        """Watch every store opened while the shims are installed."""
        from repro.eval.store import ResultStore

        original = ResultStore.__init__

        @functools.wraps(original)
        def init(store, *args, **kwargs):
            original(store, *args, **kwargs)
            self.watch_store(store)

        self._patch(ResultStore, "__init__", init)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "LayerClock":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- report ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON counters (they cross the child-process boundary)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "sim": dict(self.sim),
                "store_hits": self.store_hits,
                "records_parsed": self.records_parsed,
                "shard_reads": sum(stats.shard_reads - base
                                   for stats, base in self.store_stats),
            }


def layer_metrics(snap: dict, *, dse_overhead_s: float,
                  http_overhead_ms: float, overhead_frac: float,
                  failed_frac: float) -> dict:
    """The per-layer metric dict every workload reports when traced.

    Layers a workload never reaches report 0: the set of names is the
    same on every workload, which keeps traced runs comparable.
    """
    self_s, calls, sim = snap["self_s"], snap["calls"], snap["sim"]
    packets = sim.get("packets", 0)
    gets = calls.get("store.get", 0)
    queries = calls.get("query", 0)
    metrics = {
        "noi.build_s": (self_s.get("noi", 0.0), "s"),
        "noi.builds": (calls.get("noi", 0), "count"),
        "routing.tables_s": (self_s.get("routing.tables", 0.0), "s"),
        "routing.tables_built": (calls.get("routing.tables", 0), "count"),
        "routing.queue_index_s": (
            self_s.get("routing.queue_index", 0.0), "s"),
        "traffic.gen_s": (self_s.get("traffic", 0.0), "s"),
        "sim.simulate_s": (self_s.get("sim", 0.0), "s"),
        "sim.us_per_packet": (
            1e6 * self_s.get("sim", 0.0) / packets if packets else 0.0,
            "us"),
        "sim.contended_frac": (
            sim.get("contended", 0) / packets if packets else 0.0, "ratio"),
        "sim.epochs": (sim.get("epochs", 0), "count"),
        "sim.components": (sim.get("components", 0), "count"),
        "sched.schedule_s": (self_s.get("sched", 0.0), "s"),
        "store.put_s": (self_s.get("store.put", 0.0), "s"),
        "store.get_s": (self_s.get("store.get", 0.0), "s"),
        "store.puts": (calls.get("store.put", 0), "count"),
        "store.hit_rate": (
            snap["store_hits"] / gets if gets else 0.0, "ratio"),
        "store.shard_reads": (snap["shard_reads"], "count"),
        "dse.overhead_s": (dse_overhead_s, "s"),
        "query.fold_s": (self_s.get("query", 0.0), "s"),
        "query.records": (
            snap["records_parsed"] / queries if queries else 0.0, "count"),
        "svc.http_overhead_ms": (http_overhead_ms, "ms"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "failed_frac": (failed_frac, "ratio"),
    }
    for engine in SIM_ENGINES:
        metrics[f"sim.engine.{engine}"] = (
            sim.get(f"engine.{engine}", 0), "count")
    return metrics

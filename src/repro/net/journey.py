"""Packet-journey latency attribution: where every cycle of latency went.

The simulator engines answer *how long* each packet took; this module
answers *why*.  Every engine (and the contention-free fast path) can
emit a :class:`~repro.net.flowcontrol.GrantTrace` -- one row per link
grant with ``ready``/``start``/``flits``/``credit_wait`` -- and those
rows determine an exact, engine-independent decomposition of each
packet's latency:

    latency = injection_wait + pipeline + serialization
              + queue_wait + credit_stall

* **injection_wait** -- cycles the packet sat in its source's injection
  queue before entering the network (hop-0 ``ready`` minus the inject
  cycle and the source router's pipeline); non-zero only under
  closed-loop ``source_queue`` backpressure.
* **pipeline** -- the fixed router/wire forwarding latency of the route
  (the zero-load head-flit latency): the source router stage plus each
  hop's wire delay and downstream router stage.
* **serialization** -- ``flits`` cycles per hop (store-and-forward puts
  the whole packet on every link).
* **queue_wait** -- cycles spent waiting for links busy with *other*
  packets (``start - ready - credit_wait``, summed over hops).
* **credit_stall** -- the share of waiting attributable to credit
  starvation (downstream buffers full); 0 in open loop.

The reduction is order-invariant: rows are put into canonical
``(packet, hop)`` order first and every aggregation is a segment sum in
exact int64, so all three tiers (events / epochs / fast path)
produce **bit-identical** breakdowns from their differently-ordered
traces (``tests/test_journey.py``).

Entry points:

* :func:`latency_breakdown` -- the aggregated
  :class:`LatencyBreakdown`: per-packet component arrays, per-link
  queue/credit/serialization totals, hotspot ranking, p50/p95/p99 per
  component, and npz-ready arrays for the result store.
* :func:`packet_journeys` -- per-packet :class:`PacketJourney` hop
  narratives for drilling into individual slow packets.

Enable trace collection with ``simulate_packets(...,
attribution=True)`` (or the ``sim_attribution`` :class:`NoIParams`
knob, which also ships the arrays through sweep results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..obs.metrics import REGISTRY

__all__ = [
    "COMPONENTS",
    "LatencyBreakdown",
    "PacketJourney",
    "latency_breakdown",
    "packet_journeys",
]

#: The additive latency components, in reporting order.  Their
#: per-packet arrays sum exactly to ``PacketSim.latency``.
COMPONENTS = (
    "injection_wait",
    "queue_wait",
    "credit_stall",
    "serialization",
    "pipeline",
)


@dataclass(frozen=True)
class PacketJourney:
    """One packet's hop-by-hop latency narrative.

    Scalars describe the whole journey; the arrays have one entry per
    hop in route order.  ``queue_wait + credit_wait + serialization +
    forward`` per hop, plus ``injection_wait`` and the source router
    stage, telescopes exactly to ``latency``.

    Attributes:
        packet: Global packet index (packetisation order).
        inject: Scheduled injection cycle.
        completion: Delivery cycle.
        latency: ``completion - inject``.
        injection_wait: Source-queue deferral before the first hop.
        links: Directed link id per hop.
        ready: Cycle the request entered each link's queue.
        start: Cycle serialisation started on each link.
        queue_wait: ``start - ready - credit_wait`` per hop.
        credit_wait: Credit-starvation share of the wait per hop.
        serialization: Flit cycles paid per hop (the packet length).
        forward: Fixed wire + downstream-router cycles per hop.
    """

    packet: int
    inject: int
    completion: int
    latency: int
    injection_wait: int
    links: np.ndarray
    ready: np.ndarray
    start: np.ndarray
    queue_wait: np.ndarray
    credit_wait: np.ndarray
    serialization: np.ndarray
    forward: np.ndarray

    @property
    def hops(self) -> int:
        return int(self.links.shape[0])


@dataclass(frozen=True, eq=False)
class LatencyBreakdown:
    """Aggregated latency attribution of one simulation run.

    Per-packet arrays are ``(P,)`` in packetisation order and sum
    (across the five components) exactly to ``latency``; per-link
    arrays are ``(L,)`` over the topology's directed links.  Built by
    :func:`latency_breakdown`; identical across engine tiers by
    construction.
    """

    #: Per-packet component arrays, ``(P,)`` int64 each.
    injection_wait: np.ndarray
    queue_wait: np.ndarray
    credit_stall: np.ndarray
    serialization: np.ndarray
    pipeline: np.ndarray
    #: Per-packet total latency (``completion - inject``).
    latency: np.ndarray
    #: Per-directed-link cycle totals, ``(L,)`` int64 each.
    link_queue_wait: np.ndarray
    link_credit_stall: np.ndarray
    link_serialization: np.ndarray
    #: Packets granted per directed link.
    link_grants: np.ndarray
    #: Engine tier that resolved the contended subset (informational;
    #: every tier yields identical arrays).
    engine: str = "none"

    @property
    def packets(self) -> int:
        return int(self.latency.shape[0])

    @property
    def num_directed_links(self) -> int:
        return int(self.link_grants.shape[0])

    def component(self, name: str) -> np.ndarray:
        if name not in COMPONENTS:
            raise KeyError(
                f"unknown component {name!r}; expected one of {COMPONENTS}"
            )
        return getattr(self, name)

    def totals(self) -> Dict[str, int]:
        """Fleet-total cycles per component (plus ``latency``)."""
        out = {name: int(self.component(name).sum()) for name in COMPONENTS}
        out["latency"] = int(self.latency.sum())
        return out

    def percentiles(
        self, qs: Tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> Dict[str, Tuple[float, ...]]:
        """Per-component (and total-latency) percentile splits."""
        out: Dict[str, Tuple[float, ...]] = {}
        for name in COMPONENTS + ("latency",):
            values = self.component(name) if name in COMPONENTS \
                else self.latency
            if values.shape[0] == 0:
                out[name] = tuple(0.0 for _ in qs)
            else:
                out[name] = tuple(
                    float(np.percentile(values, q)) for q in qs
                )
        return out

    def hotspot_links(self, top: int = 10) -> List[dict]:
        """The ``top`` links ranked by queue + credit stall cycles.

        Ties break on link id, so the ranking is deterministic.
        """
        stall = self.link_queue_wait + self.link_credit_stall
        candidates = np.flatnonzero(self.link_grants > 0)
        order = candidates[
            np.lexsort((candidates, -stall[candidates]))
        ][:max(0, int(top))]
        return [
            {
                "link": int(e),
                "grants": int(self.link_grants[e]),
                "queue_wait": int(self.link_queue_wait[e]),
                "credit_stall": int(self.link_credit_stall[e]),
                "serialization": int(self.link_serialization[e]),
            }
            for e in order
        ]

    def arrays(self) -> Dict[str, np.ndarray]:
        """npz-ready arrays (the sweep layer routes these to the store).

        ``attr_components`` stacks the per-packet component arrays in
        :data:`COMPONENTS` order -- one ``(5, P)`` matrix instead of
        five keys -- alongside the per-packet latency and the per-link
        totals.
        """
        return {
            "attr_components": np.stack(
                [self.component(name) for name in COMPONENTS]
            ) if self.packets else np.zeros(
                (len(COMPONENTS), 0), dtype=np.int64
            ),
            "attr_latency": self.latency,
            "attr_link_queue_wait": self.link_queue_wait,
            "attr_link_credit_stall": self.link_credit_stall,
            "attr_link_serialization": self.link_serialization,
            "attr_link_grants": self.link_grants,
        }

    def format(self, top: int = 5) -> str:
        """Plain-text component table + hotspot-link ranking."""
        # Lazy: repro.eval.report imports nothing back, but keeping net
        # free of eval imports at module level preserves the layering.
        from ..eval.report import format_table

        totals = self.totals()
        latency_total = max(1, totals["latency"])
        pct = self.percentiles()
        parts = [format_table(
            ("component", "cycles", "share", "p50", "p95", "p99"),
            [
                (
                    name, totals[name],
                    f"{totals[name] / latency_total:.1%}",
                    *pct[name],
                )
                for name in COMPONENTS + ("latency",)
            ],
            title=(
                f"latency attribution ({self.packets} packets, "
                f"engine {self.engine})"
            ),
            float_format="{:.1f}",
        )]
        hot = self.hotspot_links(top=top)
        if hot:
            parts.append(format_table(
                ("link", "grants", "queue_wait", "credit_stall",
                 "serialization"),
                [
                    (h["link"], h["grants"], h["queue_wait"],
                     h["credit_stall"], h["serialization"])
                    for h in hot
                ],
                title=f"top {len(hot)} hotspot links (by stall cycles)",
            ))
        return "\n\n".join(parts)


def _sum_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Exact int64 segment sum: ``out[i] = sum(values[index == i])``.

    ``np.add.at`` keeps the arithmetic in int64 (``np.bincount`` would
    round-trip through float64), so the reduction is exact and -- since
    integer addition commutes -- invariant to trace row order.
    """
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, index, values.astype(np.int64, copy=False))
    return out


def _require_trace(sim) -> None:
    if sim.trace is None:
        raise ValueError(
            "PacketSim carries no grant trace; run simulate_packets("
            "..., attribution=True) (or set NoIParams.sim_attribution) "
            "to collect one"
        )


def latency_breakdown(sim, topology) -> LatencyBreakdown:
    """Reduce a traced :class:`~repro.net.simulator.PacketSim` run.

    Args:
        sim: A ``simulate_packets(..., attribution=True)`` result (its
            ``trace`` must be present).
        topology: The topology the run used -- supplies the routing
            tables' fixed per-hop constants.

    Raises:
        ValueError: When ``sim.trace`` is ``None`` (attribution was not
            requested at simulation time).
    """
    _require_trace(sim)
    tables = topology.routing_tables()
    num_links = tables.num_directed_links
    num_packets = sim.packets
    tr = sim.trace.sorted()

    wait = tr.start - tr.ready
    queue_rows = wait - tr.credit_wait
    hop_delta = tables.queue_index().hop_delta

    queue_wait = _sum_by(tr.packet, queue_rows, num_packets)
    credit_stall = _sum_by(tr.packet, tr.credit_wait, num_packets)
    serialization = _sum_by(tr.packet, tr.flits, num_packets)
    forward = _sum_by(tr.packet, hop_delta[tr.link], num_packets)

    injection_wait = np.zeros(num_packets, dtype=np.int64)
    pipeline = np.zeros(num_packets, dtype=np.int64)
    if num_packets:
        src_stage = tables.stage_cycles[sim.src].astype(np.int64)
        pipeline = src_stage + forward
        hop0 = tr.hop == 0
        first = tr.packet[hop0]
        injection_wait[first] = (
            tr.ready[hop0] - sim.inject[first] - src_stage[first]
        )

    breakdown = LatencyBreakdown(
        injection_wait=injection_wait,
        queue_wait=queue_wait,
        credit_stall=credit_stall,
        serialization=serialization,
        pipeline=pipeline,
        latency=sim.latency.astype(np.int64, copy=True),
        link_queue_wait=_sum_by(tr.link, queue_rows, num_links),
        link_credit_stall=_sum_by(tr.link, tr.credit_wait, num_links),
        link_serialization=_sum_by(tr.link, tr.flits, num_links),
        link_grants=np.bincount(
            tr.link, minlength=num_links
        ).astype(np.int64),
        engine=sim.engine,
    )
    # Fleet counters: the trace report's "attribution" section sums
    # these across workers, so a traced sweep shows where its simulated
    # cycles went without reloading any npz payload.
    REGISTRY.counter("attr_runs").inc()
    REGISTRY.counter("attr_packets").inc(num_packets)
    totals = breakdown.totals()
    for name in COMPONENTS + ("latency",):
        REGISTRY.counter(f"attr_{name}_cycles").inc(totals[name])
    return breakdown


def packet_journeys(sim, topology) -> List[PacketJourney]:
    """Per-packet hop narratives of a traced run, in packet order."""
    _require_trace(sim)
    tables = topology.routing_tables()
    hop_delta = tables.queue_index().hop_delta
    tr = sim.trace.sorted()
    counts = np.bincount(tr.packet, minlength=sim.packets)
    bounds = np.cumsum(counts)
    journeys: List[PacketJourney] = []
    for pkt in range(sim.packets):
        lo, hi = int(bounds[pkt] - counts[pkt]), int(bounds[pkt])
        ready = tr.ready[lo:hi]
        start = tr.start[lo:hi]
        credit = tr.credit_wait[lo:hi]
        stage = int(tables.stage_cycles[sim.src[pkt]])
        journeys.append(PacketJourney(
            packet=pkt,
            inject=int(sim.inject[pkt]),
            completion=int(sim.completion[pkt]),
            latency=int(sim.latency[pkt]),
            injection_wait=(
                int(ready[0]) - int(sim.inject[pkt]) - stage
                if hi > lo else 0
            ),
            links=tr.link[lo:hi].copy(),
            ready=ready.copy(),
            start=start.copy(),
            queue_wait=start - ready - credit,
            credit_wait=credit.copy(),
            serialization=tr.flits[lo:hi].copy(),
            forward=hop_delta[tr.link[lo:hi]].astype(np.int64),
        ))
    return journeys

"""Discrete-event packet-level NoI simulator (contention cross-check).

The analytic model (:mod:`repro.net.analytic`) ignores queueing.  This
simulator routes individual packets over the same minimal routes with
per-link serialisation and FIFO contention, so the analytic numbers can
be validated under load (see ``tests/test_simulator.py`` and the
ablation bench).  Store-and-forward granularity is the packet (several
flits); each directed link transmits one packet at a time.

Routes and per-hop constants come from the topology's cached
:class:`~repro.net.routing.RoutingTables`.  Open loop is flow control
with infinite buffers (``flow_control=None`` resolves to
``FlowControlParams()``): one set of engines, one arbitration rule --
each link grants requests in ``(event cycle, packet id)`` FIFO order.
The tiers share one packetisation/report substrate
(:class:`PacketSim`):

* **closed-form fast path** -- packets whose routes share no directed
  link with any other packet cannot queue; one link-usage ``bincount``
  detects them and their completion times are array arithmetic.
* **event-heap oracle** (``engine="events"``) --
  :func:`~repro.net.flowcontrol.simulate_fc_events`, a per-event Python
  heap.  Slow, obviously correct; every other engine is pinned to it
  bit-exactly.
* **epoch-synchronous vectorized engine** (``engine="epochs"``) --
  :func:`~repro.net.flowcontrol.simulate_fc_epochs`: in-flight packets
  advance in lockstep array epochs.  Per-link FIFO queues are
  ``(link, cycle, packet id)`` arrays resolved per epoch with one
  composite-key ``np.argsort`` + segmented scans; a bounded epoch
  horizon keeps it event-loop exact, FIFO tie-breaks included.  One
  loop serves open and closed loop alike (open loop finalises a whole
  lookahead window per epoch).  Pure NumPy: the fast path.

``engine="auto"`` (the default) picks the heap for small contended
subsets and the epoch engine from ``AUTO_EPOCH_MIN_PACKETS`` up -- the
results are identical either way.

This is deliberately not a cycle-accurate RTL model: the paper's claims
are about *relative* NoI behaviour, and a queueing-accurate packet model
is the right fidelity for that (DESIGN.md, substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..noi.topology import Topology
from ..obs.clock import clock
from ..obs.metrics import REGISTRY
from ..obs.trace import tracing_enabled
from ..params import NoIParams
from .flowcontrol import (
    FlowControlParams,
    GrantTrace,
    LinkTelemetry,
    link_telemetry,
    simulate_fc_epochs,
    simulate_fc_events,
)
from .routing import concat_ranges

#: Default packet payload in bytes.
PACKET_BYTES = 64

#: Engine selectors accepted by :func:`simulate`.
ENGINES = ("auto", "events", "epochs")

#: ``flow_control`` default: derive the closed-loop knobs from the
#: topology's ``NoIParams`` (``fc_buffer_flits`` et al.).  Pass ``None``
#: (or any inactive :class:`~repro.net.flowcontrol.FlowControlParams`)
#: to force open loop -- infinite buffers, no source queue --
#: regardless of the params.
FLOW_CONTROL_FROM_PARAMS = "params"

#: ``engine="auto"``: contended subsets at least this large go through
#: the epoch engine; below it the heap's constant factor wins.
#: Measured open loop on mesh/Kite/Floret at 36-64 nodes (Python 3.11,
#: numpy 2.4, 2 CPUs, best of 7): ``uniform@r:w16+48`` load sweeps
#: cross over at ~90 contended packets (heap/epoch time 0.8 at 75,
#: 1.0 at 86-96, 1.5+ from 164); 256 B bursts cross at ~50.
AUTO_EPOCH_MIN_PACKETS = 96


@dataclass(frozen=True)
class Message:
    """One application-level transfer to simulate."""

    src: int
    dst: int
    payload_bytes: int
    inject_cycle: int = 0
    message_id: int = 0


@dataclass(frozen=True)
class SimReport:
    """Simulation outcome for a message set.

    ``batched_packets`` counts packets resolved on the contention-free
    fast path (closed-form, no per-event traffic).  ``engine`` names
    the engine that resolved the contended subset (one of
    :data:`ENGINES` except ``"auto"``, or ``"none"`` when nothing was
    contended); ``epochs`` is the lockstep epoch count (0 for the heap
    and the JIT kernel).
    """

    makespan_cycles: int
    mean_packet_latency: float
    max_packet_latency: int
    packets_delivered: int
    message_completion: Dict[int, int]
    batched_packets: int = 0
    engine: str = "none"
    epochs: int = 0
    #: Per-link census when the run was made with ``telemetry=True``.
    telemetry: "LinkTelemetry | None" = None
    #: Wall-time per simulation phase (``packetize``/``classify``/
    #: ``resolve``/``telemetry``) when the run was profiled
    #: (``profile=True`` or ``REPRO_TRACE`` set).  Excluded from
    #: equality: timings are observational, the oracle tests compare
    #: *results*.
    phase_timings: "Dict[str, float] | None" = field(
        default=None, compare=False
    )

    @property
    def total_latency_cycles(self) -> int:
        """Completion time of the last packet (== makespan)."""
        return self.makespan_cycles


@dataclass(frozen=True)
class PacketSim:
    """Per-packet outcome arrays: the shared report substrate.

    :func:`simulate_packets` returns one of these; :func:`simulate`
    folds it into a :class:`SimReport`.  Consumers that need per-packet
    resolution -- the load-sweep experiment layer slices steady-state
    windows out of ``inject``/``latency`` -- use it directly instead of
    re-deriving arrays from aggregate metrics.
    """

    inject: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    flits: np.ndarray
    message_id: np.ndarray
    completion: np.ndarray
    latency: np.ndarray
    contended: np.ndarray
    engine: str
    epochs: int = 0
    #: Per-link census (``simulate_packets(..., telemetry=True)``),
    #: identical across engines by construction.
    telemetry: "LinkTelemetry | None" = None
    #: Per-phase wall times when profiled; see
    #: :attr:`SimReport.phase_timings`.
    phase_timings: "Dict[str, float] | None" = field(
        default=None, compare=False
    )
    #: Full grant trace (``simulate_packets(..., attribution=True)``):
    #: the substrate :func:`repro.net.journey.latency_breakdown`
    #: reduces.  Excluded from equality because row *order* is
    #: engine-dependent -- the sorted rows and every reduction over
    #: them are identical across engines, which is what the oracle
    #: tests compare.
    trace: "GrantTrace | None" = field(default=None, compare=False)

    @property
    def packets(self) -> int:
        return int(self.inject.shape[0])

    @property
    def contended_packets(self) -> int:
        return int(self.contended.sum())

    def message_completion(self) -> Dict[int, int]:
        """Completion cycle of each message (its slowest packet)."""
        if self.packets == 0:
            return {}
        mids, inverse = np.unique(self.message_id, return_inverse=True)
        done = np.zeros(mids.shape[0], dtype=np.int64)
        np.maximum.at(done, inverse, self.completion)
        return dict(zip(mids.tolist(), done.tolist()))

    def report(self) -> SimReport:
        if self.packets == 0:
            return SimReport(
                makespan_cycles=0,
                mean_packet_latency=0.0,
                max_packet_latency=0,
                packets_delivered=0,
                message_completion={},
                engine=self.engine,
                telemetry=self.telemetry,
                phase_timings=self.phase_timings,
            )
        return SimReport(
            makespan_cycles=int(self.completion.max()),
            mean_packet_latency=float(self.latency.sum()) / self.packets,
            max_packet_latency=int(self.latency.max()),
            packets_delivered=self.packets,
            message_completion=self.message_completion(),
            batched_packets=self.packets - self.contended_packets,
            engine=self.engine,
            epochs=self.epochs,
            telemetry=self.telemetry,
            phase_timings=self.phase_timings,
        )


def _packetize(
    messages: Sequence[Message], packet_bytes: int, params: NoIParams
) -> List[Tuple[int, int, int, int, int]]:
    """Split messages into (inject, src, dst, flits, message_id) packets.

    The scalar reference implementation: :func:`_packetize_vec` is the
    production path and is pinned to this one packet-for-packet in
    ``tests/test_sim_engines.py``.
    """
    packets = []
    for msg in messages:
        if msg.src == msg.dst or msg.payload_bytes <= 0:
            continue
        remaining = msg.payload_bytes
        while remaining > 0:
            chunk = min(remaining, packet_bytes)
            flits = -(-chunk // params.flit_bytes)
            packets.append(
                (msg.inject_cycle, msg.src, msg.dst, flits, msg.message_id)
            )
            remaining -= chunk
    return packets


def message_array(messages: Sequence[Message]) -> np.ndarray:
    """Pack messages into the ``(k, 5)`` int64 table the engines accept.

    Columns: ``src, dst, payload_bytes, inject_cycle, message_id``.
    Workload generators that already hold arrays (the load-sweep layer)
    should build this table directly instead of materialising
    :class:`Message` objects -- :func:`simulate` and
    :func:`simulate_packets` accept either form.
    """
    count = len(messages)
    out = np.empty((count, 5), dtype=np.int64)
    for i, m in enumerate(messages):
        out[i, 0] = m.src
        out[i, 1] = m.dst
        out[i, 2] = m.payload_bytes
        out[i, 3] = m.inject_cycle
        out[i, 4] = m.message_id
    return out


def _packetize_vec(
    messages, packet_bytes: int, params: NoIParams
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`_packetize`: one NumPy pass over the messages.

    ``messages`` is a sequence of :class:`Message` or a packed
    :func:`message_array` table.  Returns ``(inject, src, dst, flits,
    message_id)`` int64 arrays in the same message-major, chunk-ordered
    packet order as the scalar reference: every chunk is
    ``packet_bytes`` except a message's last, which carries the
    remainder.
    """
    empty = np.empty(0, dtype=np.int64)
    if isinstance(messages, np.ndarray):
        table = messages.reshape(-1, 5).astype(np.int64, copy=False)
    elif len(messages) == 0:
        return empty, empty, empty, empty, empty
    else:
        table = message_array(messages)
    if table.shape[0] == 0:
        return empty, empty, empty, empty, empty
    src, dst, payload = table[:, 0], table[:, 1], table[:, 2]
    inject, mids = table[:, 3], table[:, 4]
    keep = (src != dst) & (payload > 0)
    src, dst, payload = src[keep], dst[keep], payload[keep]
    inject, mids = inject[keep], mids[keep]
    if src.shape[0] == 0:
        return empty, empty, empty, empty, empty
    npkts = -(-payload // packet_bytes)
    total = int(npkts.sum())
    midx = np.repeat(np.arange(src.shape[0], dtype=np.int64), npkts)
    pos = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(npkts) - npkts, npkts
    )
    chunk = np.where(
        pos == npkts[midx] - 1,
        payload[midx] - (npkts[midx] - 1) * packet_bytes,
        packet_bytes,
    )
    flits = -(-chunk // params.flit_bytes)
    return inject[midx], src[midx], dst[midx], flits, mids[midx]


def simulate(
    topology: Topology,
    messages,
    *,
    packet_bytes: int = PACKET_BYTES,
    batch_uncontended: bool = True,
    engine: str = "auto",
    flow_control=FLOW_CONTROL_FROM_PARAMS,
    telemetry: bool = False,
    attribution: bool = False,
    profile: "bool | None" = None,
) -> SimReport:
    """Run the packet simulation for ``messages`` on ``topology``.

    Packets follow the same deterministic minimal routes the analytic
    model uses.  At each hop a packet pays the router pipeline, then
    queues for the outgoing directed link; a link serialises one packet
    (``flits`` cycles) plus the wire delay before the next may start.

    Args:
        topology: The NoI to simulate on.
        messages: Application-level transfers -- a sequence of
            :class:`Message` or a packed :func:`message_array` table.
        packet_bytes: Packetisation granularity.
        batch_uncontended: Resolve contention-free packets in one array
            pass (default).  Disable to force every packet through the
            contended engine -- the result is identical; the flag
            exists for the equivalence tests and for debugging.
        engine: ``"events"`` (per-event heap oracle), ``"epochs"``
            (epoch-synchronous vectorized engine) or ``"auto"``
            (size-based choice).  Both engines produce bit-identical
            results.
        flow_control: Closed-loop knobs -- the default
            :data:`FLOW_CONTROL_FROM_PARAMS` derives them from the
            topology's ``NoIParams`` (``fc_buffer_flits``,
            ``fc_source_queue``, ``fc_credit_rtt``); pass a
            :class:`~repro.net.flowcontrol.FlowControlParams` to
            override or ``None`` to force open loop (identical to
            ``FlowControlParams()``).
        telemetry: Collect the per-link
            :class:`~repro.net.flowcontrol.LinkTelemetry` census
            (``PacketSim.telemetry``); off by default because the grant
            trace costs memory proportional to total hops.
        attribution: Keep the full per-grant trace on the result
            (``PacketSim.trace``) for
            :func:`repro.net.journey.latency_breakdown`; same memory
            cost as ``telemetry``.
        profile: Record per-phase wall times and engine-dispatch
            metrics (``SimReport.phase_timings``).  ``None`` (default)
            follows the ``REPRO_TRACE`` observability switch, so traced
            runs profile every engine with zero configuration.
    """
    return simulate_packets(
        topology, messages,
        packet_bytes=packet_bytes,
        batch_uncontended=batch_uncontended,
        engine=engine,
        flow_control=flow_control,
        telemetry=telemetry,
        attribution=attribution,
        profile=profile,
    ).report()


def _resolve_flow_control(topology, flow_control) -> FlowControlParams:
    """Normalise ``flow_control``; ``None``/inactive -> open loop."""
    if isinstance(flow_control, str):
        if flow_control != FLOW_CONTROL_FROM_PARAMS:
            raise ValueError(
                f"unknown flow_control {flow_control!r}; expected a "
                f"FlowControlParams, None, or "
                f"{FLOW_CONTROL_FROM_PARAMS!r}"
            )
        flow_control = topology.params.flow_control()
    if flow_control is None or not flow_control.is_active:
        return FlowControlParams()
    return flow_control


def simulate_packets(
    topology: Topology,
    messages,
    *,
    packet_bytes: int = PACKET_BYTES,
    batch_uncontended: bool = True,
    engine: str = "auto",
    flow_control=FLOW_CONTROL_FROM_PARAMS,
    telemetry: bool = False,
    attribution: bool = False,
    profile: "bool | None" = None,
) -> PacketSim:
    """:func:`simulate` at per-packet resolution (see :class:`PacketSim`)."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if profile is None:
        profile = tracing_enabled()
    # Telemetry (per-link census) and attribution (journey breakdowns)
    # both ride the same grant trace; either switch turns collection on.
    collect = telemetry or attribution
    timings: "Dict[str, float] | None" = {} if profile else None
    phase_t0 = clock() if profile else 0.0
    params = topology.params
    fc = _resolve_flow_control(topology, flow_control)
    inject, src, dst, flits, mids = _packetize_vec(
        messages, packet_bytes, params
    )
    if profile:
        now = clock()
        timings["packetize"] = now - phase_t0
        phase_t0 = now
    num_packets = int(inject.shape[0])
    if num_packets == 0:
        empty = np.empty(0, dtype=np.int64)
        return PacketSim(
            inject=inject, src=src, dst=dst, flits=flits, message_id=mids,
            completion=empty, latency=empty.copy(),
            contended=np.empty(0, dtype=bool), engine="none",
            telemetry=(
                link_telemetry(
                    GrantTrace.empty(),
                    topology.routing_tables().num_directed_links, 0,
                ) if telemetry else None
            ),
            phase_timings=timings,
            trace=GrantTrace.empty() if attribution else None,
        )
    if fc.buffer_flits is not None:
        max_flits = int(flits.max())
        if fc.buffer_flits < max_flits:
            raise ValueError(
                f"buffer_flits={fc.buffer_flits} cannot hold the largest "
                f"packet ({max_flits} flits); such a packet could never "
                f"be forwarded"
            )
    tables = topology.routing_tables()
    n = tables.num_nodes
    tables.check_reachable(src, dst, topology.name)
    pair = src * n + dst
    starts = tables.route_indptr[pair]
    hops = tables.route_indptr[pair + 1] - starts

    # One gather of every packet's route links; a link used by a single
    # packet can never queue, so packets touching only such links are
    # contention-free and close in constant time.  Finite buffers keep
    # that true (a sole user of a link never waits for its credits),
    # but per-source injection queues couple same-source packets even
    # on disjoint links, so they force everything through the
    # contended engine.
    if fc.source_queue is not None:
        contended = np.ones(num_packets, dtype=bool)
    else:
        entry_links = tables.route_links[concat_ranges(starts, hops)]
        usage = np.bincount(entry_links,
                            minlength=tables.num_directed_links)
        pkt_of_entry = np.repeat(
            np.arange(num_packets, dtype=np.int64), hops
        )
        shared = np.zeros(num_packets, dtype=np.int64)
        np.add.at(shared, pkt_of_entry,
                  (usage[entry_links] > 1).astype(np.int64))
        contended = shared > 0
        if not batch_uncontended:
            contended = np.ones(num_packets, dtype=bool)

    # Store-and-forward completion at zero load: injection + head-flit
    # pipeline + one serialisation per hop.
    completion = inject + tables.pipeline_cycles[src, dst] + hops * flits
    latencies = completion - inject

    if profile:
        now = clock()
        timings["classify"] = now - phase_t0
        phase_t0 = now
    contended_ids = np.nonzero(contended)[0]
    resolved = "none"
    epochs = 0
    contended_trace = None
    if contended_ids.size:
        resolved = engine
        if engine == "auto":
            resolved = (
                "epochs"
                if contended_ids.size >= AUTO_EPOCH_MIN_PACKETS
                else "events"
            )
        if resolved == "epochs":
            epochs, contended_trace = simulate_fc_epochs(
                tables, fc, inject, src, flits, starts, hops,
                contended_ids, completion, latencies,
                collect_trace=collect,
            )
        else:
            contended_trace = simulate_fc_events(
                tables, fc, inject, src, flits, starts, hops,
                contended_ids, completion, latencies,
                collect_trace=collect,
            )

    if profile:
        now = clock()
        timings["resolve"] = now - phase_t0
        phase_t0 = now
        # Engine-dispatch and scale counters: which tier actually
        # resolved the contended subset, and how much lockstep work the
        # epoch engine did.  Behind the same flag as the phase timings
        # so an untraced hot path pays nothing.
        REGISTRY.counter(f"sim_engine_{resolved}").inc()
        REGISTRY.counter("sim_packets").inc(num_packets)
        REGISTRY.counter("sim_contended").inc(int(contended_ids.size))
        if epochs:
            REGISTRY.counter("sim_epochs").inc(epochs)
    census = None
    trace = None
    if collect:
        fast_trace = _fast_path_trace(
            tables, inject, src, flits, starts, hops,
            np.nonzero(~contended)[0],
        )
        trace = GrantTrace.concat(
            [fast_trace] + ([contended_trace] if contended_trace else [])
        )
        if telemetry:
            census = link_telemetry(
                trace, tables.num_directed_links, int(completion.max())
            )
    if profile and collect:
        timings["telemetry"] = clock() - phase_t0
    return PacketSim(
        inject=inject, src=src, dst=dst, flits=flits, message_id=mids,
        completion=completion, latency=latencies, contended=contended,
        engine=resolved, epochs=epochs,
        telemetry=census,
        phase_timings=timings,
        trace=trace if attribution else None,
    )


def _fast_path_trace(
    tables,
    inject: np.ndarray,
    src: np.ndarray,
    flits: np.ndarray,
    starts: np.ndarray,
    hops: np.ndarray,
    ids: np.ndarray,
) -> GrantTrace:
    """Grant trace of the contention-free fast path, closed form.

    Uncontended packets never wait (their links are theirs alone), so
    each hop's start is the previous start plus serialisation and the
    link's fixed forwarding delay -- one segmented cumulative sum over
    the packets' concatenated route links.
    """
    if ids.size == 0:
        return GrantTrace.empty()
    hop_delta = tables.queue_index().hop_delta
    p_starts = starts[ids]
    p_hops = hops[ids]
    entries = concat_ranges(p_starts, p_hops)
    links = tables.route_links[entries]
    total = int(links.shape[0])
    pkt_of = np.repeat(ids, p_hops)
    offsets = np.cumsum(p_hops) - p_hops
    hop_of = np.arange(total, dtype=np.int64) - np.repeat(offsets, p_hops)
    f = flits[pkt_of]
    step = f + hop_delta[links]
    incl = np.cumsum(step)
    seg_first = np.repeat(offsets, p_hops)
    excl = (incl - step) - (incl[seg_first] - step[seg_first])
    start = np.repeat(
        inject[ids] + tables.stage_cycles[src[ids]], p_hops
    ) + excl
    return GrantTrace(
        packet=pkt_of,
        hop=hop_of,
        link=links,
        ready=start.copy(),
        start=start,
        flits=f,
        credit_wait=np.zeros(total, dtype=np.int64),
    )


def simulate_transfers(
    topology: Topology,
    transfers: Sequence[Tuple[int, int, int]],
    *,
    packet_bytes: int = PACKET_BYTES,
    batch_uncontended: bool = True,
    engine: str = "auto",
    flow_control=FLOW_CONTROL_FROM_PARAMS,
    telemetry: bool = False,
    attribution: bool = False,
    profile: "bool | None" = None,
) -> SimReport:
    """Convenience wrapper: simulate ``(src, dst, bytes)`` transfers."""
    table = np.asarray(transfers, dtype=np.int64).reshape(-1, 3)
    messages = np.column_stack([
        table,
        np.zeros(table.shape[0], dtype=np.int64),
        np.arange(table.shape[0], dtype=np.int64),
    ])
    return simulate(
        topology, messages,
        packet_bytes=packet_bytes,
        batch_uncontended=batch_uncontended,
        engine=engine,
        flow_control=flow_control,
        telemetry=telemetry,
        attribution=attribution,
        profile=profile,
    )

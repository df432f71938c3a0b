"""Flow control: finite buffers, credits and link telemetry.

Both contended-subset engines live here.  Open loop is not a separate
model: it is :class:`FlowControlParams` ``()`` -- infinite buffers, no
source queue -- resolved by the same engines under the same arbitration
rule.  The closed-loop mechanisms are:

* **finite per-link buffers with credit-based backpressure** -- each
  directed link owns a downstream input buffer of
  ``buffer_flits`` flits.  A packet may only start serialising onto a
  link when the link is free *and* enough credits (buffer space) remain;
  it returns the credits of its *previous* link when it is granted the
  next one (or ejects), ``credit_rtt`` cycles later.  Packets therefore
  stall at the upstream hop while the downstream queue is full.
* **per-source injection queues** -- with ``source_queue = Q`` at most
  ``Q`` packets per source may be waiting to start their first link;
  the generator defers further injections (their effective inject time
  shifts) until a slot frees, one cycle after the blocking packet
  starts serialising.

Per the repo's oracle pattern the semantics are implemented twice and
pinned bit-exactly to each other (``tests/test_flowcontrol.py``,
``tests/test_fuzz_engines.py``):

* :func:`simulate_fc_events` -- an event-heap oracle.  Credit returns
  are first-class heap events; FIFO per link follows (event cycle,
  packet id) order, releases processed before requests on ties.  That
  one arbitration rule holds for every configuration, open loop
  included.
* :func:`simulate_fc_epochs` -- the vectorized epoch-synchronous
  engine, one loop for every configuration.  Credit counters ride as
  per-link arrays inside a segmented-scan grant loop, and each epoch
  finalises the provably-safe prefix of every link's FIFO queue.  In
  open loop nothing waits on credits, so each epoch takes only the
  requests less than ``guard_hop`` (below) cycles after the earliest
  one and finalises all of them.

  Safety argument: let ``b_e`` be the FIFO bound of link ``e``'s head
  request (ready vs. link busy time) and ``c_e`` its credit bound under
  the currently *known* release schedule.  Every future grant starts at
  or after ``T = min over heads of max(b_e, c_e)`` (the least fixed
  point of ``T = min_e max(b_e, min(c_e, T + credit_rtt))``), so every
  not-yet-scheduled credit release lands at or after ``T + credit_rtt``
  and every not-yet-generated request event at or after ``T + guard``
  (``guard = 1`` while a source queue withholds packets, else
  ``guard_hop = min flits + min hop delta``).  A queue-prefix grant
  whose event cycle and credit bound fall below those horizons can
  never be invalidated, which makes the epoch engine event-loop exact,
  including FIFO tie-breaks.
  ``T`` diverging to infinity means every head waits on credits no
  possible release covers: a genuine credit deadlock, raised as
  :class:`FlowControlDeadlockError` by both engines (store-and-forward
  networks with cyclic routes *can* deadlock under tiny buffers).

Both engines record a :class:`GrantTrace` (one row per link grant);
:func:`link_telemetry` folds a trace into the order-invariant
:class:`LinkTelemetry` census (accepted flits, busy cycles, stall
cycles, peak/mean queue depth), so telemetry is bit-exact across
engines by construction.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "FlowControlDeadlockError",
    "FlowControlParams",
    "GrantTrace",
    "LinkTelemetry",
    "link_telemetry",
    "simulate_fc_events",
    "simulate_fc_epochs",
]

#: Sentinels for "no known release satisfies this deficit" (huge) and
#: "no credit constraint at all" (tiny); both comfortably inside int64.
_INF = np.int64(2 ** 62)
_NEG = np.int64(-(2 ** 62))


@dataclass(frozen=True)
class FlowControlParams:
    """Closed-loop injection/backpressure knobs.

    Attributes:
        buffer_flits: Downstream input-buffer capacity of every directed
            link, in flits.  ``None`` = infinite buffers.  Must cover
            the largest packet (``ceil(packet_bytes / flit_bytes)``
            flits) or the simulation raises: a packet larger than the
            buffer could never be forwarded.
        source_queue: Maximum packets per source waiting to start their
            first link; ``None`` = unbounded.
        credit_rtt: Cycles for a freed credit to travel back upstream.
            At least 1 -- a credit cannot act in the cycle it is freed,
            which is also what bounds the epoch engine's safe horizon.

    The default instance (neither limit set) is open loop: injection on
    schedule into infinite buffers.
    """

    buffer_flits: Optional[int] = None
    source_queue: Optional[int] = None
    credit_rtt: int = 1

    def __post_init__(self) -> None:
        if self.buffer_flits is not None and self.buffer_flits < 1:
            raise ValueError(
                f"buffer_flits must be None or >= 1, got {self.buffer_flits}"
            )
        if self.source_queue is not None and self.source_queue < 1:
            raise ValueError(
                f"source_queue must be None or >= 1, got {self.source_queue}"
            )
        if self.credit_rtt < 1:
            raise ValueError(
                f"credit_rtt must be >= 1 (credits cannot act in the "
                f"cycle they are freed), got {self.credit_rtt}"
            )

    @property
    def is_active(self) -> bool:
        """Whether any closed-loop mechanism is enabled."""
        return self.buffer_flits is not None or self.source_queue is not None


class FlowControlDeadlockError(RuntimeError):
    """Credit deadlock: a cycle of full buffers that can never drain.

    Attributes:
        blocked: Packets that can never be delivered.
        links: Sorted directed-link ids with waiting (undeliverable)
            requests at detection time.
    """

    def __init__(self, fc: FlowControlParams, blocked: int, links) -> None:
        self.blocked = int(blocked)
        self.links = tuple(int(e) for e in links)
        shown = ", ".join(str(e) for e in self.links[:8])
        more = "..." if len(self.links) > 8 else ""
        super().__init__(
            f"credit deadlock: {self.blocked} packets blocked on full "
            f"buffers (links {shown}{more}) with "
            f"buffer_flits={fc.buffer_flits}, credit_rtt={fc.credit_rtt}; "
            f"enlarge the buffers or break the cyclic route dependency"
        )


@dataclass(frozen=True)
class GrantTrace:
    """One row per link grant: the shared telemetry substrate.

    Every contended-subset engine (and, with ``telemetry=True``, the
    contention-free fast path) emits one of these;
    :func:`link_telemetry` reduces it with order-invariant
    aggregations, so engine-order differences cannot leak into the
    telemetry counters.

    Attributes:
        packet: Global packet index (packetisation order).
        hop: Hop position of the grant within the packet's route.
        link: Directed link id granted.
        ready: Cycle the request entered the link's queue (includes the
            injection pipeline at hop 0).
        start: Cycle serialisation started.
        flits: Packet length in flits.
        credit_wait: Cycles of ``start - ready`` attributable to credit
            starvation (0 in open loop).
    """

    packet: np.ndarray
    hop: np.ndarray
    link: np.ndarray
    ready: np.ndarray
    start: np.ndarray
    flits: np.ndarray
    credit_wait: np.ndarray

    @property
    def grants(self) -> int:
        return int(self.packet.shape[0])

    def sorted(self) -> "GrantTrace":
        """Rows in deterministic (packet, hop) order, for comparisons."""
        order = np.lexsort((self.hop, self.packet))
        return GrantTrace(*(getattr(self, f)[order] for f in _TRACE_FIELDS))

    @staticmethod
    def empty() -> "GrantTrace":
        e = np.empty(0, dtype=np.int64)
        return GrantTrace(e, e.copy(), e.copy(), e.copy(), e.copy(),
                          e.copy(), e.copy())

    @staticmethod
    def concat(parts: List["GrantTrace"]) -> "GrantTrace":
        parts = [p for p in parts if p.grants]
        if not parts:
            return GrantTrace.empty()
        return GrantTrace(*(
            np.concatenate([getattr(p, f) for p in parts])
            for f in _TRACE_FIELDS
        ))


_TRACE_FIELDS = ("packet", "hop", "link", "ready", "start", "flits",
                 "credit_wait")


def _trace_from_chunks(chunks) -> GrantTrace:
    """Build a :class:`GrantTrace` from per-epoch/per-grant column tuples."""
    if not chunks:
        return GrantTrace.empty()
    cols = []
    for i in range(len(_TRACE_FIELDS)):
        cols.append(np.concatenate([
            np.atleast_1d(np.asarray(chunk[i], dtype=np.int64))
            for chunk in chunks
        ]))
    return GrantTrace(*cols)


@dataclass(frozen=True)
class LinkTelemetry:
    """Per-directed-link census of one simulation run.

    All arrays are ``(L,)`` over the topology's directed links.  Under
    store-and-forward serialisation at one flit per cycle,
    ``busy_cycles`` equals ``accepted_flits``; both are kept because
    they answer different questions (traffic vs. occupancy).

    Attributes:
        horizon_cycles: Completion cycle of the last packet (makespan).
        accepted_packets: Packets serialised onto each link.
        accepted_flits: Flits serialised onto each link.
        busy_cycles: Cycles each link spent serialising.
        stall_cycles: Total cycles packets waited in each link's queue
            (sum of ``start - ready``).
        credit_stall_cycles: The share of ``stall_cycles`` attributable
            to credit starvation (backpressure); 0 in open loop.
        peak_queue_flits: Peak simultaneous flits waiting for the link.
        mean_queue_flits: Time-averaged waiting flits over the horizon.
    """

    horizon_cycles: int
    accepted_packets: np.ndarray
    accepted_flits: np.ndarray
    busy_cycles: np.ndarray
    stall_cycles: np.ndarray
    credit_stall_cycles: np.ndarray
    peak_queue_flits: np.ndarray
    mean_queue_flits: np.ndarray

    @property
    def num_directed_links(self) -> int:
        return int(self.accepted_flits.shape[0])

    def utilization(self) -> np.ndarray:
        """Busy fraction of each link over the simulation horizon."""
        horizon = max(1, self.horizon_cycles)
        return self.busy_cycles.astype(np.float64) / horizon

    @property
    def total_accepted_flits(self) -> int:
        return int(self.accepted_flits.sum())

    @property
    def total_stall_cycles(self) -> int:
        return int(self.stall_cycles.sum())


def link_telemetry(trace: GrantTrace, num_links: int,
                   horizon_cycles: int) -> LinkTelemetry:
    """Reduce a :class:`GrantTrace` to per-link telemetry counters.

    Every aggregation is order-invariant over trace rows, so engines
    that emit grants in different orders (heap: decision order; epochs:
    link-major per epoch) produce identical telemetry.
    """
    L = int(num_links)
    link = trace.link
    f = trace.flits
    wait = trace.start - trace.ready
    accepted_packets = np.bincount(link, minlength=L)
    accepted_flits = np.bincount(link, weights=f, minlength=L).astype(
        np.int64
    )
    stall = np.bincount(link, weights=wait, minlength=L).astype(np.int64)
    credit_stall = np.bincount(
        link, weights=trace.credit_wait, minlength=L
    ).astype(np.int64)
    mean_queue = (
        np.bincount(link, weights=f * wait, minlength=L)
        / max(1, horizon_cycles)
    )
    peak = np.zeros(L, dtype=np.int64)
    if trace.grants:
        # Waiting interval of each grant is [ready, start): +flits at
        # ready, -flits at start, departures before arrivals on ties so
        # zero-length waits contribute nothing.
        ev_link = np.concatenate([link, link])
        ev_time = np.concatenate([trace.ready, trace.start])
        ev_kind = np.concatenate([
            np.ones(trace.grants, dtype=np.int64),
            np.zeros(trace.grants, dtype=np.int64),
        ])
        ev_delta = np.concatenate([f, -f])
        order = np.lexsort((ev_kind, ev_time, ev_link))
        el, ed = ev_link[order], ev_delta[order]
        seg_head = np.empty(el.shape[0], dtype=bool)
        seg_head[0] = True
        seg_head[1:] = el[1:] != el[:-1]
        seg_starts = np.flatnonzero(seg_head)
        running = np.cumsum(ed)
        base = np.zeros(seg_starts.shape[0], dtype=np.int64)
        base[1:] = running[seg_starts[1:] - 1]
        seg_id = np.cumsum(seg_head) - 1
        running -= base[seg_id]
        seg_peak = np.maximum.reduceat(running, seg_starts)
        peak[el[seg_starts]] = np.maximum(seg_peak, 0)
    return LinkTelemetry(
        horizon_cycles=int(horizon_cycles),
        accepted_packets=accepted_packets.astype(np.int64),
        accepted_flits=accepted_flits,
        busy_cycles=accepted_flits.copy(),
        stall_cycles=stall,
        credit_stall_cycles=credit_stall,
        peak_queue_flits=peak,
        mean_queue_flits=mean_queue,
    )


# ---------------------------------------------------------------------------
# event-heap oracle


def _source_groups(inject, src, ids, queue: int):
    """Per-source packet order for the injection-queue gate.

    Returns ``(initial, successor)``: the packets eligible at their
    natural inject cycle (the first ``queue`` per source) and the map
    ``packet -> packet released by its first-link grant`` (the packet
    ``queue`` positions later in the same source's (inject, id) order).
    """
    by_src = {}
    for i in sorted(ids.tolist(), key=lambda i: (int(inject[i]), i)):
        by_src.setdefault(int(src[i]), []).append(i)
    successor = {}
    initial = []
    for group in by_src.values():
        initial.extend(group[:queue])
        for pos, pkt in enumerate(group):
            if pos + queue < len(group):
                successor[pkt] = group[pos + queue]
    return initial, successor


def simulate_fc_events(
    tables,
    fc: FlowControlParams,
    inject: np.ndarray,
    src: np.ndarray,
    flits: np.ndarray,
    starts: np.ndarray,
    hops: np.ndarray,
    contended_ids: np.ndarray,
    completion: np.ndarray,
    latencies: np.ndarray,
    collect_trace: bool = False,
) -> Optional[GrantTrace]:
    """Event-heap oracle for closed-loop flow control, in place.

    The exact reference: :func:`simulate_fc_epochs` is pinned to this
    bit-for-bit.  Heap keys are ``(cycle, kind, ...)`` with credit
    releases (kind 0) processed before requests (kind 1) on the same
    cycle, and request ties broken by global packet id -- the FIFO
    discipline both engines implement.
    """
    route_links = tables.route_links
    stage = tables.stage_cycles
    link_u = tables.link_u
    queue_index = tables.queue_index()
    hop_delta = queue_index.hop_delta
    capacity = queue_index.buffer_capacity_flits(fc)
    rtt = int(fc.credit_rtt)
    free = capacity.copy() if capacity is not None else None

    REL, REQ = 0, 1
    events: List[Tuple[int, int, int, int]] = []
    link_free = {}
    queues = {}
    rows: Optional[list] = [] if collect_trace else None

    if fc.source_queue is not None:
        initial, successor = _source_groups(
            inject, src, contended_ids, fc.source_queue
        )
    else:
        initial, successor = contended_ids.tolist(), {}
    for i in initial:
        heapq.heappush(events, (int(inject[i]), REQ, i, 0))

    expected = int(contended_ids.size)
    delivered = 0

    def serve(edge: int, now: int) -> None:
        queue = queues.get(edge)
        while queue:
            ready, pkt, hop = queue[0]
            f = int(flits[pkt])
            if free is not None and free[edge] < f:
                return
            queue.popleft()
            floor = max(ready, link_free.get(edge, 0))
            start = max(floor, now)
            if free is not None:
                free[edge] -= f
            link_free[edge] = start + f
            if rows is not None:
                rows.append((pkt, hop, edge, ready, start, f, start - floor))
            arrival = start + f + int(hop_delta[edge])
            heapq.heappush(events, (arrival, REQ, pkt, hop + 1))
            if hop > 0 and free is not None:
                prev = int(route_links[int(starts[pkt]) + hop - 1])
                heapq.heappush(events, (start + rtt, REL, prev, f))
            if hop == 0:
                released = successor.pop(pkt, None)
                if released is not None:
                    heapq.heappush(events, (
                        max(int(inject[released]), start + 1),
                        REQ, released, 0,
                    ))

    while events:
        now, kind, a, b = heapq.heappop(events)
        if kind == REL:
            free[a] += b
            serve(a, now)
            continue
        pkt, hop = a, b
        if hop >= int(hops[pkt]):
            completion[pkt] = now
            latencies[pkt] = now - int(inject[pkt])
            delivered += 1
            if free is not None:
                last = int(route_links[int(starts[pkt]) + hop - 1])
                heapq.heappush(events, (now + rtt, REL, last,
                                        int(flits[pkt])))
            continue
        edge = int(route_links[int(starts[pkt]) + hop])
        ready = now + (int(stage[link_u[edge]]) if hop == 0 else 0)
        queues.setdefault(edge, deque()).append((ready, pkt, hop))
        serve(edge, now)

    if delivered < expected:
        waiting = sorted(e for e, q in queues.items() if q)
        raise FlowControlDeadlockError(fc, expected - delivered, waiting)
    if rows is None:
        return None
    return _trace_from_chunks([tuple(np.array(col, dtype=np.int64)
                                     for col in zip(*rows))]
                              if rows else [])


# ---------------------------------------------------------------------------
# epoch-synchronous vectorized engine


def _link_time_order(link: np.ndarray, time: np.ndarray, num_links: int,
                     tie: Optional[np.ndarray] = None,
                     tie_span: int = 1,
                     t0: Optional[int] = None) -> np.ndarray:
    """Indices that sort rows by ``(link, time[, tie])``.

    One ``np.argsort`` on the int64 key ``(link * tspan + time - t0) *
    tie_span + tie``, where ``tie`` (if given) lies in ``[0, tie_span)``
    and ``t0`` is ``time.min()`` unless the caller already knows it.
    Rows equal on every column may come out in any order.  Falls back to
    ``np.lexsort`` when the key would leave the int64 range.
    """
    if t0 is None:
        t0 = int(time.min())
    tspan = int(time.max()) - t0 + 1
    if num_links * tspan * tie_span >= 2 ** 63:
        return np.lexsort((time, link) if tie is None else (tie, time, link))
    # In-place int64 arithmetic wraps modulo 2**64, so only the final
    # key, not each partial sum, has to fit.
    key = np.multiply(link, tspan, dtype=np.int64)
    key += time
    key -= t0
    if tie is not None:
        key *= tie_span
        key += tie
    return np.argsort(key)


def _credit_ready_times(
    e_s: np.ndarray,
    deficit: np.ndarray,
    rel_link: np.ndarray,
    rel_time: np.ndarray,
    rel_amt: np.ndarray,
    num_links: int,
) -> np.ndarray:
    """Earliest cycle the known release schedule covers each deficit.

    ``_NEG`` where no credits are needed (deficit <= 0), ``_INF`` where
    no known release ever covers the deficit.  Releases are consulted
    per link in time order; amounts accumulate.  Only releases on links
    with a needy request are looked at.
    """
    needy = deficit > 0
    c = np.where(needy, _INF, _NEG)
    if rel_time.size == 0 or not needy.any():
        return c
    need_link = e_s[needy]
    wanted = np.zeros(num_links, dtype=bool)
    wanted[need_link] = True
    keep = wanted[rel_link]
    if not keep.any():
        return c
    rl, rt, ra = rel_link[keep], rel_time[keep], rel_amt[keep]
    # Sorted by (link, time), link e's releases are the run [lo, hi) and
    # the running amount ``cum`` (exclusive: cum[i] sums rows < i) is
    # strictly increasing (every release returns >= 1 flit), so the first release covering deficit d is
    # the first row p with cum[p + 1] >= cum[lo] + d; p >= hi means
    # none does.  Releases tied on (link, time) may sort in any order:
    # the covering row still falls among them, so its time is the same.
    order = _link_time_order(rl, rt, num_links)
    rl, rt = rl[order], rt[order]
    cum = np.zeros(rl.shape[0] + 1, dtype=np.int64)
    np.cumsum(ra[order], out=cum[1:])
    lo = np.searchsorted(rl, need_link, side="left")
    hi = np.searchsorted(rl, need_link, side="right")
    pos = np.searchsorted(cum[1:], cum[lo] + deficit[needy], side="left")
    c[needy] = np.where(pos < hi, rt.take(pos, mode="clip"), _INF)
    return c


def _segmented_cummax(values: np.ndarray, seg_id: np.ndarray) -> np.ndarray:
    """Inclusive running maximum within each contiguous segment.

    Fast path: lift each segment onto its own disjoint value band
    (``+ seg_id * span``) so one global ``np.maximum.accumulate`` can
    never carry a value across a boundary, then project back.  Exact in
    int64; falls back to a Hillis-Steele doubling scan in the
    (pathological) case where the banding would overflow.
    """
    n = values.shape[0]
    if n == 0:
        return values.copy()
    vmin = int(values.min())
    vmax = int(values.max())
    span = vmax - vmin + 1
    nseg = int(seg_id[-1]) + 1
    if abs(vmax) + abs(vmin) + span <= (2 ** 62) // nseg:
        band = seg_id * span
        return np.maximum.accumulate(values + band) - band
    out = values.copy()
    shift = 1
    while shift < n:
        carried = np.where(
            seg_id[shift:] == seg_id[:-shift], out[:-shift], out[shift:]
        )
        out[shift:] = np.maximum(out[shift:], carried)
        shift *= 2
    return out


def simulate_fc_epochs(
    tables,
    fc: FlowControlParams,
    inject: np.ndarray,
    src: np.ndarray,
    flits: np.ndarray,
    starts: np.ndarray,
    hops: np.ndarray,
    contended_ids: np.ndarray,
    completion: np.ndarray,
    latencies: np.ndarray,
    collect_trace: bool = False,
) -> Tuple[int, Optional[GrantTrace]]:
    """Vectorized epoch-synchronous engine, in place.

    Each unfinished packet has one pending request, the cycle it asks
    for its next link, kept in one time array ``tq`` (``_INF`` once the
    packet is done or while its source queue withholds it).  Per epoch:
    sort the requests within the working-set span of the earliest one
    by ``(link, cycle, packet)``, grant each link's FIFO queue with one
    segmented max-plus scan

        start_k = max(ready_k, start_{k-1} + flits_{k-1})
                = F_k + cummax_k(ready - F)      (F = exclusive flit sum)

    whose per-request lower bound folds in the credit-availability time
    from the known release schedule, then finalise the provably-safe
    prefix (see the module docstring for the horizon argument).  Open
    loop (``not fc.is_active``) skips the horizon: the window of
    requests before ``base + guard_hop`` is final as soon as it is
    granted.  Returns the epoch count and, when requested, the grant
    trace.  The epoch count is an engine diagnostic (completion events
    cost no epoch), not a simulated quantity.  ``contended_ids`` must
    ascend (as :func:`~repro.net.simulator.simulate_packets` passes
    them): the sort breaks ties by position, which is then packet-id
    order.  ``completion`` and ``latencies`` are written once, after the
    last epoch: a run that raises :class:`FlowControlDeadlockError`
    leaves them as they were.
    """
    ids = contended_ids
    m = int(ids.size)
    trace_chunks: Optional[list] = [] if collect_trace else None
    if m == 0:
        return 0, (GrantTrace.empty() if collect_trace else None)

    route_links = tables.route_links
    queue_index = tables.queue_index()
    hop_delta = queue_index.hop_delta
    inject_stage = tables.stage_cycles[tables.link_u]
    capacity = queue_index.buffer_capacity_flits(fc)
    finite = capacity is not None
    open_loop = not fc.is_active
    rtt = int(fc.credit_rtt)
    source_queue = fc.source_queue
    num_links = tables.num_directed_links

    if m > 1 and not (ids[1:] > ids[:-1]).all():
        raise ValueError("contended_ids must be strictly ascending")
    gid = ids.astype(np.int64)
    inj = inject[ids].astype(np.int64)
    tq = inj.copy()
    hop = np.zeros(m, dtype=np.int64)
    finish = np.empty(m, dtype=np.int64)
    nhops = hops[ids].astype(np.int64)
    pflits = flits[ids].astype(np.int64)
    pstart = starts[ids].astype(np.int64)

    succ = np.full(m, -1, dtype=np.int64)
    withheld = 0
    if source_queue is not None:
        src_c = src[ids].astype(np.int64)
        order = np.lexsort((gid, inj, src_c))
        so = src_c[order]
        if m > source_queue:
            k = np.arange(m - source_queue)
            same = so[k + source_queue] == so[k]
            succ[order[k[same]]] = order[k + source_queue][same]
        newseg = np.empty(m, dtype=bool)
        newseg[0] = True
        newseg[1:] = so[1:] != so[:-1]
        seg_start = np.flatnonzero(newseg)
        pos = np.arange(m) - seg_start[np.cumsum(newseg) - 1]
        held = order[pos >= source_queue]
        tq[held] = _INF
        withheld = int(held.size)

    link_free = np.zeros(num_links, dtype=np.int64)
    # Credits each link's queue still owes against its buffer: flits
    # granted onto it, less its capacity and the releases folded in.
    debt = -capacity if finite else None
    rel_time = np.empty(0, dtype=np.int64)
    rel_link = np.empty(0, dtype=np.int64)
    rel_amt = np.empty(0, dtype=np.int64)

    guard_hop = int(pflits.min()) + int(queue_index.min_hop_delta)
    n_pend = m - withheld
    epochs = 0

    # Working-set horizon: each epoch touches only requests within
    # ``span`` cycles of the earliest pending one (the sort is the
    # per-epoch cost).  Excluded requests fold into the safety bound as
    # the candidate ``base + span + 1`` -- strictly more conservative,
    # so exactness is untouched whatever the span.  The span doubles
    # whenever an epoch cannot finalise anything (the binding head was
    # outside); after progress it follows the safe horizon, twice
    # ``T - base`` plus two hop-and-credit round trips, capped at
    # ``span_cap``.  While at most 64 requests are pending, a closed-loop
    # epoch takes them all.  Open loop has no horizon to wait for: a
    # request granted at ``s >= base`` asks for its next link at ``s +
    # flits + hop_delta >= base + guard_hop`` or later, so the window
    # ``[base, base + guard_hop)`` is final as soon as it is granted and
    # bounds the working set every epoch.
    span_cap = 16 * (guard_hop + rtt)
    span = guard_hop - 1 if open_loop else span_cap

    while n_pend + withheld:
        if not n_pend:
            raise RuntimeError(
                f"flow-control epoch engine: no pending requests with "
                f"{withheld} packets unfinished"
            )
        base = int(tq.min())
        if finite and rel_time.size:
            # Releases at or before the earliest pending request can
            # never bind again: fold them into the per-link debt.
            fold = rel_time <= base
            if fold.any():
                np.subtract.at(debt, rel_link[fold], rel_amt[fold])
                keep = ~fold
                rel_time = rel_time[keep]
                rel_link = rel_link[keep]
                rel_amt = rel_amt[keep]
        horizon = base + span if open_loop or n_pend > 64 else _INF - 1
        act = np.flatnonzero(tq <= horizon)
        truncated = act.size < n_pend
        epochs += 1
        hop_a = hop[act]
        link_a = route_links[pstart[act] + hop_a]
        # (link, cycle, packet id) order: ids ascend, so slot order is
        # packet-id order.
        t_a = tq[act]
        order = _link_time_order(link_a, t_a, num_links, act, m, base)
        slot = act[order]
        e_s = link_a[order]
        t_s = t_a[order]
        h_s = hop_a[order]
        f_s = pflits[slot]
        n = int(slot.size)
        ready = t_s + np.where(h_s == 0, inject_stage[e_s], 0)
        head = np.empty(n, dtype=bool)
        head[0] = True
        head[1:] = e_s[1:] != e_s[:-1]
        head_pos = np.flatnonzero(head)
        seg_id = np.cumsum(head) - 1
        seg_first = head_pos[seg_id]
        # The link's current occupancy folds into each queue's head.
        clamped = np.where(head, np.maximum(ready, link_free[e_s]), ready)
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(f_s, out=cum[1:])
        seg_base = cum[seg_first]
        excl = cum[:-1] - seg_base
        if finite:
            incl = cum[1:] - seg_base
            c = _credit_ready_times(e_s, debt[e_s] + incl, rel_link,
                                    rel_time, rel_amt, num_links)

        if open_loop:
            # The whole window is final: every grant starts at its FIFO
            # bound, and each queue's last grant ends latest.
            s = excl + _segmented_cummax(clamped - excl, seg_id)
            end = s + f_s
            fifo_bound = s
            fin = slice(None)
            link_free[e_s[head_pos]] = np.maximum.reduceat(end, head_pos)
        else:
            # Safe horizon: every future grant starts at or after T, so
            # unknown releases land at T + rtt or later and unknown
            # request events at T + guard or later (see module docstring).
            head_bound = clamped[head_pos]
            if finite:
                head_bound = np.maximum(head_bound, c[head_pos])
            T = bound = int(head_bound.min())
            if truncated:
                T = min(T, base + span + 1)
            if T >= int(_INF) // 2:
                raise FlowControlDeadlockError(fc, n_pend + withheld,
                                               np.unique(e_s))

            grant_floor = clamped
            if finite:
                grant_floor = np.maximum(clamped, np.minimum(c, T + rtt + 1))
            s = excl + _segmented_cummax(grant_floor - excl, seg_id)
            end = s + f_s
            # FIFO bound: the request's clamped ready time, and behind a
            # queue head also the end of its predecessor's grant.
            prev_end = np.empty(n, dtype=np.int64)
            prev_end[1:] = end[:-1]
            prev_end[head_pos] = _NEG
            fifo_bound = np.maximum(clamped, prev_end)
            guard = 1 if withheld else guard_hop
            ok = t_s < T + guard
            if finite:
                ok &= c <= np.maximum(fifo_bound, T + rtt)
            # Final: every row from the queue head up to this one is ok.
            bad = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(~ok, out=bad[1:])
            fin = bad[1:] == bad[seg_first]
            if not fin.any():
                if truncated:
                    span *= 2
                    continue
                if finite:
                    raise FlowControlDeadlockError(fc, n_pend + withheld,
                                                   np.unique(e_s))
                raise RuntimeError(
                    "flow-control epoch engine made no progress"
                )
            span = min(span_cap, 2 * (bound - base + guard_hop + rtt))

            # Each link's last grant: finalised, and the next row is not a
            # finalised row of the same queue.
            runs_on = np.zeros(n, dtype=bool)
            np.greater(fin[1:], head[1:], out=runs_on[:-1])
            tail = np.flatnonzero(fin > runs_on)
            link_free[e_s[tail]] = end[tail]
            if finite:
                debt[e_s[tail]] += incl[tail]

        fin_slot = slot[fin]
        fin_s = s[fin]
        fin_e = e_s[fin]
        fin_f = f_s[fin]
        fin_h = h_s[fin]
        if trace_chunks is not None:
            trace_chunks.append((
                gid[fin_slot], fin_h, fin_e, ready[fin], fin_s, fin_f,
                fin_s - fifo_bound[fin],
            ))
        arrival = end[fin] + hop_delta[fin_e]
        last = fin_h + 1 == nhops[fin_slot]
        n_pend -= int(np.count_nonzero(last))
        # A packet's hops finalise in order, so its last write here is
        # its completion.
        finish[fin_slot] = arrival
        tq[fin_slot] = np.where(last, _INF, arrival)
        hop[fin_slot] = fin_h + 1

        if finite:
            up = fin_h >= 1
            new_t = [fin_s[up] + rtt, arrival[last] + rtt]
            new_l = [route_links[pstart[fin_slot[up]] + fin_h[up] - 1],
                     fin_e[last]]
            new_a = [fin_f[up], fin_f[last]]
            rel_time = np.concatenate([rel_time] + new_t)
            rel_link = np.concatenate([rel_link] + new_l)
            rel_amt = np.concatenate([rel_amt] + new_a)

        if source_queue is not None:
            gates = succ[fin_slot[fin_h == 0]]
            spawned = gates[gates >= 0]
            if spawned.size:
                opener = fin_s[fin_h == 0][gates >= 0]
                tq[spawned] = np.maximum(inj[spawned], opener + 1)
                n_pend += int(spawned.size)
                withheld -= int(spawned.size)

    completion[ids] = finish
    latencies[ids] = finish - inj
    if trace_chunks is None:
        return epochs, None
    return epochs, _trace_from_chunks(trace_chunks)

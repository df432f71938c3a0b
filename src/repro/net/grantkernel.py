"""JIT grant kernel: the contended-subset event loop as one compiled pass.

The epoch-synchronous engine in :mod:`repro.net.flowcontrol` beats the
Python event heap by batching work into NumPy array epochs, but every
epoch still pays Python-level dispatch (lexsorts, masks, bookkeeping).
This module removes that constant entirely: the per-link FIFO grant +
credit-release loop -- exactly the algorithm of the event-heap oracle
-- implemented over flat int64 arrays in a numba-compilable subset of
Python.

* **numba present** -- the kernel functions compile with
  ``@njit(cache=True, nogil=True)`` and the whole contended subset
  resolves in one compiled call (``engine="epochs-jit"``, preferred by
  ``engine="auto"``).
* **numba absent** -- the *same functions* run interpreted.  They are
  then no faster than the oracle, so ``engine="auto"`` never picks the
  tier, but an explicit ``engine="epochs-jit"`` still works and is
  bit-exact: the fallback path is a first-class, testable code path,
  not a stub (``NUMBA_AVAILABLE`` tells the dispatcher which case it
  is in).

Bit-exactness is by construction: the kernel replicates
``simulate_fc_events`` (heap keyed ``(cycle, kind, id)``, releases
before requests on ties, per-link FIFO deques with head-of-line credit
checks).  Open loop is the zero-length-capacity case (no credits are
ever checked or released).  Pinned in ``tests/test_grantkernel.py``
and ``tests/test_fuzz_engines.py`` against the heap oracle and the
epoch engine, including FIFO tie-breaking, every ``LinkTelemetry``
counter, and credit-deadlock reports.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .flowcontrol import (
    FlowControlDeadlockError,
    FlowControlParams,
    GrantTrace,
    _source_groups,
)

__all__ = [
    "NUMBA_AVAILABLE",
    "simulate_grant_kernel",
    "warmup_kernels",
]

try:  # pragma: no cover - exercised on the numba CI leg
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - default container has no numba
    _njit = None
    NUMBA_AVAILABLE = False


def _maybe_njit(fn):
    """Compile ``fn`` when numba is importable; return it unchanged
    otherwise, so the identical code runs (slowly) interpreted."""
    if _njit is None:
        return fn
    return _njit(cache=True, nogil=True)(fn)


# ---------------------------------------------------------------------------
# 4-key binary min-heap over a (cap, 4) int64 array
#
# Row layout mirrors the oracle's heap tuples exactly:
#   (cycle, kind, id, aux)  with REL=0 < REQ=1
# Lexicographic comparison over all four columns == tuple comparison.


@_maybe_njit
def _heap_less(heap, i, j):
    for k in range(4):
        a = heap[i, k]
        b = heap[j, k]
        if a != b:
            return a < b
    return False


@_maybe_njit
def _heap_swap(heap, i, j):
    for k in range(4):
        tmp = heap[i, k]
        heap[i, k] = heap[j, k]
        heap[j, k] = tmp


@_maybe_njit
def _heap_push(heap, size, k0, k1, k2, k3):
    heap[size, 0] = k0
    heap[size, 1] = k1
    heap[size, 2] = k2
    heap[size, 3] = k3
    i = size
    while i > 0:
        parent = (i - 1) // 2
        if _heap_less(heap, i, parent):
            _heap_swap(heap, i, parent)
            i = parent
        else:
            break
    return size + 1


@_maybe_njit
def _heap_pop(heap, size):
    """Remove the root (caller reads row 0 *before* popping)."""
    size -= 1
    for k in range(4):
        heap[0, k] = heap[size, k]
    i = 0
    while True:
        left = 2 * i + 1
        right = left + 1
        smallest = i
        if left < size and _heap_less(heap, left, smallest):
            smallest = left
        if right < size and _heap_less(heap, right, smallest):
            smallest = right
        if smallest == i:
            break
        _heap_swap(heap, i, smallest)
        i = smallest
    return size


# ---------------------------------------------------------------------------
# grant kernel (replicates flowcontrol.simulate_fc_events)


@_maybe_njit
def _fc_serve(edge, now, heap, size, rows, collect,
              inject, flits, rstart, route_links, hop_delta,
              capacity_finite, rtt, succ,
              q_head, q_tail, node_next, node_ready, node_pkt, node_hop,
              link_free, free_credits, tr):
    """Grant ``edge``'s FIFO queue head(s) while credits allow.

    The oracle's ``serve``: head-of-line blocking on credits, grant
    start ``max(ready, link_free, now)``, next-hop request at
    ``start + flits + hop_delta``, previous-hop credit release at
    ``start + rtt``, and the source-queue successor released one cycle
    after a first-link grant.  Returns the updated heap size and trace
    row count.
    """
    while q_head[edge] >= 0:
        node = q_head[edge]
        pkt = node_pkt[node]
        f = flits[pkt]
        if capacity_finite and free_credits[edge] < f:
            break
        ready = node_ready[node]
        hop = node_hop[node]
        q_head[edge] = node_next[node]
        if q_head[edge] < 0:
            q_tail[edge] = -1
        floor = ready
        if link_free[edge] > floor:
            floor = link_free[edge]
        start = floor
        if now > start:
            start = now
        if capacity_finite:
            free_credits[edge] -= f
        link_free[edge] = start + f
        if collect:
            tr[rows, 0] = pkt
            tr[rows, 1] = hop
            tr[rows, 2] = edge
            tr[rows, 3] = ready
            tr[rows, 4] = start
            tr[rows, 5] = f
            tr[rows, 6] = start - floor
            rows += 1
        size = _heap_push(heap, size, start + f + hop_delta[edge],
                          1, pkt, hop + 1)
        if hop > 0 and capacity_finite:
            prev = route_links[rstart[pkt] + hop - 1]
            size = _heap_push(heap, size, start + rtt, 0, prev, f)
        if hop == 0:
            released = succ[pkt]
            if released >= 0:
                t_rel = inject[released]
                if start + 1 > t_rel:
                    t_rel = start + 1
                size = _heap_push(heap, size, t_rel, 1, released, 0)
    return size, rows


@_maybe_njit
def _fc_grant_kernel(inject, flits, rstart, nhops, route_links,
                     inject_stage, hop_delta, capacity, rtt,
                     eligible, succ, num_links,
                     completion, latency, tr, collect, waiting):
    """Event loop: credits, FIFO deques, injection gating.

    ``capacity`` is the per-link buffer capacity ((L,) flits) or a
    zero-length array for infinite buffers (open loop).  ``eligible``
    marks packets injectable at their natural cycle; ``succ[i]`` is the
    packet whose injection slot packet ``i``'s first-link grant frees
    (-1 for none).  Fills ``completion``/``latency`` for delivered
    packets, flags links with stranded queued requests in ``waiting``,
    and returns ``(delivered, trace rows)`` -- the caller raises the
    deadlock.
    """
    m = inject.shape[0]
    capacity_finite = capacity.shape[0] > 0
    total_hops = 0
    for i in range(m):
        total_hops += nhops[i]
    heap = np.empty((total_hops + 2 * m + 4, 4), dtype=np.int64)
    size = 0
    q_head = np.full(num_links, -1, dtype=np.int64)
    q_tail = np.full(num_links, -1, dtype=np.int64)
    node_ready = np.empty(total_hops + 1, dtype=np.int64)
    node_pkt = np.empty(total_hops + 1, dtype=np.int64)
    node_hop = np.empty(total_hops + 1, dtype=np.int64)
    node_next = np.empty(total_hops + 1, dtype=np.int64)
    nodes = 0
    link_free = np.zeros(num_links, dtype=np.int64)
    if capacity_finite:
        free_credits = capacity.copy()
    else:
        free_credits = np.empty(0, dtype=np.int64)
    for i in range(m):
        if eligible[i]:
            size = _heap_push(heap, size, inject[i], 1, i, 0)
    delivered = 0
    rows = 0
    while size > 0:
        now = heap[0, 0]
        kind = heap[0, 1]
        a = heap[0, 2]
        b = heap[0, 3]
        size = _heap_pop(heap, size)
        if kind == 0:  # credit release
            free_credits[a] += b
            size, rows = _fc_serve(
                a, now, heap, size, rows, collect,
                inject, flits, rstart, route_links, hop_delta,
                capacity_finite, rtt, succ,
                q_head, q_tail, node_next, node_ready, node_pkt, node_hop,
                link_free, free_credits, tr,
            )
            continue
        pkt = a
        hop = b
        if hop >= nhops[pkt]:
            completion[pkt] = now
            latency[pkt] = now - inject[pkt]
            delivered += 1
            if capacity_finite:
                last = route_links[rstart[pkt] + hop - 1]
                size = _heap_push(heap, size, now + rtt, 0, last,
                                  flits[pkt])
            continue
        edge = route_links[rstart[pkt] + hop]
        ready = now
        if hop == 0:
            ready += inject_stage[edge]
        node_ready[nodes] = ready
        node_pkt[nodes] = pkt
        node_hop[nodes] = hop
        node_next[nodes] = -1
        if q_tail[edge] >= 0:
            node_next[q_tail[edge]] = nodes
        else:
            q_head[edge] = nodes
        q_tail[edge] = nodes
        nodes += 1
        size, rows = _fc_serve(
            edge, now, heap, size, rows, collect,
            inject, flits, rstart, route_links, hop_delta,
            capacity_finite, rtt, succ,
            q_head, q_tail, node_next, node_ready, node_pkt, node_hop,
            link_free, free_credits, tr,
        )
    for e in range(num_links):
        waiting[e] = q_head[e] >= 0
    return delivered, rows


# ---------------------------------------------------------------------------
# python-side wrapper


def simulate_grant_kernel(
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
    """Resolve the contended subset through the grant kernel, in place.

    The ``engine="epochs-jit"`` entry point: same call contract as
    :func:`~repro.net.flowcontrol.simulate_fc_events` (arrays are
    global, ``contended_ids`` selects the subset).  Raises
    :class:`~repro.net.flowcontrol.FlowControlDeadlockError` exactly
    where the oracles do.
    """
    ids = contended_ids
    m = int(ids.size)
    if m == 0:
        return GrantTrace.empty() if collect_trace else None
    queue_index = tables.queue_index()
    hop_delta = queue_index.hop_delta
    inject_stage = tables.stage_cycles[tables.link_u]
    num_links = int(tables.num_directed_links)

    p_inject = inject[ids].astype(np.int64)
    p_flits = flits[ids].astype(np.int64)
    p_start = starts[ids].astype(np.int64)
    p_hops = hops[ids].astype(np.int64)
    total_hops = int(p_hops.sum())
    tr = np.empty((total_hops if collect_trace else 0, 7), dtype=np.int64)
    comp = np.zeros(m, dtype=np.int64)
    lat = np.zeros(m, dtype=np.int64)

    capacity = queue_index.buffer_capacity_flits(fc)
    cap_arr = (capacity if capacity is not None
               else np.empty(0, dtype=np.int64))
    eligible = np.ones(m, dtype=np.bool_)
    succ = np.full(m, -1, dtype=np.int64)
    if fc.source_queue is not None:
        initial, successor = _source_groups(
            inject, src, ids, fc.source_queue
        )
        local = {int(g): i for i, g in enumerate(ids.tolist())}
        eligible[:] = False
        for g in initial:
            eligible[local[g]] = True
        for g, s in successor.items():
            succ[local[g]] = local[s]
    waiting = np.zeros(num_links, dtype=np.bool_)
    delivered, rows = _fc_grant_kernel(
        p_inject, p_flits, p_start, p_hops, tables.route_links,
        inject_stage, hop_delta, cap_arr, int(fc.credit_rtt),
        eligible, succ, num_links, comp, lat, tr, collect_trace,
        waiting,
    )
    if int(delivered) < m:
        raise FlowControlDeadlockError(
            fc, m - int(delivered), np.flatnonzero(waiting)
        )

    completion[ids] = comp
    latencies[ids] = lat
    if not collect_trace:
        return None
    rows = int(rows)
    return GrantTrace(
        packet=ids[tr[:rows, 0]],
        hop=tr[:rows, 1].copy(),
        link=tr[:rows, 2].copy(),
        ready=tr[:rows, 3].copy(),
        start=tr[:rows, 4].copy(),
        flits=tr[:rows, 5].copy(),
        credit_wait=tr[:rows, 6].copy(),
    )


def warmup_kernels() -> bool:
    """Force-compile the kernel on a trivial input (bench warm-up).

    Returns :data:`NUMBA_AVAILABLE` so callers can gate ratio floors on
    whether the warmed kernels are actually compiled.
    """
    one = np.zeros(1, dtype=np.int64)
    links = np.zeros(1, dtype=np.int64)
    tr = np.empty((0, 7), dtype=np.int64)
    _fc_grant_kernel(one.copy(), one + 1, one.copy(), one + 1, links,
                     links.copy(), links + 1, np.empty(0, dtype=np.int64),
                     1, np.ones(1, dtype=np.bool_),
                     np.full(1, -1, dtype=np.int64), 1, one.copy(),
                     one.copy(), tr, False, np.zeros(1, dtype=np.bool_))
    return NUMBA_AVAILABLE

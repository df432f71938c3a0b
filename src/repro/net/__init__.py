"""Interconnect performance models: analytic + packet-level simulation.

Three evaluation layers share one routing substrate:

* scalar reference models (:mod:`repro.net.analytic`) -- the oracles,
* the batched NumPy engine (:mod:`repro.net.vectorized`) over the
  precomputed :mod:`repro.net.routing` tables -- the hot path,
* the packet simulator (:mod:`repro.net.simulator`) with its own
  engine split: closed-form fast path, event-heap oracle and the
  epoch-synchronous vectorized contention engine, plus the
  closed-loop flow-control subsystem (:mod:`repro.net.flowcontrol`):
  finite per-link buffers with credit backpressure, per-source
  injection queues and per-link telemetry.  Every tier is pinned
  bit-exactly to the event-heap oracle.
"""

from .analytic import (
    CommReport,
    communication_cost,
    flits_for_bytes,
    multicast_step_cost,
    path_pipeline_cycles,
    transfer_energy_pj,
    transfer_latency_cycles,
)
from .flowcontrol import (
    FlowControlDeadlockError,
    FlowControlParams,
    GrantTrace,
    LinkTelemetry,
    link_telemetry,
)
from .journey import (
    COMPONENTS,
    LatencyBreakdown,
    PacketJourney,
    latency_breakdown,
    packet_journeys,
)
from .perf import (
    TaskAttribution,
    TaskPerf,
    attribute_task,
    evaluate_task,
    evaluate_task_perlayer,
)
from .routing import (
    LinkQueueIndex,
    RoutingTables,
    build_link_queue_index,
    build_routing_tables,
)
from .simulator import (
    ENGINES,
    FLOW_CONTROL_FROM_PARAMS,
    Message,
    PacketSim,
    SimReport,
    message_array,
    simulate,
    simulate_packets,
    simulate_transfers,
)
from .vectorized import (
    communication_cost_vec,
    multicast_step_cost_steps,
    multicast_step_cost_vec,
    traffic_matrix_cost,
    traffic_matrix_to_transfers,
    unicast_step_cost_vec,
)

__all__ = [
    "COMPONENTS",
    "CommReport",
    "ENGINES",
    "FLOW_CONTROL_FROM_PARAMS",
    "FlowControlDeadlockError",
    "FlowControlParams",
    "GrantTrace",
    "LatencyBreakdown",
    "LinkQueueIndex",
    "LinkTelemetry",
    "Message",
    "PacketJourney",
    "PacketSim",
    "RoutingTables",
    "SimReport",
    "TaskAttribution",
    "TaskPerf",
    "attribute_task",
    "build_link_queue_index",
    "build_routing_tables",
    "latency_breakdown",
    "link_telemetry",
    "communication_cost",
    "communication_cost_vec",
    "evaluate_task",
    "packet_journeys",
    "evaluate_task_perlayer",
    "flits_for_bytes",
    "message_array",
    "multicast_step_cost",
    "multicast_step_cost_steps",
    "multicast_step_cost_vec",
    "path_pipeline_cycles",
    "simulate",
    "simulate_packets",
    "simulate_transfers",
    "traffic_matrix_cost",
    "traffic_matrix_to_transfers",
    "transfer_energy_pj",
    "transfer_latency_cycles",
    "unicast_step_cost_vec",
]

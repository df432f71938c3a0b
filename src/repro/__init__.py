"""repro: dataflow-aware PIM-enabled manycore architectures for DL.

Reproduction of Sharma et al., "Dataflow-Aware PIM-Enabled Manycore
Architecture for Deep Learning Workloads" (DATE 2024).

Quickstart::

    from repro import build_floret, ContiguousMapper, SystemScheduler
    from repro.workloads import mix_by_name

    design = build_floret(num_chiplets=100, petals=6)
    mapper = ContiguousMapper(design.allocation_order, design.topology)
    scheduler = SystemScheduler(design.topology, mapper)
    result = scheduler.run(mix_by_name("WL1").tasks())
    print(result.mean_packet_latency, result.utilization)

Packages:

* :mod:`repro.core` -- SFC generation, the Floret NoI, dataflow mapping,
  the multi-task scheduler, and the joint performance-thermal MOO.
* :mod:`repro.workloads` -- DNN/Transformer workload models (Tables I-II).
* :mod:`repro.noi` -- baseline NoI topologies (SIAM mesh, Kite, SWAP).
* :mod:`repro.noc3d` -- 3D stacked PE grids and the 3D SFC NoC.
* :mod:`repro.pim` -- ReRAM crossbar/chiplet models and thermal accuracy.
* :mod:`repro.net` -- analytic interconnect models + packet simulator.
* :mod:`repro.thermal` -- finite-difference thermal solver, hotspots.
* :mod:`repro.cost` -- fabrication-cost model (paper Eqs. (2)-(5)).
* :mod:`repro.eval` -- per-figure experiment drivers.
"""

from .core import (
    ContiguousMapper,
    FloretDesign,
    GreedyMapper,
    MappingProblem,
    MOOResult,
    ScheduleResult,
    SystemScheduler,
    TaskPlacement,
    build_floret,
    optimize_mapping,
)
from .params import (
    DEFAULT_PARAMS,
    CostParams,
    NoIParams,
    PIMParams,
    SystemParams,
    ThermalParams,
)

# Participates in every ResultStore key: bump on model-code changes
# below the evaluator layer so stale cached results self-invalidate.
# 1.2.0: closed-loop flow control (finite buffers / backpressure) in the
# packet simulator -- pre-flow-control cached sweep results are stale.
# 1.3.0: component-parallel and JIT engine tiers and the
# params.sim_engine knob the evaluators consume -- cached results predate the engine
# field and must re-evaluate.
# 1.4.0: cross-layer batched task evaluation (evaluate_task rides
# multicast_step_cost_steps + layer_compute_vec) and the corrected
# payload-weighted hop recombination -- weighted_hops changed below
# the evaluator layer, so cached mix results must re-evaluate.
# 1.5.0: the component-parallel tier is gone and engine="auto" resolves
# to epochs without numba, so cached load-sweep sim_epochs values
# change.
# 1.6.0: open loop is flow control with infinite buffers -- same-cycle
# link requests tie-break by packet id on every engine, so cached
# open-loop completions and latencies change.
# 1.6.0 kept when the numba-compiled grant kernel (engine="epochs-jit")
# was deleted: every simulated quantity is unchanged, and on a host with
# numba "auto" now resolves to epochs, which moves only the stored
# sim_epochs engine diagnostic (0 -> the epoch count).
__version__ = "1.6.0"

__all__ = [
    "ContiguousMapper",
    "CostParams",
    "DEFAULT_PARAMS",
    "FloretDesign",
    "GreedyMapper",
    "MOOResult",
    "MappingProblem",
    "NoIParams",
    "PIMParams",
    "ScheduleResult",
    "SystemParams",
    "SystemScheduler",
    "TaskPlacement",
    "ThermalParams",
    "build_floret",
    "optimize_mapping",
    "__version__",
]

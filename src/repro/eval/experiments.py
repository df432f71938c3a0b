"""Experiment drivers: one function per paper table/figure.

Each ``exp_*`` function regenerates the data behind one table or figure
of the paper and returns it in a structured form; the ``benchmarks/``
harness times them and prints the rows.  Heavyweight artefacts
(topologies, schedules, MOO runs) are cached per process so that a
benchmark session builds each system exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.floret import FloretDesign, build_floret
from ..core.mapping import ContiguousMapper, GreedyMapper
from ..core.moo import MappingProblem, MOOResult, optimize_mapping
from ..core.scheduler import ScheduleResult, SystemScheduler
from ..core.sfc import build_floret_curve, single_sfc_curve
from ..cost.fabrication import compare_costs
from ..noc3d.grid3d import Floret3DDesign, build_floret_3d
from ..noi.kite import build_kite
from ..noi.mesh import build_mesh
from ..noi.properties import TopologySummary, summarize
from ..noi.swap import build_swap
from ..noi.topology import Topology
from ..params import NoIParams
from ..pim.accuracy import AccuracyReport, assess
from ..pim.chiplet import ChipletSpec
from ..thermal.hotspot import HotspotReport, analyze_tier
from ..thermal.power import weight_fractions_per_pe
from ..workloads.tasks import TABLE2_MIXES, TaskMix, mix_by_name
from ..workloads.traffic import summarize_traffic
from ..workloads.transformer import (
    BERT_BASE,
    BERT_TINY,
    TransformerConfig,
    pim_suitability,
    storage_report,
)
from ..workloads.zoo import Table1Row, build_model, table1_model, table1_rows

#: Architectures compared in Section II, in the paper's order.
BASELINE_ARCHS = ("kite", "siam", "swap")
ALL_ARCHS = ("floret",) + BASELINE_ARCHS

#: The paper's system size for the 2.5D evaluation.
NUM_CHIPLETS = 100

#: Petal count of the running Floret example.
NUM_PETALS = 6


# ---------------------------------------------------------------------------
# cached system builders


@lru_cache(maxsize=32)
def _structure(arch: str, num_chiplets: int, chiplet_pitch_mm: float):
    """Build one NoI structure, once per process.

    Keyed on what the builders read: the architecture, the size and
    the chiplet pitch that sets link lengths.  Every other
    :class:`~repro.params.NoIParams` field is applied per case as a
    :meth:`Topology.with_params` view, which shares this structure's
    graph and routing tables.  Floret returns its
    :class:`FloretDesign` (the mapper needs the allocation order).
    """
    params = NoIParams(chiplet_pitch_mm=chiplet_pitch_mm)
    if arch == "floret":
        return build_floret(num_chiplets, NUM_PETALS, params=params)
    if arch == "siam":
        return build_mesh(num_chiplets, params=params)
    if arch == "kite":
        return build_kite(num_chiplets, params=params)
    if arch == "swap":
        return build_swap(num_chiplets, params=params)
    raise ValueError(f"unknown architecture {arch!r}")


def floret_design(num_chiplets: int = NUM_CHIPLETS) -> FloretDesign:
    """The (cached) paper Floret design: :data:`NUM_PETALS` petals."""
    return _structure("floret", num_chiplets, NoIParams().chiplet_pitch_mm)


def baseline_topology(name: str, num_chiplets: int = NUM_CHIPLETS) -> Topology:
    """The (cached) topology of one of :data:`BASELINE_ARCHS`."""
    if name not in BASELINE_ARCHS:
        raise ValueError(f"unknown baseline {name!r}")
    return topology_for(name, num_chiplets)


def topology_for(name: str, num_chiplets: int = NUM_CHIPLETS,
                 params: Optional[NoIParams] = None) -> Topology:
    """Resolve an architecture name to its (cached) topology.

    With ``params``, a view of the cached structure under them (see
    :func:`_structure`); without, the structure itself.
    """
    return _view(name, num_chiplets, params or NoIParams())


@lru_cache(maxsize=32)
def _view(name: str, num_chiplets: int, params: NoIParams) -> Topology:
    """The structure of ``name`` under ``params``, as a cached view.

    Cases with equal params share one view, so a view whose cost fields
    differ from the structure's builds its own routing tables once; the
    bound frees the tables of views that fall out of use.
    """
    built = _structure(name, num_chiplets, params.chiplet_pitch_mm)
    topology = built.topology if name == "floret" else built
    return topology.with_params(params)


def mapper_for(name: str, num_chiplets: int = NUM_CHIPLETS):
    """The mapping strategy the paper applies to each architecture."""
    if name == "floret":
        design = floret_design(num_chiplets)
        return ContiguousMapper(design.allocation_order, design.topology)
    return GreedyMapper(topology_for(name, num_chiplets))


def mix_task_placements(
    arch: str,
    mix_name: str,
    num_chiplets: int = NUM_CHIPLETS,
) -> List[Tuple[object, object, Tuple[int, ...]]]:
    """Idle-system ``(model, plan, chiplet_ids)`` per distinct mix model.

    Places each distinct DNN of a Table II mix once on an empty
    ``arch`` system with the paper's mapper for that architecture --
    the (model, placement) grid the task-evaluation benches and the
    batched-vs-per-layer equivalence tests run over.  Models that do
    not fit ``num_chiplets`` (or that the mapper rejects) are skipped.
    """
    from ..pim.allocation import plan_allocation

    spec = ChipletSpec.from_params()
    mapper = mapper_for(arch, num_chiplets)
    out: List[Tuple[object, object, Tuple[int, ...]]] = []
    seen = set()
    for task in mix_by_name(mix_name).tasks():
        model = task.model
        if (model.name, model.dataset) in seen:
            continue
        seen.add((model.name, model.dataset))
        plan = plan_allocation(model, spec)
        if plan.num_chiplets > num_chiplets:
            continue
        placement = mapper.map_task(
            task.task_id, model, plan, frozenset(range(num_chiplets))
        )
        if placement is None:
            continue
        out.append((model, plan, placement.chiplet_ids))
    return out


@lru_cache(maxsize=64)
def schedule(arch: str, mix_name: str,
             num_chiplets: int = NUM_CHIPLETS) -> ScheduleResult:
    """Run (and cache) one Table II mix on one architecture."""
    topo = topology_for(arch, num_chiplets)
    scheduler = SystemScheduler(topo, mapper_for(arch, num_chiplets))
    return scheduler.run(mix_by_name(mix_name).tasks())


@lru_cache(maxsize=4)
def floret_3d(num_pes: int = 100, tiers: int = 4) -> Floret3DDesign:
    return build_floret_3d(num_pes, tiers)


@lru_cache(maxsize=16)
def moo_result(dnn_id: str, *, population_size: int = 24,
               generations: int = 12) -> Tuple[MappingProblem, MOOResult]:
    """Run (and cache) the Section III MOO for one Table I DNN."""
    model = table1_model(dnn_id)
    problem = MappingProblem(floret_3d(), model)
    result = optimize_mapping(
        problem, population_size=population_size, generations=generations
    )
    return problem, result


# ---------------------------------------------------------------------------
# Tables I and II


def exp_table1() -> List[Table1Row]:
    """Table I: the 13 DNN workloads with parameter counts."""
    return table1_rows()


@dataclass(frozen=True)
class Table2Row:
    mix_name: str
    num_tasks: int
    paper_total_params_billions: float
    measured_total_params_billions: float


def exp_table2() -> List[Table2Row]:
    """Table II: concurrent task mixes with total parameters."""
    return [
        Table2Row(
            mix_name=mix.name,
            num_tasks=mix.num_tasks,
            paper_total_params_billions=mix.paper_total_params_billions,
            measured_total_params_billions=mix.total_params_billions(),
        )
        for mix in TABLE2_MIXES
    ]


# ---------------------------------------------------------------------------
# Fig. 2: router ports and link counts


def exp_fig2a(num_chiplets: int = NUM_CHIPLETS) -> Dict[str, Dict[int, int]]:
    """Fig. 2(a): router-port histogram per architecture."""
    return {
        arch: dict(topology_for(arch, num_chiplets).port_histogram())
        for arch in ALL_ARCHS
    }


def exp_fig2b(num_chiplets: int = NUM_CHIPLETS) -> Dict[str, TopologySummary]:
    """Fig. 2(b): link counts (plus length census) per architecture."""
    return {
        arch: summarize(topology_for(arch, num_chiplets))
        for arch in ALL_ARCHS
    }


# ---------------------------------------------------------------------------
# Figs. 3 and 5: latency and energy over the Table II mixes


@dataclass(frozen=True)
class MixComparison:
    """One workload mix evaluated on all architectures."""

    mix_name: str
    packet_latency: Dict[str, float]
    noi_energy_pj: Dict[str, float]
    utilization: Dict[str, float]

    def latency_normalized(self) -> Dict[str, float]:
        """Per-arch latency as a multiple of Floret (Fig. 3 bars)."""
        base = self.packet_latency["floret"]
        return {a: v / base for a, v in self.packet_latency.items()}

    def energy_normalized(self) -> Dict[str, float]:
        """Per-arch NoI energy as a multiple of Floret (Fig. 5 bars)."""
        base = self.noi_energy_pj["floret"]
        return {a: v / base for a, v in self.noi_energy_pj.items()}


def exp_mix_comparison(
    mix_names: Sequence[str] = ("WL1", "WL2", "WL3", "WL4", "WL5"),
    num_chiplets: int = NUM_CHIPLETS,
) -> List[MixComparison]:
    """Shared driver for Figs. 3 and 5."""
    out = []
    for mix_name in mix_names:
        latency: Dict[str, float] = {}
        energy: Dict[str, float] = {}
        util: Dict[str, float] = {}
        for arch in ALL_ARCHS:
            result = schedule(arch, mix_name, num_chiplets)
            latency[arch] = result.mean_packet_latency
            energy[arch] = result.total_noi_energy_pj
            util[arch] = result.utilization
        out.append(
            MixComparison(
                mix_name=mix_name,
                packet_latency=latency,
                noi_energy_pj=energy,
                utilization=util,
            )
        )
    return out


def exp_fig3(num_chiplets: int = NUM_CHIPLETS) -> List[MixComparison]:
    """Fig. 3: NoI latency normalised to Floret."""
    return exp_mix_comparison(num_chiplets=num_chiplets)


def exp_fig5(num_chiplets: int = NUM_CHIPLETS) -> List[MixComparison]:
    """Fig. 5: NoI energy normalised to Floret."""
    return exp_mix_comparison(num_chiplets=num_chiplets)


# ---------------------------------------------------------------------------
# Fig. 4: design-time NoIs strand chiplets at runtime


@dataclass(frozen=True)
class UtilizationRow:
    arch: str
    hop_budget: Optional[int]
    utilization: float
    constraint_failures: int
    relaxed_mappings: int
    makespan_cycles: int


def utilization_row(
    arch: str,
    mix_name: str = "WL3",
    hop_budget: int = 2,
    num_chiplets: int = NUM_CHIPLETS,
) -> UtilizationRow:
    """One architecture's Fig. 4 row: scheduling under the contiguity QoS.

    Baselines map greedily but *reject* placements whose consecutive
    loads exceed ``hop_budget`` hops (the paper's contiguity
    requirement); the rejections stall the queue and strand free
    chiplets.  Floret's contiguous mapping never rejects, so it runs
    without a budget.  Shared by :func:`exp_fig4` and the
    :func:`repro.eval.sweeps.evaluate_utilization_case` sweep evaluator.
    """
    tasks = mix_by_name(mix_name).tasks()
    if arch == "floret":
        design = floret_design(num_chiplets)
        scheduler = SystemScheduler(
            design.topology,
            ContiguousMapper(design.allocation_order, design.topology),
        )
        budget: Optional[int] = None
    else:
        topo = baseline_topology(arch, num_chiplets)
        scheduler = SystemScheduler(
            topo,
            GreedyMapper(topo, max_hops=hop_budget),
            fallback_mapper=GreedyMapper(topo),
        )
        budget = hop_budget
    result = scheduler.run(tasks)
    return UtilizationRow(
        arch=arch,
        hop_budget=budget,
        utilization=result.utilization,
        constraint_failures=result.constraint_failures,
        relaxed_mappings=result.relaxed_mappings,
        makespan_cycles=result.makespan_cycles,
    )


def exp_fig4(
    mix_name: str = "WL3",
    hop_budget: int = 2,
    num_chiplets: int = NUM_CHIPLETS,
) -> List[UtilizationRow]:
    """Fig. 4: mapped/unmapped behaviour under a contiguity QoS budget."""
    return [
        utilization_row(arch, mix_name, hop_budget, num_chiplets)
        for arch in ALL_ARCHS
    ]


# ---------------------------------------------------------------------------
# fabrication cost (Section II, Eqs. (2)-(5))


def exp_cost(num_chiplets: int = NUM_CHIPLETS) -> Dict[str, Dict[str, float]]:
    """Fabrication-cost comparison relative to Floret."""
    topologies = [topology_for(a, num_chiplets) for a in ALL_ARCHS]
    return compare_costs(topologies, baseline="floret")


# ---------------------------------------------------------------------------
# Fig. 6: EDP / peak temperature / accuracy on the 3D system


@dataclass(frozen=True)
class Fig6Row:
    dnn_id: str
    model_name: str
    floret_edp: float
    joint_edp: float
    floret_peak_k: float
    joint_peak_k: float
    floret_accuracy_drop_pct: float
    joint_accuracy_drop_pct: float

    @property
    def edp_advantage(self) -> float:
        """Floret EDP as a fraction of joint EDP (paper: ~0.91)."""
        if self.joint_edp == 0:
            return 1.0
        return self.floret_edp / self.joint_edp

    @property
    def peak_delta_k(self) -> float:
        """Floret peak minus joint peak (paper: ~13 K average)."""
        return self.floret_peak_k - self.joint_peak_k


FIG6_DNNS: Tuple[str, ...] = ("DNN1", "DNN2", "DNN3", "DNN4", "DNN5")


@dataclass(frozen=True)
class MOOCandidateSummary:
    """One MOO mapping fully characterised: EDP, thermal, accuracy."""

    edp: float
    peak_k: float
    accuracy_drop_pct: float
    tier: HotspotReport


def moo_candidate_summary(
    problem: MappingProblem, candidate, label: str = ""
) -> MOOCandidateSummary:
    """Thermal/accuracy census of one mapping (one thermal solve).

    Shared by :func:`exp_fig6`, :func:`exp_fig7` and the
    :func:`repro.eval.sweeps.evaluate_moo_case` sweep evaluator.
    """
    thermal = problem.thermal_report(candidate.chiplet_ids)
    n = problem.design.topology.num_chiplets
    fractions = weight_fractions_per_pe(
        n, problem.plan, candidate.chiplet_ids
    )
    drop = assess(
        problem.model.name, thermal.temperatures_k, fractions
    ).drop_pct
    return MOOCandidateSummary(
        edp=candidate.edp,
        peak_k=candidate.peak_k,
        accuracy_drop_pct=drop,
        tier=analyze_tier(thermal, problem.design.grid, tier=0, label=label),
    )


def exp_fig6(
    dnn_ids: Sequence[str] = FIG6_DNNS,
    *,
    population_size: int = 24,
    generations: int = 12,
) -> List[Fig6Row]:
    """Figs. 6(a)-(c): Floret-3D vs joint perf-thermal optimisation."""
    rows: List[Fig6Row] = []
    for dnn_id in dnn_ids:
        problem, result = moo_result(
            dnn_id,
            population_size=population_size,
            generations=generations,
        )
        floret = moo_candidate_summary(
            problem, result.performance_only, "floret"
        )
        joint = moo_candidate_summary(problem, result.joint, "joint")
        rows.append(
            Fig6Row(
                dnn_id=dnn_id,
                model_name=problem.model.name,
                floret_edp=floret.edp,
                joint_edp=joint.edp,
                floret_peak_k=floret.peak_k,
                joint_peak_k=joint.peak_k,
                floret_accuracy_drop_pct=floret.accuracy_drop_pct,
                joint_accuracy_drop_pct=joint.accuracy_drop_pct,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 7: bottom-tier hotspot maps for ResNet-34


@dataclass(frozen=True)
class Fig7Result:
    floret: HotspotReport
    joint: HotspotReport
    floret_map: "object"
    joint_map: "object"

    @property
    def peak_delta_k(self) -> float:
        """Floret bottom-tier peak minus joint (paper: ~17 K)."""
        return self.floret.peak_k - self.joint.peak_k


def exp_fig7(dnn_id: str = "DNN10") -> Fig7Result:
    """Fig. 7: thermal hotspots, ResNet-34 on the 100-PE 3D stack.

    The paper uses DNN10 (ResNet-34/CIFAR-10) as the running example.
    """
    problem, result = moo_result(dnn_id)
    floret = moo_candidate_summary(problem, result.performance_only,
                                   "floret")
    joint = moo_candidate_summary(problem, result.joint, "joint")
    return Fig7Result(
        floret=floret.tier,
        joint=joint.tier,
        floret_map=floret.tier.tier_map_k,
        joint_map=joint.tier.tier_map_k,
    )


# ---------------------------------------------------------------------------
# Section IV: transformer storage analysis


@dataclass(frozen=True)
class Sec4Row:
    config_name: str
    weight_elements: int
    intermediate_elements: int
    ratio: float
    paper_ratio: Optional[float]
    dynamic_mac_fraction: float


SEC4_PAPER_RATIOS = {"bert-base": 8.98, "bert-tiny": 2.06}


def exp_sec4_transformer(
    configs: Sequence[TransformerConfig] = (BERT_TINY, BERT_BASE),
) -> List[Sec4Row]:
    """Section IV: intermediate-to-weight storage ratios for BERT."""
    rows = []
    for cfg in configs:
        report = storage_report(cfg)
        suit = pim_suitability(cfg)
        rows.append(
            Sec4Row(
                config_name=cfg.name,
                weight_elements=report.weight_elements,
                intermediate_elements=report.intermediate_elements,
                ratio=report.intermediate_to_weight_ratio,
                paper_ratio=SEC4_PAPER_RATIOS.get(cfg.name),
                dynamic_mac_fraction=suit["dynamic_fraction"],
            )
        )
    return rows


@dataclass(frozen=True)
class SkipTrafficRow:
    model_name: str
    skip_fraction: float
    linear_to_skip_ratio: float


def exp_sec2_skip_traffic(
    names: Sequence[Tuple[str, str]] = (("resnet34", "imagenet"),),
) -> List[SkipTrafficRow]:
    """Section II claim: ResNet-34 skips carry ~19% of activations."""
    rows = []
    for name, dataset in names:
        summary = summarize_traffic(build_model(name, dataset))
        rows.append(
            SkipTrafficRow(
                model_name=f"{name}/{dataset}",
                skip_fraction=summary.skip_fraction,
                linear_to_skip_ratio=summary.linear_to_skip_ratio,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# injection-rate load sweeps (saturation scenarios on the epoch engine)


#: Default warm-up window before steady-state measurement, cycles.
LOAD_SWEEP_WARMUP_CYCLES = 256

#: Default steady-state measurement window, cycles.
LOAD_SWEEP_MEASURE_CYCLES = 1024


@dataclass(frozen=True)
class LoadSweepSpec:
    """One load-sweep scenario: open-loop injection into a NoI.

    Every node injects one ``payload_bytes`` message per cycle with
    probability ``injection_rate`` (Bernoulli injection, the standard
    open-loop NoC load model); destinations follow ``pattern``.
    Packets injected during the first ``warmup_cycles`` fill the
    network; steady-state metrics cover packets injected in the
    ``measure_cycles`` that follow.
    """

    pattern: str
    injection_rate: float
    warmup_cycles: int = LOAD_SWEEP_WARMUP_CYCLES
    measure_cycles: int = LOAD_SWEEP_MEASURE_CYCLES

    @property
    def window_cycles(self) -> int:
        """Total injection window (warm-up + measurement)."""
        return self.warmup_cycles + self.measure_cycles

    @property
    def workload(self) -> str:
        """The :class:`~repro.eval.sweeps.SweepCase` workload string."""
        return (
            f"{self.pattern}@{self.injection_rate:g}"
            f":w{self.warmup_cycles}+{self.measure_cycles}"
        )


def _parse_window_suffix(
    workload: str, window: str, family: str = "load workload"
) -> Tuple[int, int]:
    """Parse a ``wWARMUP+MEASURE`` window suffix, shared by both
    workload-string families (load sweeps and saturation ramps --
    ``family`` labels the error messages accordingly).

    ``isdigit`` deliberately rejects signs, so a negative warm-up
    (``w-5+128``) fails the format check with the same clear message as
    any other malformed window.
    """
    head, sep, tail = window.partition("+")
    if not (head.startswith("w") and sep and head[1:].isdigit()
            and tail.isdigit()):
        raise ValueError(
            f"{family} {workload!r}: bad window {window!r} "
            "(expected wWARMUP+MEASURE with non-negative integer "
            "warm-up and measure cycles)"
        )
    warmup, measure = int(head[1:]), int(tail)
    if measure <= 0:
        raise ValueError(
            f"{family} {workload!r}: measurement window must "
            "be positive"
        )
    return warmup, measure


def parse_load_workload(workload: str) -> LoadSweepSpec:
    """Parse a load-sweep workload string into a :class:`LoadSweepSpec`.

    Format: ``pattern@rate`` with an optional ``:wWARMUP+MEASURE``
    window suffix -- e.g. ``"uniform@0.05"`` or
    ``"hotspot@0.1:w512+2048"``.  Keeping every axis inside the
    workload string lets load sweeps ride :class:`SweepCase` (and thus
    the store/streaming machinery) unchanged.
    """
    spec, _, window = workload.partition(":")
    pattern, sep, rate_text = spec.partition("@")
    if not sep or not pattern or not rate_text:
        raise ValueError(
            f"load workload {workload!r} is not 'pattern@rate"
            "[:wWARMUP+MEASURE]'"
        )
    try:
        rate = float(rate_text)
    except ValueError:
        raise ValueError(
            f"load workload {workload!r}: bad injection rate {rate_text!r}"
        ) from None
    if not 0.0 < rate <= 1.0:
        raise ValueError(
            f"load workload {workload!r}: injection rate must be in "
            f"(0, 1], got {rate}"
        )
    warmup = LOAD_SWEEP_WARMUP_CYCLES
    measure = LOAD_SWEEP_MEASURE_CYCLES
    if window:
        warmup, measure = _parse_window_suffix(workload, window)
    return LoadSweepSpec(
        pattern=pattern,
        injection_rate=rate,
        warmup_cycles=warmup,
        measure_cycles=measure,
    )


def load_sweep_traffic(
    spec: LoadSweepSpec,
    num_chiplets: int,
    seed: int,
    *,
    payload_bytes: int = 64,
) -> np.ndarray:
    """Deterministic open-loop message table for one load-sweep case.

    Returns the packed ``(k, 5)`` message array
    (:func:`repro.net.simulator.message_array` layout) that the
    simulator engines consume directly: source, pattern destination,
    payload, injection cycle and message id per Bernoulli injection.
    Destination patterns mirror
    :func:`repro.eval.sweeps.synthetic_traffic`.
    """
    n = num_chiplets
    rng = np.random.default_rng(seed * 9973 + n)
    fire = rng.random((spec.window_cycles, n)) < spec.injection_rate
    cycle, src = np.nonzero(fire)
    k = cycle.shape[0]
    if spec.pattern == "uniform":
        dst = rng.integers(0, n, k)
    elif spec.pattern == "neighbor":
        dst = (src + 1) % n
    elif spec.pattern == "transpose":
        dst = n - 1 - src
    elif spec.pattern == "hotspot":
        hot = int(rng.integers(0, n))
        dst = np.where(rng.random(k) < 0.5, hot, rng.integers(0, n, k))
    else:
        raise ValueError(f"unknown traffic pattern {spec.pattern!r}")
    return np.column_stack([
        src.astype(np.int64),
        dst.astype(np.int64),
        np.full(k, payload_bytes, dtype=np.int64),
        cycle.astype(np.int64),
        np.arange(k, dtype=np.int64),
    ])


def evaluate_load_sweep_case(case) -> Dict[str, float]:
    """Load-sweep metrics for one (arch, size, ``pattern@rate``) case.

    The case's ``workload`` is a :func:`parse_load_workload` string, so
    injection rate and warm-up/steady-state windows sweep as ordinary
    :class:`~repro.eval.sweeps.SweepCase` axes (store keys included).
    Runs the packet simulator with the params' ``sim_engine`` tier
    (default ``"auto"``: the fastest available vectorized tier for any
    real load) and reports steady-state latency and throughput --
    warm-up packets fill the network but are excluded from the steady
    metrics.  Flow-control knobs set through the case's
    ``noi_overrides`` (``fc_buffer_flits``, ``fc_source_queue``,
    ``fc_credit_rtt``) turn the same sweep closed-loop, a
    ``sim_engine`` override pins an engine tier for oracle runs, and a
    ``sim_attribution`` override adds the latency-attribution arrays
    (:func:`repro.net.journey.latency_breakdown`) to the result: the
    component totals as ``attr_*_cycles`` scalar metrics and the
    per-packet/per-link arrays through the store's npz payload.
    """
    from ..net.simulator import simulate_packets
    from .sweeps import case_topology

    spec = parse_load_workload(case.workload)
    topo = case_topology(case)
    table = load_sweep_traffic(spec, case.num_chiplets, case.seed)
    attribution = bool(getattr(topo.params, "sim_attribution", False))
    sim = simulate_packets(
        topo, table, engine=topo.params.sim_engine,
        attribution=attribution,
    )
    n = case.num_chiplets
    window = spec.window_cycles
    metrics: Dict[str, float] = {
        "offered_rate": sim.packets / (n * window) if window else 0.0,
        "injected_packets": float(sim.packets),
        "contended_fraction": (
            sim.contended_packets / sim.packets if sim.packets else 0.0
        ),
        "sim_epochs": float(sim.epochs),
    }
    if attribution:
        from ..net.journey import latency_breakdown

        breakdown = latency_breakdown(sim, topo)
        metrics.update({
            f"attr_{name}_cycles": float(total)
            for name, total in breakdown.totals().items()
        })
        # ndarray values are routed into SweepResult.arrays (and the
        # store's npz payload) by _evaluate_one.
        metrics.update(breakdown.arrays())
    if sim.packets == 0:
        metrics.update(
            makespan_cycles=0.0, drain_cycles=0.0,
            steady_packets=0.0, steady_mean_latency=0.0,
            steady_max_latency=0.0, steady_throughput=0.0,
        )
        return metrics
    makespan = int(sim.completion.max())
    steady = sim.inject >= spec.warmup_cycles
    steady_n = int(steady.sum())
    steady_lat = sim.latency[steady]
    metrics.update(
        makespan_cycles=float(makespan),
        drain_cycles=float(max(0, makespan - window)),
        steady_packets=float(steady_n),
        steady_mean_latency=(
            float(steady_lat.mean()) if steady_n else 0.0
        ),
        steady_max_latency=(
            float(steady_lat.max()) if steady_n else 0.0
        ),
        # Accepted steady-state throughput in packets/node/cycle: the
        # steady packets delivered over the span they occupied the
        # network.  Tracks offered rate below saturation and flattens
        # at the saturation point.
        steady_throughput=(
            steady_n / (n * (makespan - spec.warmup_cycles))
            if makespan > spec.warmup_cycles else 0.0
        ),
    )
    return metrics


# ---------------------------------------------------------------------------
# saturation-throughput ramps (closed-loop flow control)


@dataclass(frozen=True)
class SaturationSpec:
    """One saturation scenario: an injection-rate ramp on one pattern.

    The workload-string form is ``pattern@MIN-MAX/STEPS`` with the same
    optional ``:wWARMUP+MEASURE`` suffix as load sweeps, e.g.
    ``"uniform@0.02-0.3/8:w64+256"``.  Flow-control knobs ride the
    ``NoIParams`` fields (``fc_buffer_flits`` & co.) via the sweep
    case's ``noi_overrides``, so closed-loop and open-loop ramps hash
    to distinct store keys automatically.
    """

    pattern: str
    min_rate: float
    max_rate: float
    steps: int
    warmup_cycles: int = LOAD_SWEEP_WARMUP_CYCLES
    measure_cycles: int = LOAD_SWEEP_MEASURE_CYCLES

    def rates(self) -> np.ndarray:
        """The offered injection-rate grid, ascending."""
        return np.linspace(self.min_rate, self.max_rate, self.steps)

    def load_spec(self, rate: float) -> LoadSweepSpec:
        """The single-rate :class:`LoadSweepSpec` of one ramp point."""
        return LoadSweepSpec(
            pattern=self.pattern,
            injection_rate=float(rate),
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
        )

    @property
    def workload(self) -> str:
        """The :class:`~repro.eval.sweeps.SweepCase` workload string."""
        return (
            f"{self.pattern}@{self.min_rate:g}-{self.max_rate:g}"
            f"/{self.steps}:w{self.warmup_cycles}+{self.measure_cycles}"
        )


def parse_saturation_workload(workload: str) -> SaturationSpec:
    """Parse a ``pattern@MIN-MAX/STEPS[:wWARMUP+MEASURE]`` ramp string."""
    spec, _, window = workload.partition(":")
    pattern, sep, ramp = spec.partition("@")
    span, slash, steps_text = ramp.partition("/")
    lo_text, dash, hi_text = span.partition("-")
    if not (sep and pattern and slash and dash and lo_text and hi_text):
        raise ValueError(
            f"saturation workload {workload!r} is not "
            "'pattern@MIN-MAX/STEPS[:wWARMUP+MEASURE]'"
        )
    try:
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise ValueError(
            f"saturation workload {workload!r}: bad rate span "
            f"{span!r}"
        ) from None
    if not steps_text.isdigit() or int(steps_text) < 2:
        raise ValueError(
            f"saturation workload {workload!r}: STEPS must be an "
            f"integer >= 2, got {steps_text!r}"
        )
    if not 0.0 < lo < hi <= 1.0:
        raise ValueError(
            f"saturation workload {workload!r}: rates must satisfy "
            f"0 < MIN < MAX <= 1, got {lo}..{hi}"
        )
    warmup = LOAD_SWEEP_WARMUP_CYCLES
    measure = LOAD_SWEEP_MEASURE_CYCLES
    if window:
        warmup, measure = _parse_window_suffix(
            workload, window, family="saturation workload"
        )
    return SaturationSpec(
        pattern=pattern,
        min_rate=lo,
        max_rate=hi,
        steps=int(steps_text),
        warmup_cycles=warmup,
        measure_cycles=measure,
    )


def saturation_knee(
    offered: np.ndarray,
    accepted: np.ndarray,
    *,
    tolerance: float = 0.1,
) -> Tuple[float, float]:
    """Locate the saturation knee of an accepted-throughput curve.

    Returns ``(knee_rate, saturation_throughput)``: the smallest
    offered rate at which accepted throughput falls more than
    ``tolerance`` below offered (the network stops keeping up), and the
    peak accepted throughput over the ramp.  When the ramp never
    saturates, the knee is the last offered rate.
    """
    offered = np.asarray(offered, dtype=np.float64)
    accepted = np.asarray(accepted, dtype=np.float64)
    if offered.shape != accepted.shape or offered.size == 0:
        raise ValueError("offered/accepted must be equal-length, non-empty")
    saturated = accepted < (1.0 - tolerance) * offered
    knee_index = (
        int(np.argmax(saturated)) if saturated.any()
        else int(offered.size - 1)
    )
    return float(offered[knee_index]), float(accepted.max())


def evaluate_saturation_case(case) -> Dict[str, object]:
    """Saturation-ramp metrics for one (arch, size, ramp) case.

    Runs the packet simulator once per ramp point with telemetry on and
    the case's flow-control knobs (``fc_*`` fields through
    ``noi_overrides``) applied, then locates the knee where accepted
    throughput stops tracking offered load.  Scalar metrics summarise
    the knee; per-rate curves (offered/accepted/latency/utilisation)
    ride the array channel into the store's ``.npz`` payloads, which is
    what ``benchmarks/bench_saturation.py`` plots.
    """
    from ..net.simulator import simulate_packets
    from .sweeps import case_topology

    spec = parse_saturation_workload(case.workload)
    topo = case_topology(case)
    n = case.num_chiplets
    offered = []
    accepted = []
    latency = []
    util_mean = []
    util_max = []
    credit_stalls = []
    for rate in spec.rates():
        load = spec.load_spec(rate)
        table = load_sweep_traffic(load, n, case.seed)
        sim = simulate_packets(topo, table, engine=topo.params.sim_engine,
                               telemetry=True)
        window = load.window_cycles
        offered.append(sim.packets / (n * window) if window else 0.0)
        if sim.packets == 0:
            accepted.append(0.0)
            latency.append(0.0)
            util_mean.append(0.0)
            util_max.append(0.0)
            credit_stalls.append(0.0)
            continue
        # Accepted throughput: deliveries inside the measurement window
        # per node-cycle.  Tracks offered load below the knee and
        # plateaus at network capacity past it (the closed loop never
        # drops packets; the excess just completes after the window).
        window_end = load.warmup_cycles + load.measure_cycles
        in_window = (
            (sim.completion >= load.warmup_cycles)
            & (sim.completion < window_end)
        )
        accepted.append(
            float(in_window.sum()) / (n * load.measure_cycles)
        )
        steady = sim.inject >= load.warmup_cycles
        steady_count = int(steady.sum())
        latency.append(
            float(sim.latency[steady].mean()) if steady_count else 0.0
        )
        utilization = sim.telemetry.utilization()
        util_mean.append(float(utilization.mean()))
        util_max.append(float(utilization.max()))
        credit_stalls.append(
            float(sim.telemetry.credit_stall_cycles.sum())
        )
    offered_arr = np.array(offered)
    accepted_arr = np.array(accepted)
    knee_rate, sat_throughput = saturation_knee(offered_arr, accepted_arr)
    return {
        "knee_rate": knee_rate,
        "saturation_throughput": sat_throughput,
        "peak_offered": float(offered_arr[-1]),
        "accepted_at_peak": float(accepted_arr[-1]),
        "peak_steady_latency": float(np.max(latency)),
        "peak_link_utilization": float(np.max(util_max)),
        "total_credit_stall_cycles": float(np.sum(credit_stalls)),
        "offered_rates": offered_arr,
        "accepted_throughput": accepted_arr,
        "steady_mean_latency": np.array(latency),
        "link_utilization_mean": np.array(util_mean),
        "link_utilization_max": np.array(util_max),
    }


def evaluate_sim_crosscheck_case(case) -> Dict[str, float]:
    """Analytic-vs-simulator cross-check metrics for one architecture.

    The disjoint chain traffic pattern (``i -> i+1`` transfers on even
    ``i``) from ``benchmarks/bench_sim_crosscheck.py``: the analytic
    serial latency must be a sound lower bound of -- and close to --
    the simulated completion total.  Module-level and derived entirely
    from the case so simulator runs cache in a
    :class:`~repro.eval.store.ResultStore` and sweeps are resumable.
    """
    from ..net.simulator import simulate_transfers
    from ..net.vectorized import communication_cost_vec
    from .sweeps import case_topology

    topo = case_topology(case)
    transfers = [
        (i, i + 1, 512) for i in range(0, case.num_chiplets - 2, 2)
    ]
    analytic = communication_cost_vec(topo, transfers)
    sim = simulate_transfers(topo, transfers,
                             engine=topo.params.sim_engine)
    return {
        "analytic_total_cycles": float(analytic.serial_latency_cycles),
        "sim_total_cycles": float(sum(sim.message_completion.values())),
        "sim_mean_packet_latency": sim.mean_packet_latency,
        "sim_max_packet_latency": float(sim.max_packet_latency),
        "packets_delivered": float(sim.packets_delivered),
        "batched_packets": float(sim.batched_packets),
    }


# ---------------------------------------------------------------------------
# Eq. (1) ablation: head/tail placement optimisation


@dataclass(frozen=True)
class Eq1Row:
    petals: int
    optimized_d: float
    unoptimized_d: float

    @property
    def improvement(self) -> float:
        if self.optimized_d == 0:
            return 1.0
        return self.unoptimized_d / self.optimized_d


def exp_eq1_headtail(
    cols: int = 10, rows: int = 10,
    petal_counts: Sequence[int] = (2, 4, 5, 6, 10),
) -> List[Eq1Row]:
    """Eq. (1): the head/tail orientation optimiser's effect on d."""
    out = []
    for petals in petal_counts:
        optimized = build_floret_curve(cols, rows, petals, optimize=True)
        unoptimized = build_floret_curve(cols, rows, petals, optimize=False)
        out.append(
            Eq1Row(
                petals=petals,
                optimized_d=optimized.eq1_distance,
                unoptimized_d=unoptimized.eq1_distance,
            )
        )
    return out

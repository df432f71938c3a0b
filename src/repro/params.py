"""Central hardware parameters shared by all models.

Every physical constant used by the latency/energy/area/thermal models
lives here so that calibration is a single-file affair.  Values are
representative of a 32 nm-class interposer NoI + ReRAM PIM chiplet stack
(SIAM [11] / SWAP [2] lineage); the paper's comparisons are *relative*
between NoI architectures, so consistent constants matter more than
absolute process accuracy.

Unit conventions (repo-wide):

* time: clock cycles at ``clock_ghz`` (1 cycle = 1 ns at 1 GHz)
* energy: picojoules (pJ)
* length: millimetres (mm)
* area: square millimetres (mm^2)
* temperature: kelvin (K)
* power: watts (W)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class NoIParams:
    """Interconnect constants for the 2.5D NoI (and 3D NoC) models."""

    #: System clock in GHz; 1.0 => one cycle is one nanosecond.
    clock_ghz: float = 1.0

    #: Centre-to-centre chiplet pitch on the interposer.
    chiplet_pitch_mm: float = 3.0

    #: PE pitch inside a 3D stack (per-tier planar pitch).
    pe_pitch_mm: float = 1.0

    #: Router pipeline depth: cycles a head flit spends per router.
    router_pipeline_cycles: int = 2

    #: Wire reach per cycle on the interposer (repeated RC wire).
    mm_per_cycle: float = 3.0

    #: Flit width in bytes (link width).
    flit_bytes: int = 32

    #: Packet payload in bytes (one packet = packet_bytes / flit_bytes
    #: flits); the unit of the average-packet-latency metric (Fig. 3).
    packet_bytes: int = 64

    #: Routers with at least this many ports pay one extra pipeline
    #: stage (larger crossbar + arbitration), which is how Kite's 4-port
    #: and a mesh's interior routers cost more per hop than Floret's
    #: 2-port chain routers.
    router_extra_stage_ports: int = 4

    #: Router crossbar+buffer energy per flit, per port of the router.
    router_energy_pj_per_flit_port: float = 0.35

    #: Link wire energy per flit per millimetre.
    link_energy_pj_per_flit_mm: float = 0.45

    #: Router area model: ``area = router_area_coeff * ports^2`` (crossbar
    #: dominated).
    router_area_coeff_mm2: float = 0.5

    #: Interposer routing-channel area per mm of link (wires + spacing +
    #: microbump overhead for one link).
    link_area_mm2_per_mm: float = 0.15

    #: Vertical (MIV/TSV) hop delay in cycles for 3D stacks.
    vertical_hop_cycles: int = 1

    #: Vertical hop energy per flit (MIVs are tiny).
    vertical_energy_pj_per_flit: float = 0.05

    #: Closed-loop flow control (packet simulator): downstream
    #: input-buffer capacity per directed link, in flits.  ``None`` =
    #: infinite buffers; with ``fc_source_queue`` also ``None`` that is
    #: open loop, which the simulator resolves as flow control with
    #: infinite buffers (same engines, same packet-id tie rule).
    fc_buffer_flits: "int | None" = None

    #: Closed-loop flow control: packets a source may have waiting to
    #: start their first link before the generator defers injection.
    #: ``None`` = unbounded (injection on schedule).
    fc_source_queue: "int | None" = None

    #: Cycles for a freed buffer credit to travel back upstream
    #: (credit round-trip).  Only consulted when flow control is
    #: active; must be >= 1.
    fc_credit_rtt: int = 2

    #: Packet-simulator engine tier the experiment evaluators (load
    #: sweeps, saturation ramps, sim crosschecks) pass through to
    #: :func:`repro.net.simulator.simulate_packets` -- one of
    #: ``repro.net.simulator.ENGINES``.  ``"auto"`` picks the heap for
    #: small contended subsets and ``"epochs"`` otherwise; pin
    #: ``"events"`` to force an oracle run, e.g. as a sweep override
    #: when validating the fast tier.
    sim_engine: str = "auto"

    #: Packet-simulator latency attribution: when truthy, experiment
    #: evaluators pass ``attribution=True`` to
    #: :func:`repro.net.simulator.simulate_packets`, reduce the grant
    #: trace with :func:`repro.net.journey.latency_breakdown`, and ship
    #: the per-component/per-link arrays through the sweep result's
    #: npz payload.  Off by default (the trace costs memory
    #: proportional to total hops).  Sweep overrides arrive as floats;
    #: consumers coerce with ``bool(...)``.
    sim_attribution: bool = False

    def flow_control(self):
        """Materialise the ``fc_*`` knobs as a ``FlowControlParams``.

        Sweep overrides arrive as floats, so integral values are
        coerced back to ints here.  Imported lazily to keep
        :mod:`repro.params` free of package-internal dependencies.
        """
        from .net.flowcontrol import FlowControlParams

        def as_int(value):
            return None if value is None else int(value)

        return FlowControlParams(
            buffer_flits=as_int(self.fc_buffer_flits),
            source_queue=as_int(self.fc_source_queue),
            credit_rtt=int(self.fc_credit_rtt),
        )

    def router_stage_cycles(self, ports: int) -> int:
        """Pipeline depth of a router with ``ports`` network ports."""
        extra = 1 if ports >= self.router_extra_stage_ports else 0
        return self.router_pipeline_cycles + extra

    @property
    def flits_per_packet(self) -> int:
        return -(-self.packet_bytes // self.flit_bytes)

    def link_delay_cycles(self, length_mm: float) -> int:
        """Cycles for a flit to traverse a link of ``length_mm``."""
        if length_mm < 0:
            raise ValueError(f"negative link length {length_mm}")
        if length_mm == 0:
            return 0
        return max(1, math.ceil(length_mm / self.mm_per_cycle))

    def router_area_mm2(self, ports: int) -> float:
        """Router silicon area as a function of port count."""
        if ports < 0:
            raise ValueError(f"negative port count {ports}")
        return self.router_area_coeff_mm2 * ports * ports

    def link_area_mm2(self, length_mm: float) -> float:
        """Interposer routing area consumed by one link."""
        return self.link_area_mm2_per_mm * length_mm


@dataclass(frozen=True)
class PIMParams:
    """ReRAM PIM chiplet constants (SIAM-style)."""

    #: Crossbar dimension (rows = cols).
    crossbar_size: int = 128

    #: ReRAM cell precision in bits.
    bits_per_cell: int = 2

    #: Weight precision in bits.
    weight_bits: int = 8

    #: Activation precision in bits (on-NoI payloads use this too).
    activation_bits: int = 8

    #: Crossbars (ReRAM arrays) per IMC tile.
    crossbars_per_tile: int = 16

    #: IMC tiles per chiplet.  Sized so the largest Table I workload
    #: (VGG-19/ImageNet, 143.7M weights) fits inside the paper's
    #: 100-chiplet system with headroom (69 chiplets at 2M weights each).
    tiles_per_chiplet: int = 32

    #: Cycles for one full-array analog MVM incl. ADC readout.
    mvm_latency_cycles: int = 100

    #: Energy of one full-array MVM in pJ (array + DAC/ADC + S&H).
    mvm_energy_pj: float = 180.0

    #: Static (leakage + peripheral idle) power per chiplet, W.
    chiplet_static_power_w: float = 0.08

    @property
    def cells_per_weight(self) -> int:
        """ReRAM cells needed to store one weight (bit slicing)."""
        return -(-self.weight_bits // self.bits_per_cell)

    @property
    def weights_per_crossbar(self) -> int:
        """Weights storable in one crossbar (column-sliced)."""
        cells = self.crossbar_size * self.crossbar_size
        return cells // self.cells_per_weight

    @property
    def chiplet_weight_capacity(self) -> int:
        """Weights storable on one chiplet."""
        return (
            self.weights_per_crossbar
            * self.crossbars_per_tile
            * self.tiles_per_chiplet
        )


@dataclass(frozen=True)
class ThermalParams:
    """Coarse finite-difference thermal model constants for the 3D stack."""

    #: Ambient / heat-sink temperature.
    ambient_k: float = 300.0

    #: Lateral thermal conductance between adjacent PEs on a tier, W/K.
    lateral_conductance_w_per_k: float = 0.002

    #: Vertical conductance between vertically adjacent PEs (thin ILD,
    #: M3D), W/K.  Much larger than lateral per the paper's Section I.
    vertical_conductance_w_per_k: float = 0.015

    #: Conductance from each top-tier PE to the heat sink, W/K.
    sink_conductance_w_per_k: float = 0.03

    #: ReRAM conductance-window knee: above this temperature the
    #: G_on/G_off window shrinks exponentially [20].
    window_knee_k: float = 330.0

    #: Exponential shrink rate of the conductance window per K above knee.
    window_shrink_per_k: float = 0.028


@dataclass(frozen=True)
class CostParams:
    """Fabrication-cost model constants (paper Eq. (2)-(5))."""

    #: Wafer defect density, defects per mm^2.
    defect_density_per_mm2: float = 0.0015

    #: Reference 2.5D system: AMD 864 mm^2 interposer, 64 chiplets [1].
    reference_interposer_area_mm2: float = 864.0
    reference_chiplets: int = 64

    #: NoI share of total 2.5D system area (paper: up to 85%).
    noi_area_fraction: float = 0.85

    @property
    def reference_noi_area_mm2(self) -> float:
        return self.reference_interposer_area_mm2 * self.noi_area_fraction


@dataclass(frozen=True)
class SystemParams:
    """Bundle of all hardware parameter groups."""

    noi: NoIParams = field(default_factory=NoIParams)
    pim: PIMParams = field(default_factory=PIMParams)
    thermal: ThermalParams = field(default_factory=ThermalParams)
    cost: CostParams = field(default_factory=CostParams)

    def with_noi(self, **kwargs) -> "SystemParams":
        """Copy with NoI fields overridden (calibration helper)."""
        return replace(self, noi=replace(self.noi, **kwargs))

    def with_pim(self, **kwargs) -> "SystemParams":
        return replace(self, pim=replace(self.pim, **kwargs))

    def with_thermal(self, **kwargs) -> "SystemParams":
        return replace(self, thermal=replace(self.thermal, **kwargs))

    def with_cost(self, **kwargs) -> "SystemParams":
        return replace(self, cost=replace(self.cost, **kwargs))


DEFAULT_PARAMS = SystemParams()

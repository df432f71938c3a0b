"""Extension experiments beyond the paper's figures.

These probe claims the paper makes in prose (scalability with system
size, inherent redundancy of multiple SFCs, heterogeneous transformer
acceleration) and design choices DESIGN.md calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.floret import build_floret
from ..core.hetero import HeteroParams, HeteroReport, compare_systems
from ..core.scheduler import SystemScheduler
from ..noi.topology import Link, Topology, reachable
from ..workloads.tasks import mix_by_name
from ..workloads.transformer import BERT_BASE, BERT_TINY, TransformerConfig
from .experiments import floret_design, mapper_for, topology_for


# ---------------------------------------------------------------------------
# scaling with system size


@dataclass(frozen=True)
class ScalingRow:
    """One (system size, architecture) evaluation."""

    num_chiplets: int
    arch: str
    packet_latency: float
    noi_energy_pj: float
    utilization: float


def exp_scaling(
    sizes: Sequence[int] = (81, 100, 121, 144),
    mix_name: str = "WL5",
) -> List[ScalingRow]:
    """Latency/energy vs system size for Floret, mesh and Kite.

    The paper argues multi-hop NoIs "do not scale with more chiplets";
    here the mesh/torus latency penalty relative to Floret should not
    shrink as the system grows.
    """
    tasks = mix_by_name(mix_name).tasks()
    rows: List[ScalingRow] = []
    for size in sizes:
        for arch in ("floret", "siam", "kite"):
            result = SystemScheduler(
                topology_for(arch, size), mapper_for(arch, size)
            ).run(tasks)
            rows.append(
                ScalingRow(
                    num_chiplets=size,
                    arch=arch,
                    packet_latency=result.mean_packet_latency,
                    noi_energy_pj=result.total_noi_energy_pj,
                    utilization=result.utilization,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# redundancy of multiple SFCs


@dataclass(frozen=True)
class RedundancyRow:
    """Single-link-failure tolerance of one design."""

    label: str
    num_links: int
    disconnecting_links: int

    @property
    def survival_fraction(self) -> float:
        """Fraction of single-link cuts the NoI survives connected."""
        if self.num_links == 0:
            return 1.0
        return 1.0 - self.disconnecting_links / self.num_links


def _count_disconnecting_links(topology: Topology) -> int:
    """Number of bridges (links whose loss disconnects the graph)."""
    def without(cut: Link) -> List[List[int]]:
        return [[v for v, link in nbrs.items() if link is not cut]
                for nbrs in topology.adj]

    return sum(link.v not in reachable(without(link), link.u)
               for link in topology.links)


def exp_redundancy(num_chiplets: int = 100) -> List[RedundancyRow]:
    """Paper claim: multiple SFCs add inherent redundancy vs one SFC.

    Counts bridge links (single points of failure) in a monolithic
    1-petal curve, the 6-petal Floret, and the mesh baseline.
    """
    from ..core.sfc import single_sfc_curve
    from ..noi.topology import grid_dimensions

    cols, rows = grid_dimensions(num_chiplets)
    designs = [
        ("floret-1sfc", build_floret(
            num_chiplets, curve=single_sfc_curve(cols, rows))),
        ("floret-6sfc", floret_design(num_chiplets)),
    ]
    out: List[RedundancyRow] = []
    for label, design in designs:
        topology = design.topology
        out.append(
            RedundancyRow(
                label=label,
                num_links=topology.num_links,
                disconnecting_links=_count_disconnecting_links(topology),
            )
        )
    mesh = topology_for("siam", num_chiplets)
    out.append(
        RedundancyRow(
            label="siam",
            num_links=mesh.num_links,
            disconnecting_links=_count_disconnecting_links(mesh),
        )
    )
    return out


# ---------------------------------------------------------------------------
# heterogeneous transformer acceleration (Section IV quantified)


@dataclass(frozen=True)
class HeteroRow:
    config_name: str
    pim_only: HeteroReport
    heterogeneous: HeteroReport

    @property
    def speedup(self) -> float:
        """Heterogeneous speedup over PIM-only (latency)."""
        if self.heterogeneous.latency_cycles == 0:
            return float("inf")
        return self.pim_only.latency_cycles / self.heterogeneous.latency_cycles

    @property
    def energy_ratio(self) -> float:
        """PIM-only energy as a multiple of heterogeneous."""
        if self.heterogeneous.total_energy_pj == 0:
            return float("inf")
        return (
            self.pim_only.total_energy_pj
            / self.heterogeneous.total_energy_pj
        )


def exp_hetero_transformer(
    configs: Sequence[TransformerConfig] = (BERT_TINY, BERT_BASE),
    params: Optional[HeteroParams] = None,
) -> List[HeteroRow]:
    """Quantify Section IV: PIM-only vs heterogeneous encoder stacks."""
    rows = []
    for cfg in configs:
        reports = compare_systems(cfg, params=params)
        rows.append(
            HeteroRow(
                config_name=cfg.name,
                pim_only=reports["pim-only"],
                heterogeneous=reports["heterogeneous"],
            )
        )
    return rows

"""Steady-state finite-difference thermal solver for 3D PE stacks.

One thermal node per PE.  Conductances: lateral between planar
neighbours, vertical between stacked neighbours (much larger -- thin ILD,
M3D), and from every top-tier PE to the heat sink at ambient.  Solving

    G . T = P + G_sink . T_ambient

for the steady-state temperature vector is a sparse linear system; the
conductance matrix depends only on the grid, so its LU factorisation is
computed once per :class:`ThermalModel` and reused across the hundreds
of mapping evaluations the MOO performs.

This substitutes for the commercial thermal flow the paper used; the
ordering of mappings by peak temperature -- which is what the MOO and
Figs. 6(b)/7 need -- is governed by where power sits relative to the
sink, which the coarse FD model captures (DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..noc3d.grid3d import Grid3D
from ..params import ThermalParams

if TYPE_CHECKING:  # scipy loads on first use, not on import
    from scipy.sparse import lil_matrix


@dataclass(frozen=True)
class ThermalReport:
    """Solved temperature field for one power assignment."""

    temperatures_k: np.ndarray
    ambient_k: float

    @property
    def peak_k(self) -> float:
        return float(self.temperatures_k.max())

    @property
    def mean_k(self) -> float:
        return float(self.temperatures_k.mean())

    def tier_map(self, grid: Grid3D, tier: int) -> np.ndarray:
        """Temperature map of one tier as a (rows, cols) array."""
        per_tier = grid.cols * grid.rows
        start = tier * per_tier
        return self.temperatures_k[start:start + per_tier].reshape(
            grid.rows, grid.cols
        )

    def hotspot_count(self, threshold_k: float) -> int:
        """PEs hotter than ``threshold_k``."""
        return int((self.temperatures_k > threshold_k).sum())


class ThermalModel:
    """Reusable thermal solver for one 3D grid.

    Args:
        grid: Stack shape; the heat sink sits above tier ``tiers - 1``.
        params: Conductance constants.
    """

    def __init__(self, grid: Grid3D, params: Optional[ThermalParams] = None):
        self.grid = grid
        self.params = params or ThermalParams()
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        self._lu = splu(csc_matrix(self._conductance_matrix()))

    def _conductance_matrix(self) -> lil_matrix:
        from scipy.sparse import lil_matrix

        grid = self.grid
        p = self.params
        n = grid.num_pes
        g = lil_matrix((n, n))

        def couple(i: int, j: int, conductance: float) -> None:
            g[i, i] += conductance
            g[j, j] += conductance
            g[i, j] -= conductance
            g[j, i] -= conductance

        for i in range(n):
            x, y, z = grid.coords(i)
            if x + 1 < grid.cols:
                couple(i, grid.index(x + 1, y, z),
                       p.lateral_conductance_w_per_k)
            if y + 1 < grid.rows:
                couple(i, grid.index(x, y + 1, z),
                       p.lateral_conductance_w_per_k)
            if z + 1 < grid.tiers:
                couple(i, grid.index(x, y, z + 1),
                       p.vertical_conductance_w_per_k)
            if z == grid.tiers - 1:
                g[i, i] += p.sink_conductance_w_per_k
        return g

    def solve(self, power_w: Sequence[float]) -> ThermalReport:
        """Steady-state temperatures for a per-PE power vector (watts).

        Raises:
            ValueError: On length mismatch or negative power.
        """
        power = np.asarray(power_w, dtype=float)
        if power.shape != (self.grid.num_pes,):
            raise ValueError(
                f"power vector has shape {power.shape}, expected "
                f"({self.grid.num_pes},)"
            )
        if (power < 0).any():
            raise ValueError("negative PE power")
        p = self.params
        rhs = power.copy()
        # Sink boundary: top-tier nodes exchange with ambient.
        per_tier = self.grid.cols * self.grid.rows
        top = slice((self.grid.tiers - 1) * per_tier, self.grid.num_pes)
        rhs[top] += p.sink_conductance_w_per_k * p.ambient_k
        temps = self._lu.solve(rhs)
        return ThermalReport(temperatures_k=temps, ambient_k=p.ambient_k)

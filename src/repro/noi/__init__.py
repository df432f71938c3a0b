"""NoI topology substrate: meshes, tori, small-world and SFC networks."""

from .kite import build_butter_donut, build_double_butterfly, build_kite
from .mesh import build_cmesh, build_mesh
from .properties import TopologySummary, compare, summarize
from .swap import SwapSynthesisConfig, build_swap, design_time_traffic
from .topology import (
    Chiplet,
    Link,
    NoPathError,
    Topology,
    grid_chiplets,
    grid_dimensions,
)

__all__ = [
    "Chiplet",
    "Link",
    "NoPathError",
    "SwapSynthesisConfig",
    "Topology",
    "TopologySummary",
    "build_butter_donut",
    "build_cmesh",
    "build_double_butterfly",
    "build_kite",
    "build_mesh",
    "build_swap",
    "compare",
    "design_time_traffic",
    "grid_chiplets",
    "grid_dimensions",
    "summarize",
]

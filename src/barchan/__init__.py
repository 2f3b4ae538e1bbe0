"""Gradient-constrained diffusion-transport solver for traveling sand dunes.

Avalanche dynamics are an L2-projection flow onto the slope-constrained
cone; wind transport is a nonlocal upwind flux.

Importing the package loads numpy and no scipy.  scipy is imported on
one path only: the first Newton solve on a 2D grid (``project`` of a
field outside the cone, or the polish of a stalled ``project_pdhg``)
loads ``scipy.linalg`` for its banded Cholesky.
"""

from .constitutive import GammaProfile, HProfile, gamma_eval, h_eval, lipschitz_bound
from .grid import Grid, HeightField, admissible, dist_to_boundary, make_grid
from .kernels import DiscreteKernel, build_kernel, nonlocal_slope
from .projection import (
    MultiplierField,
    NonConvergedError,
    ProjectionResult,
    project,
    project_pdhg,
    resolvent_step,
)

__all__ = [
    "Grid",
    "HeightField",
    "MultiplierField",
    "HProfile",
    "GammaProfile",
    "DiscreteKernel",
    "ProjectionResult",
    "NonConvergedError",
    "make_grid",
    "dist_to_boundary",
    "admissible",
    "h_eval",
    "gamma_eval",
    "lipschitz_bound",
    "build_kernel",
    "nonlocal_slope",
    "project",
    "project_pdhg",
    "resolvent_step",
]

__version__ = "0.1.0"

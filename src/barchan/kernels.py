"""Discrete convolution kernels and the nonlocal slope average they drive.

The wind velocity responds to ``K * du/dx``, the unit-mass kernel average
of the windward slope over a ball of physical radius ``r``.  Kernels act
along the x axis only (the wind direction); in 2D the same stencil is
applied row-wise.  Fields are extended by zero outside the domain, which
is the convention consistent with the Dirichlet boundary.  The stencil is a
few cells wide, so the average is a direct sum, exact up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import HeightField, axis_edges, edge_slopes

KERNEL_PROFILES = ("triangle", "cosine_bump", "box")

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteKernel:
    """Odd-length, symmetric, nonnegative stencil with unit mass.

    ``sum(weights) * spacing == 1`` to 1e-12, and the support lies inside
    ``[-radius, radius]``.
    """

    profile: str
    radius: float
    spacing: float
    weights: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size % 2 != 1:
            raise ValueError("kernel weights must be a 1D odd-length stencil")
        if np.any(w < 0.0):
            raise ValueError("kernel weights must be nonnegative")
        if not np.allclose(w, w[::-1], rtol=0.0, atol=1e-12 * max(1.0, w.max())):
            raise ValueError("kernel weights must be symmetric")
        mass = float(w.sum() * self.spacing)
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"kernel mass {mass} != 1")
        half = (w.size - 1) // 2
        if half * self.spacing >= self.radius + 1e-12 * self.radius:
            raise ValueError("kernel support exceeds its radius")

    @property
    def half_width(self) -> int:
        return (self.weights.size - 1) // 2

    def deriv_l1(self) -> float:
        """Discrete total variation, approximating ``integral |dK/dx| dx``."""
        padded = np.concatenate([[0.0], self.weights, [0.0]])
        return float(np.abs(np.diff(padded)).sum())

    def second_deriv_l1(self) -> float:
        """Approximates ``integral |d2K/dx2| dx``."""
        padded = np.concatenate([[0.0, 0.0], self.weights, [0.0, 0.0]])
        return float(np.abs(np.diff(padded, n=2)).sum() / self.spacing)


def _profile_values(profile: str, x: np.ndarray, radius: float) -> np.ndarray:
    if profile == "box":
        return np.ones_like(x)
    if profile == "triangle":
        return 1.0 - np.abs(x) / radius
    return 0.5 * (1.0 + np.cos(math.pi * x / radius))  # cosine_bump


def build_kernel(profile: str, radius: float, dx: float) -> DiscreteKernel:
    """Sample a profile at grid offsets strictly inside (-radius, radius)
    and renormalize to unit mass.

    ``radius < dx`` is rejected.  A stencil that degenerates to a single
    point mass is allowed only for the box profile (width 1); the smooth
    profiles need at least one interior sample on each side.
    """
    if profile not in KERNEL_PROFILES:
        raise ValueError(f"unknown kernel profile {profile!r}")
    if not math.isfinite(radius):
        raise ValueError(f"kernel radius must be finite, got {radius}")
    if radius < dx - 1e-12 * dx:
        raise ValueError(
            f"kernel radius {radius} smaller than grid spacing {dx}; "
            "a point mass is available as the box profile with radius = dx"
        )
    half = int(math.ceil(radius / dx - 1e-12)) - 1
    if half == 0 and profile != "box":
        raise ValueError(
            f"{profile} kernel degenerates to a point mass at radius {radius}; "
            "use the box profile or a radius of at least 2 dx"
        )
    offsets = np.arange(-half, half + 1) * dx
    w = _profile_values(profile, offsets, radius)
    w = w / (w.sum() * dx)
    return DiscreteKernel(profile=profile, radius=radius, spacing=dx, weights=w)


def _convolve_rows(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Convolve along axis 0 with the stencil, keeping the 'full' output.

    The columns are laid end to end with ``w.size - 1`` zeros between them,
    so that one ``np.convolve`` call gives every column's full output, each
    in its own slot; a single column (1D) is convolved as it is.
    """
    if g.ndim == 1:
        return np.convolve(g, w, mode="full")
    n, pad = g.shape[0], w.size - 1
    seq = np.zeros((g.shape[1], n + pad))
    seq[:, :n] = g.T
    out = np.convolve(seq.ravel()[: seq.size - pad], w, mode="full")
    return out.reshape(seq.shape).T


def nonlocal_slope(field: HeightField, kernel: DiscreteKernel, slopes=None) -> np.ndarray:
    """Kernel average of the forward-difference x-slope, ``(K * du/dx)(x)``.

    The field is extended by zero outside the domain, so the slope samples
    include the differences crossing both boundaries: they are the x-axis
    edges (:func:`axis_edges` along axis 0) of the field's
    :func:`edge_slopes` lattice, which a caller that has it passes as
    ``slopes``.  The columns along x are convolved with the stencil by
    direct summation, in one ``np.convolve`` call.
    """
    grid = field.grid
    dx = grid.spacing[0]
    if not math.isclose(kernel.spacing, dx, rel_tol=1e-9, abs_tol=0.0):
        raise ValueError(
            f"kernel spacing {kernel.spacing} does not match grid spacing {dx}"
        )

    L = edge_slopes(grid, field.values) if slopes is None else slopes
    g = axis_edges(L, 0)  # offsets -1 .. n-1
    c = _convolve_rows(g, kernel.weights) * dx
    k = kernel.half_width
    n = grid.counts[0]
    # full convolution index m corresponds to node i = m - k - 1
    return c[k + 1 : k + 1 + n]

"""Rectangular grids of interior nodes and their discrete difference operators.

Height fields sample the open interior of an axis-aligned box; every
boundary node carries an implicit Dirichlet value of zero, so fields are
stored as plain arrays over interior nodes only.

``edge_slopes`` takes every nearest-neighbour difference of the
zero-extended field, one array per axis in every dimension, including the
differences that cross the boundary; bounding them makes the
slope-constrained set identical to the admissible cone.  It and its exact
adjoint ``edge_slopes_adjoint`` are the operator pair of the cone
projection, which reads and writes their per-axis arrays through one array
holding all axes (its dual lattice).  Each interior node hosts the
forward difference to its next neighbour on every axis (``hosted``); only
the first difference of an axis, which crosses the left/bottom boundary,
has no host.

Slope constraints come in two flavours, selected by ``mode``:

* ``"isotropic"``: Euclidean norm of each node's forward differences,
* ``"componentwise"``: each difference bounded separately.

The two coincide in 1D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

TOL_CONSTRAINT = 1e-8

CONSTRAINT_MODES = ("isotropic", "componentwise")


@dataclass(frozen=True)
class Grid:
    """Uniform grid over the interior nodes of a box, zero Dirichlet boundary.

    ``spacing[a] = extents[a] / (counts[a] + 1)``; nodes are strictly
    interior and the boundary nodes are implicit.
    """

    dim: int
    extents: tuple[float, ...]
    counts: tuple[int, ...]
    spacing: tuple[float, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def node_count(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def diameter(self) -> float:
        """Diameter of the box (diagonal length)."""
        return float(np.sqrt(sum(e * e for e in self.extents)))

    def coords(self, axis: int = 0) -> np.ndarray:
        """Coordinates of the interior nodes along one axis."""
        return (np.arange(self.counts[axis]) + 1.0) * self.spacing[axis]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*(self.coords(a) for a in range(self.dim)), indexing="ij"))


def make_grid(
    dim: int,
    extents: float | Sequence[float],
    counts: int | Sequence[int],
) -> Grid:
    """Build a validated grid.

    Parameters
    ----------
    dim : 1 or 2
    extents : physical side length per axis (meters), positive
    counts : interior node count per axis, at least 3

    Raises
    ------
    ValueError
        On unsupported dimension, non-positive extent or count < 3.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    ext = tuple(float(e) for e in np.atleast_1d(extents))
    cnt = tuple(int(c) for c in np.atleast_1d(counts))
    if len(ext) == 1:
        ext = ext * dim
    if len(cnt) == 1:
        cnt = cnt * dim
    if len(ext) != dim or len(cnt) != dim:
        raise ValueError(
            f"extents/counts must have one entry per axis, got {ext}, {cnt}"
        )
    for e in ext:
        if not (e > 0.0) or not np.isfinite(e):
            raise ValueError(f"extents must be positive, got {ext}")
    for c in cnt:
        if c < 3:
            raise ValueError(f"counts must be >= 3 on each axis, got {cnt}")
    spacing = tuple(e / (c + 1) for e, c in zip(ext, cnt))
    return Grid(dim=dim, extents=ext, counts=cnt, spacing=spacing)


@dataclass
class HeightField:
    """Heights (meters) at the interior nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("height field contains non-finite values")

    def copy(self) -> "HeightField":
        return HeightField(self.grid, self.values.copy())

    @classmethod
    def zeros(cls, grid: Grid) -> "HeightField":
        return cls(grid, np.zeros(grid.shape))


def dist_to_boundary(grid: Grid) -> np.ndarray:
    """Euclidean distance from every interior node to the box boundary.

    For an axis-aligned rectangle this is the minimum of the per-axis
    wall distances.
    """
    per_axis = []
    for a in range(grid.dim):
        x = grid.coords(a)
        per_axis.append(np.minimum(x, grid.extents[a] - x))
    return reduce(np.minimum, np.meshgrid(*per_axis, indexing="ij", sparse=True))


def _along(axis: int, index) -> tuple:
    """Index applying ``index`` along ``axis`` and taking every other axis whole."""
    return (slice(None),) * axis + (index,)


# Per-axis index tuples, built once (grids have one or two axes).
_HEAD = tuple(_along(a, slice(None, -1)) for a in range(2))
_TAIL = tuple(_along(a, slice(1, None)) for a in range(2))
_LAST = tuple(_along(a, -1) for a in range(2))


def edge_slopes(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """All nearest-neighbour slopes of the zero-extended field, per axis.

    Axis ``a`` gets ``counts[a] + 1`` differences along it, including the
    two that cross the boundary, so bounding every entry by ``lam`` is
    equivalent to membership in the admissible cone.  Returns a 1-tuple in
    1D and ``(ex, ey)`` of shapes ``(nx + 1, ny)`` and ``(nx, ny + 1)`` in 2D.
    """
    out = []
    for a, h in enumerate(grid.spacing):
        shape = list(values.shape)
        shape[a] += 1
        # Filled in place: far cheaper than padding and np.diff on small grids.
        e = np.empty(shape)
        e[_HEAD[a]] = values
        e[_LAST[a]] = 0.0
        e[_TAIL[a]] -= values
        e /= h
        out.append(e)
    return tuple(out)


def edge_slopes_adjoint(grid: Grid, q: tuple[np.ndarray, ...]) -> np.ndarray:
    """Exact adjoint of :func:`edge_slopes` in the Euclidean inner product."""
    out = None
    for a, (qa, h) in enumerate(zip(q, grid.spacing)):
        d = (qa[_HEAD[a]] - qa[_TAIL[a]]) / h
        out = d if out is None else out + d
    return out


def hosted(q: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The edge entries hosted by interior nodes: per axis, the difference
    from each node to its next neighbour (the forward difference).  The
    first edge of each axis crosses the left/bottom boundary and has no
    host.  The results are views."""
    return tuple([qa[_TAIL[a]] for a, qa in enumerate(q)])


def paired(grid: Grid, mode: str) -> bool:
    """Whether a node's forward differences are bounded together, by their
    Euclidean norm (isotropic mode in 2D), rather than one by one
    (componentwise mode, and 1D, where the two modes coincide)."""
    return mode == "isotropic" and grid.dim > 1


def node_slope_magnitude(field: HeightField, mode: str = "isotropic", slopes=None) -> np.ndarray:
    """Per-node magnitude of the forward differences under the given norm;
    ``slopes`` are the field's :func:`edge_slopes` if the caller has them."""
    if mode not in CONSTRAINT_MODES:
        raise ValueError(f"unknown constraint mode {mode!r}")
    g = hosted(slopes if slopes is not None else edge_slopes(field.grid, field.values))
    if paired(field.grid, mode):
        return np.sqrt(reduce(np.add, [d * d for d in g]))
    return reduce(np.maximum, [np.abs(d) for d in g])


def max_slope(field: HeightField, mode: str = "isotropic", slopes=None) -> float:
    return float(node_slope_magnitude(field, mode, slopes).max())


def admissible(
    field: HeightField,
    lam: float,
    mode: str = "isotropic",
    tol: float = TOL_CONSTRAINT,
) -> bool:
    """Membership test for the lam-Lipschitz cone with zero boundary values.

    Checks both the per-node slope bound and the distance cone bound
    ``|u(x)| <= lam * dist(x, boundary)``; the latter covers the slopes
    crossing the left/bottom boundary that the per-node gradient does not
    see.
    """
    if max_slope(field, mode) > lam + tol:
        return False
    bound = lam * dist_to_boundary(field.grid)
    return bool(np.all(np.abs(field.values) <= bound + tol))


def integrate(grid: Grid, a: np.ndarray) -> float:
    """The nodal quadrature ``sum(a) * cell_volume`` of a field's values."""
    return float(a.sum()) * grid.cell_volume


def norm_l2(grid: Grid, a: np.ndarray) -> float:
    return math.sqrt(integrate(grid, a * a))

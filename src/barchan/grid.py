"""Rectangular grids of interior nodes and their discrete difference operators.

Height fields sample the open interior of an axis-aligned box; every
boundary node carries an implicit Dirichlet value of zero, so fields are
stored as plain arrays over interior nodes only.  A :class:`Grid` is given
the box's extents and node counts alone, which it checks, and derives its
dimension and spacing from them; height fields and multipliers share one
shape and finiteness check (:class:`_Field`).

``edge_slopes`` takes every nearest-neighbour difference of the
zero-extended field, including the differences that cross the boundary;
bounding them makes the slope-constrained set identical to the admissible
cone.  It returns them as one axis-first array, the lattice ``L`` of shape
``(dim, *(counts + 1))``: ``L[a][c]`` is the forward difference along axis
``a`` at node ``c`` of the field padded with zeros (Chambolle, JMIV 20,
2004).  The lattice is the package's one edge-slope format: the cone
projection keeps its duals on it, and ``edge_slopes_adjoint`` reads it.
Each interior node hosts the forward difference to its next neighbour on
every axis, in one cell (``hosted``); the first difference of an axis,
which crosses the left/bottom boundary, shares a cell of the padding with
structural zeros.  ``axis_edges`` gives one axis's edges.

Both operators treat each axis's part of the lattice as one flat row, in
one formula for every dimension, from the grid's :class:`_Layout`.  The
field is copied into a zero buffer of shape ``(counts[0] + 2,
*(counts[1:] + 1))``, at indices 1 to ``counts[a]`` on every axis.  The
buffer is the lattice's cells with one more line of zeros, so a cell's
flat index is that of its padded node, and a step past the end of a line
(along the last axis) wraps into the zero that starts the next one: the
padding beyond the boundary.  So each axis's differences are one
contiguous subtraction of the flat buffer from itself shifted by that
axis's lattice stride, and the adjoint's are one subtraction of the flat
lattice from itself shifted back.

Slope constraints come in two flavours, selected by ``mode``:

* ``"isotropic"``: Euclidean norm of each node's forward differences,
* ``"componentwise"``: each difference bounded separately.

The two coincide in 1D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

TOL_CONSTRAINT = 1e-8

CONSTRAINT_MODES = ("isotropic", "componentwise")


class _Layout(NamedTuple):
    """Where the lattice operators find a grid's entries (see the module
    docstring), with ``cells = counts + 1``: the lattice ``shape`` ``(dim,
    *cells)``; the ``size`` of one axis's lattice, ``prod(cells)``; the
    shape ``pad`` of the padded buffer and the place ``nodes`` of the
    interior nodes in it; each axis's lattice ``strides``,
    ``prod(cells[a + 1:])``; and the shape ``lines`` of the cells of lines
    1 to ``counts[0]``, the part of a lattice that holds the nodes, with the
    nodes' place ``in_lines`` in it."""

    shape: tuple[int, ...]
    size: int
    pad: tuple[int, ...]
    nodes: tuple[slice, ...]
    strides: tuple[int, ...]
    lines: tuple[int, ...]
    in_lines: tuple[slice, ...]

    @classmethod
    def of(cls, counts: tuple[int, ...]) -> "_Layout":
        cells = tuple(m + 1 for m in counts)
        nodes = tuple(slice(1, m + 1) for m in counts)
        return cls(
            shape=(len(cells),) + cells,
            size=math.prod(cells),
            pad=(cells[0] + 1,) + cells[1:],
            nodes=nodes,
            strides=tuple(math.prod(cells[a + 1 :]) for a in range(len(cells))),
            lines=(counts[0],) + cells[1:],
            in_lines=(slice(None),) + nodes[1:],
        )


@dataclass(frozen=True)
class Grid:
    """Uniform grid over the interior nodes of a box, zero Dirichlet boundary.

    Built from the box's side lengths ``extents`` (meters, positive and
    finite) and its interior node counts ``counts`` (integers of at least
    3), one entry per axis on one or two axes, which it checks; ``dim`` and
    ``spacing[a] = extents[a] / (counts[a] + 1)`` follow from them.  Nodes
    are strictly interior and the boundary nodes are implicit.  Raises
    ``ValueError`` on any other input.

    Its hash and the layout of its lattice (:class:`_Layout`) are built
    once, by the constructor: the solver's caches look grids up on every
    projection and time step, and the lattice operators read the layout on
    every pass.  Equality compares the fields, as a dataclass's does.
    """

    extents: tuple[float, ...]
    counts: tuple[int, ...]
    dim: int = field(init=False)
    spacing: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        ext = tuple(float(e) for e in self.extents)
        cnt = tuple(float(c) for c in self.counts)
        if len(ext) not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {len(ext)} extents")
        if len(cnt) != len(ext):
            raise ValueError(f"extents/counts must have one entry per axis, got {ext}, {cnt}")
        if not all(0.0 < e < math.inf for e in ext):
            raise ValueError(f"extents must be positive, got {ext}")
        if not all(c.is_integer() and c >= 3 for c in cnt):
            raise ValueError(f"counts must be integers >= 3 on each axis, got {cnt}")
        cnt = tuple(int(c) for c in cnt)
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "counts", cnt)
        object.__setattr__(self, "dim", len(ext))
        object.__setattr__(self, "spacing", tuple(e / (c + 1) for e, c in zip(ext, cnt)))
        object.__setattr__(self, "_layout", _Layout.of(cnt))
        object.__setattr__(self, "_hash", hash((ext, cnt)))

    def __hash__(self) -> int:
        return self._hash

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
    """The :class:`Grid` of ``dim`` axes (1 or 2) with these ``extents`` and
    ``counts``; a scalar, or a single entry, applies to every axis.

    Raises ``ValueError`` where :class:`Grid` does, on a ``dim`` other than
    the integer 1 or 2 (``2.0`` and ``True`` included), and when ``extents``
    or ``counts`` has more than one entry but not one per axis.
    """
    if type(dim) is not int or dim not in (1, 2):
        raise ValueError(f"dim must be the integer 1 or 2, got {dim!r}")
    ext, cnt = (np.atleast_1d(x).tolist() for x in (extents, counts))
    ext, cnt = (tuple(x * dim if len(x) == 1 else x) for x in (ext, cnt))
    if len(ext) != dim or len(cnt) != dim:
        raise ValueError(f"extents/counts must have one entry per axis, got {ext}, {cnt}")
    return Grid(ext, cnt)


@dataclass(eq=False)
class _Field:
    """Values at the interior nodes of a grid.  The constructor checks shape
    and finiteness, as ``run``, ``step``, ``project`` and ``project_pdhg``
    check their inputs where they enter (``resolvent_step`` checks the shape
    of the field it predicts, and the projection its finiteness); the
    solver's own results are built unchecked (:func:`_unchecked`), and each
    projection's duality gap gets one finiteness test instead.  ``_what``
    names the kind of field in the errors.  Two fields are equal (``==``, a
    bool) when they are of one class, on equal grids, with equal values."""

    grid: Grid
    values: np.ndarray
    _what = "field"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"{self._what} shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError(f"{self._what} contains non-finite values")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)


class HeightField(_Field):
    """Heights (meters) at the interior nodes of a grid, checked as every
    :class:`_Field` is."""

    _what = "height field"

    @classmethod
    def zeros(cls, grid: Grid) -> "HeightField":
        return cls(grid, np.zeros(grid.shape))


def _unchecked(cls, grid: Grid, values: np.ndarray):
    """A ``cls`` field of the solver's own ``values``, without the checks."""
    field = object.__new__(cls)
    field.grid, field.values = grid, values
    return field


def _check_int(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (Python's or numpy's) of at least ``least``; a bool is not one.  Every
    projection checks its ``max_iter`` here, so the test names concrete
    types: with ``numbers.Integral`` the check took four times as long."""
    if not isinstance(value, (int, np.integer)) or type(value) is bool or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


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


# Index tuples, built once (grids have one or two axes): per dimension,
# where each axis's edges sit in the lattice, and the cells of the interior
# nodes.
_EDGES = {
    dim: tuple(
        (a,) + tuple(slice(None) if b == a else slice(1, None) for b in range(dim))
        for a in range(dim)
    )
    for dim in (1, 2)
}
_HOSTED = {dim: (slice(None),) + (slice(1, None),) * dim for dim in (1, 2)}


def edge_slopes(grid: Grid, values: np.ndarray) -> np.ndarray:
    """All nearest-neighbour slopes of the zero-extended field, as a lattice.

    ``L[a][c]`` is the forward difference along axis ``a`` at node ``c`` of
    the field padded with zeros, so ``L`` has shape ``(dim, *(counts +
    1))``.  Axis ``a`` has ``counts[a] + 1`` differences along it
    (:func:`axis_edges`), including the two that cross the boundary, so
    bounding every one by ``lam`` is membership in the admissible cone.  The
    other entries of the lattice are structural zeros: differences along
    ``a`` at padding nodes off axis ``a``, between two zeros of the padding.

    The field is copied once into the zero-padded buffer of the module
    docstring; entry ``f`` of axis ``a``'s flat lattice is then ``buf[f +
    stride_a] - buf[f]``, one contiguous subtraction per axis, divided by
    ``h_a`` in place.
    """
    lay = grid._layout
    buf = np.zeros(lay.pad)
    buf[lay.nodes] = values
    buf = buf.ravel()
    out = np.empty(lay.shape)
    flat, size = out.ravel(), lay.size
    for a, s in enumerate(lay.strides):
        d = flat[a * size : (a + 1) * size]
        np.subtract(buf[s : s + size], buf[:size], out=d)
        d /= grid.spacing[a]
    return out


def edge_slopes_adjoint(grid: Grid, L: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`edge_slopes` in the Euclidean inner product,
    as a new C-contiguous array of the grid's shape.

    The node of cell ``c`` gets ``(L[a][c - e_a] - L[a][c]) / h_a`` summed
    over the axes in order.  Per axis, the differences are one contiguous
    subtraction of its flat lattice from itself shifted back by
    ``stride_a``, over the cells of lines 1 to ``counts[0]`` (``lines``),
    divided in place; the axes are summed on those lines, and the nodes'
    view of the sum is returned C-contiguous: copied in 2D, where it is
    strided, and the sum itself in 1D, where the nodes fill the lines.
    Either way it is an array that shares no memory with ``L``.  The
    subtraction also passes cells that are not nodes, where it may read
    structural zeros, but the result does not depend on them (a non-finite
    one included, which at most warns).
    """
    lay = grid._layout
    L = L.ravel()
    size, s0 = lay.size, lay.strides[0]
    total = None
    for a, s in enumerate(lay.strides):
        start = a * size + s0  # cell s0 is the first of line 1
        d = np.subtract(L[start - s : (a + 1) * size - s], L[start : (a + 1) * size])
        d /= grid.spacing[a]
        if total is None:
            total = d
        else:
            total += d
    return np.ascontiguousarray(total.reshape(lay.lines)[lay.in_lines])


def axis_edges(L: np.ndarray, a: int) -> np.ndarray:
    """The view of axis ``a``'s edges in a lattice: shape ``counts`` with
    ``counts[a] + 1`` along ``a``; entry 0 along ``a`` crosses the
    left/bottom boundary, the last one the right/top boundary."""
    return L[_EDGES[L.ndim - 1][a]]


def hosted(L: np.ndarray) -> np.ndarray:
    """The view of the lattice entries that interior nodes host, shape
    ``(dim, *counts)``: per axis, the difference from each node to its next
    neighbour (the forward difference).  The first edge of each axis
    crosses the left/bottom boundary and has no host."""
    return L[_HOSTED[L.ndim - 1]]


def paired(grid: Grid, mode: str) -> bool:
    """Whether a node's forward differences are bounded together, by their
    Euclidean norm (isotropic mode in 2D), rather than one by one
    (componentwise mode, and 1D, where the two modes coincide).  Raises
    ``ValueError`` on an unknown mode."""
    if mode not in CONSTRAINT_MODES:
        raise ValueError(f"unknown constraint mode {mode!r}")
    return mode == "isotropic" and grid.dim > 1


def constraint_magnitude(L: np.ndarray, pairs: bool) -> np.ndarray:
    """The magnitude of each slope constraint of a lattice: the cell norm
    ``sqrt(L[0]**2 + L[1]**2)``, shaped ``(1, *cells)``, when ``pairs``;
    each entry's ``|L|`` otherwise.  A first edge shares its cell with a
    structural zero, so its norm is its own ``|L|``."""
    if pairs:  # dim is 2
        sq = L * L
        norm = sq[0]  # summed and rooted in place, saving two allocations
        norm += sq[1]
        return np.sqrt(norm, out=norm)[None]
    return np.abs(L)


def node_slope_magnitude(field: HeightField, mode: str = "isotropic") -> np.ndarray:
    """Per-node magnitude of the forward differences under the given norm."""
    L = edge_slopes(field.grid, field.values)
    return hosted(constraint_magnitude(L, paired(field.grid, mode))).max(0)


def max_slope(field: HeightField, mode: str = "isotropic", slopes=None) -> float:
    L = edge_slopes(field.grid, field.values) if slopes is None else slopes
    return float(hosted(constraint_magnitude(L, paired(field.grid, mode))).max())


def admissible(field: HeightField, lam: float, mode: str = "isotropic", slopes=None) -> bool:
    """Membership test for the lam-Lipschitz cone with zero boundary values:
    every slope constraint, the edges crossing the boundary included, is at
    most ``lam + TOL_CONSTRAINT``; ``slopes`` are the field's
    :func:`edge_slopes` if the caller has them."""
    L = edge_slopes(field.grid, field.values) if slopes is None else slopes
    return bool(constraint_magnitude(L, paired(field.grid, mode)).max() <= lam + TOL_CONSTRAINT)


def integrate(grid: Grid, a: np.ndarray) -> float:
    """The nodal quadrature ``sum(a) * cell_volume`` of a field's values."""
    return float(a.sum()) * grid.cell_volume


def norm_l2(grid: Grid, a: np.ndarray) -> float:
    return math.sqrt(integrate(grid, a * a))

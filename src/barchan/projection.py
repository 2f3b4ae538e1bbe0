"""Exact L2 projection onto the slope-constrained cone, with multiplier.

Every projection solves

    min_u  0.5 ||u - v||^2  +  indicator(every edge slope of u <= lam)

over all nearest-neighbour slopes of the zero-extended field, including
the edges crossing the boundary, so the feasible set is exactly the
admissible cone (slope bound plus the distance cone bound it implies).

Two solvers compute it:

* ``project_pdhg``, a primal-dual (Chambolle-Pock) iteration, works in any
  dimension and either constraint mode.  Its iteration count grows with
  the grid, because the conditioning of the edge-difference operator does.
* ``project``, which the stepper calls, runs a semismooth Newton method on
  the dual, started from the previous time step's dual: between time
  steps the active set changes little, so a step costs one to three
  linear solves whatever the grid size, where PDHG needs hundreds to
  thousands of iterations.  It has one loop per grid kind:

  - In 1D the cone is polyhedral and ``D D^T`` (D the edge differences)
    is tridiagonal, so one primal-dual active-set step is one banded
    solve, and a repeated active pattern is an exact KKT point.  When no
    pattern repeats within ``NEWTON_MAX_STEPS`` solves, an exact dynamic
    program over the path (L2 Lipschitz regression) gives the projection
    in a finite number of operations, with no tolerance.
  - Otherwise one step is one banded Cholesky solve over the active
    constraints, with the generalized Jacobian of the paired (Euclidean)
    constraints; numbering the active edges with the axes interleaved
    keeps the band about two grid lines wide.  When it cannot certify
    within ``NEWTON_MAX_STEPS`` solves, or an active block is not positive
    definite, PDHG takes over.

PDHG stays the 2D fallback, the oracle the tests hold ``project`` to, and
the verifier's projection.  On a 2D grid, when its gap stalls (a
degenerate active set: loops of active edges, or pairs that touch a
boundary bound), it hands its iterate to a damped Newton polish.  Every
route finishes with the same duality-gap certificate, so ``converged``
means the same for all.

The multiplier field m is recovered from the dual vector: at a node whose
slope constraint is active the dual magnitude equals m * lam, so
m = |dual| / lam there and is exactly zero on inactive nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from .grid import (
    CONSTRAINT_MODES,
    TOL_CONSTRAINT,
    Grid,
    HeightField,
    backward,
    edge_slopes,
    edge_slopes_adjoint,
    hosted,
    paired,
    unhosted,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200_000
# Linear solves a Newton route may take before its fallback (the exact
# path dynamic program in 1D, PDHG otherwise) takes over: twice the most
# measured on a 64x64 dune, whose first time step starts cold and takes 8.
NEWTON_MAX_STEPS = 16
# Relative Tikhonov weight of a damped Newton solve (see _grid_newton): far
# below every nonzero eigenvalue of a block, enough to factor a singular one.
POLISH_DAMPING = 1e-12

_triu = lru_cache(maxsize=None)(np.triu_indices)  # (rows, cols) of the upper triangle


class NonConvergedError(RuntimeError):
    """Raised in strict mode when a projection exhausts its iterations."""


@dataclass
class MultiplierField:
    """Nonnegative dual density approximating the unknown diffusion
    coefficient; nonzero only where the slope constraint is active."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("multiplier shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("multiplier contains non-finite values")
        if np.any(self.values < 0.0):
            raise ValueError("multiplier must be nonnegative")

    @classmethod
    def zeros(cls, grid: Grid) -> "MultiplierField":
        return cls(grid, np.zeros(grid.shape))


@dataclass
class ProjectionResult:
    """Converged projection plus diagnostics.

    ``primal_dual_gap`` is the duality gap expressed as the L2 iterate
    error it certifies (``sqrt(2 * gap)``), so it is comparable to ``tol``
    in field units.  ``iterations`` counts the work of the route that ran:
    PDHG iterations (plus the solves of its Newton polish), Newton solves
    (plus one for the path dynamic program, or plus the PDHG count when PDHG
    took over from Newton), and 0 for an admissible input.
    ``constraint_violation`` is the max slope excess of the returned field,
    clamped at zero.  ``dual`` keeps the raw converged dual vector as a
    per-axis tuple shaped like :func:`edge_slopes` (a 1-tuple in 1D);
    feeding it back as ``warm_dual`` of a nearby projection cuts its
    iteration count without changing the limit.
    """

    u: HeightField
    m: MultiplierField
    iterations: int
    primal_dual_gap: float
    constraint_violation: float
    converged: bool
    dual: tuple[np.ndarray, ...] | None = None


def _soft(x: np.ndarray, t: float) -> np.ndarray:
    """Soft-threshold of scalar entries by magnitude, hard zeros below t."""
    mag = np.abs(x)
    return np.where(mag > t, x * (1.0 - t / np.maximum(mag, t)), 0.0)


@lru_cache(maxsize=16)
def _implied_edges(grid: Grid, pairs: bool) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The corner edge constraints that another constraint of the same
    node implies, as ``(axis, index)`` entries of a dual vector.

    Every boundary-crossing edge of a corner node bounds the same value,
    ``|u| / h_a``, so only the tightest (smallest ``h_a``) is needed, and a
    pair holding a boundary edge implies every scalar one whose ``h_a`` is at
    least its own; on ties a hosted edge is kept, so the multiplier sees its
    dual.  An implied constraint leaves the feasible set as it is but makes
    the dual non-unique: PDHG's dual then drifts between the two at the rate
    of the residual slope error, and Newton's active block is singular.
    """
    implied = []
    n = grid.counts
    for node in itertools.product(*[(0, m - 1) for m in n]):
        edges = []  # (h, unhosted, axis, index)
        for a, h in enumerate(grid.spacing):
            if node[a] == 0:
                edges.append((h, True, a, node[:a] + (0,) + node[a + 1 :]))
            if node[a] == n[a] - 1:
                edges.append((h, False, a, node[:a] + (n[a],) + node[a + 1 :]))
        bound = min([e[0] for e in edges if pairs and not e[1]], default=math.inf)
        scalars = sorted(e for e in edges if not pairs or e[1])
        drop = scalars[1:] if scalars and scalars[0][0] < bound else scalars
        implied += [(a, ix) for _, _, a, ix in drop]
    return tuple(implied)


class _ConeGeometry:
    """Dual norm machinery of the edge-slope constraints for one
    grid/constraint-mode pair.  Dual vectors are per-axis tuples shaped
    like :func:`edge_slopes`.

    Every edge is its own constraint, except when ``paired``: then the
    differences hosted by one interior node form a Euclidean pair, and only
    the boundary-crossing first edge of each axis, which has no host, stays
    scalar.  The constraints in ``implied`` (see :func:`_implied_edges`)
    carry no dual: :meth:`shrink` and :meth:`group_norm` zero them.
    """

    def __init__(self, grid: Grid, mode: str):
        if mode not in CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint mode {mode!r}")
        self.grid = grid
        self.paired = paired(grid, mode)
        self.op_norm = 2.0 * math.sqrt(sum(1.0 / s**2 for s in grid.spacing))
        self.implied = _implied_edges(grid, self.paired)

    def _drop_implied(self, q) -> tuple[np.ndarray, ...]:
        for a, ix in self.implied:
            q[a][ix] = 0.0
        return q

    def _pair_norm(self, q) -> np.ndarray:
        return np.sqrt(reduce(np.add, [h * h for h in hosted(q)]))

    def _scalar(self, q) -> tuple[np.ndarray, ...]:
        """The entries bounded one by one."""
        return unhosted(q) if self.paired else q

    def max_norm(self, q) -> float:
        out = max([float(np.abs(s).max()) for s in self._scalar(q)])
        if self.paired:
            out = max(float(self._pair_norm(q).max()), out)
        return out

    def dual_l1(self, q) -> float:
        """Sum of per-constraint magnitudes (support function weight)."""
        out = float(self._pair_norm(q).sum()) if self.paired else 0.0
        for s in self._scalar(q):
            out += float(np.abs(s).sum())
        return out

    def shrink(self, q, t: float):
        """prox of t * (sum of per-constraint magnitudes): magnitude
        soft-threshold, producing hard zeros below t."""
        if not self.paired:
            return self._drop_implied(tuple(_soft(qa, t) for qa in q))
        core = self._pair_norm(q)
        factor = np.where(core > t, 1.0 - t / np.maximum(core, t), 0.0)
        out = tuple(np.empty_like(qa) for qa in q)
        for o, h in zip(hosted(out), hosted(q)):
            o[...] = h * factor
        for o, b in zip(unhosted(out), unhosted(q)):
            o[...] = _soft(b, t)
        return self._drop_implied(out)

    def group_norm(self, q) -> tuple[np.ndarray, ...]:
        """Per-axis arrays holding, at every entry, the magnitude of the
        constraint the entry belongs to (its pair's norm when paired)."""
        out = tuple(np.abs(qa) for qa in q)
        if self.paired:
            core = self._pair_norm(q)
            for o in hosted(out):
                o[...] = core
        return self._drop_implied(out)

    def multiplier(self, q, lam: float) -> np.ndarray:
        """Per-node multiplier from the dual hosted by each interior node."""
        if self.paired:
            return self._pair_norm(q) / lam
        return reduce(np.add, [np.abs(h) for h in hosted(q)]) / lam

    def zeros_dual(self) -> tuple[np.ndarray, ...]:
        n = self.grid.counts
        return tuple(np.zeros(n[:a] + (n[a] + 1,) + n[a + 1 :]) for a in range(len(n)))


def _certificate(geom: _ConeGeometry, vvals: np.ndarray, x: np.ndarray, q, lam: float):
    """Duality gap of (x, q) with a feasibility-corrected primal candidate.

    Returns (violation of x, feasible candidate, gap, certified L2 error).
    Scaling x by lam / (lam + violation) restores exact feasibility because
    edge slopes are linear in the field.
    """
    viol = max(0.0, geom.max_norm(edge_slopes(geom.grid, x)) - lam)
    xf = x * (lam / (lam + viol)) if viol > 0.0 else x
    primal = 0.5 * float(np.sum((xf - vvals) ** 2))
    aq = edge_slopes_adjoint(geom.grid, q)
    dual = (
        -lam * geom.dual_l1(q)
        - 0.5 * float(np.sum(aq * aq))
        + float(np.vdot(aq, vvals))
    )
    gap = primal - dual
    err = math.sqrt(2.0 * max(gap, 0.0))
    return viol, xf, gap, err


def _gap_floor(vvals: np.ndarray) -> float:
    """Rounding floor below which the computed gap is meaningless."""
    eps = np.finfo(float).eps
    scale = 1.0 + float(np.sum(vvals * vvals))
    return 64.0 * eps * scale


def _finalize(
    geom: _ConeGeometry,
    v: HeightField,
    x: np.ndarray,
    q,
    lam: float,
    iterations: int,
    converged: bool,
) -> ProjectionResult:
    viol, xf, gap, err = _certificate(geom, v.values, x, q, lam)
    out_viol = max(0.0, geom.max_norm(edge_slopes(geom.grid, xf)) - lam)
    return ProjectionResult(
        u=HeightField(geom.grid, xf.copy()),
        m=MultiplierField(geom.grid, geom.multiplier(q, lam)),
        iterations=iterations,
        primal_dual_gap=err,
        constraint_violation=out_viol,
        converged=converged,
        dual=q,
    )


def _fixed_point(geom: _ConeGeometry, v: HeightField) -> ProjectionResult:
    """An admissible input is its own projection with zero multiplier."""
    return ProjectionResult(
        u=v.copy(),
        m=MultiplierField.zeros(v.grid),
        iterations=0,
        primal_dual_gap=0.0,
        constraint_violation=0.0,
        converged=True,
        dual=geom.zeros_dual(),
    )


def _within_tol(viol: float, gap: float, err: float, lam: float, tol: float, floor: float) -> bool:
    """Certified error at most ``tol`` (or gap at the rounding floor), and
    slope violation within ``TOL_CONSTRAINT``."""
    return (err <= tol or gap <= floor) and viol <= lam * TOL_CONSTRAINT + TOL_CONSTRAINT


def _certifier(geom: _ConeGeometry, vvals: np.ndarray, lam: float, tol: float):
    """``certified(x, q)``: whether the pair passes :func:`_within_tol`."""
    floor = _gap_floor(vvals)

    def certified(x, q) -> bool:
        viol, _, gap, err = _certificate(geom, vvals, x, q, lam)
        return _within_tol(viol, gap, err, lam, tol, floor)

    return certified


def project_pdhg(
    v: HeightField,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "isotropic",
    warm_dual=None,
) -> ProjectionResult:
    """Primal-dual projection of ``v`` onto the lam-cone.

    Plain Chambolle-Pock steps with an adaptive restart of the
    overrelaxation whenever the duality gap stalls; the restart recovers
    the linear tail convergence this strongly convex problem admits.  On a
    degenerate 2D problem it does not: the dual crawls along the loops of
    its active set.  So in 2D a restart also starts a damped
    :func:`_grid_newton` from the current dual, at most once per doubling
    of the iteration count; if it certifies, its result is returned, and
    its solves count towards ``max_iter`` and ``iterations``.

    Terminates when the certified error is at or below ``tol`` (or at the
    rounding floor of the gap) and the slope violation is within
    ``TOL_CONSTRAINT``.  On ``max_iter`` exhaustion the best iterate is
    returned flagged ``converged=False``; caller policy decides.

    ``warm_dual`` seeds the dual vector (useful across resolvent steps);
    it never changes the limit, only the iteration count.
    """
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    geom = _ConeGeometry(v.grid, mode)
    vvals = v.values

    if geom.max_norm(edge_slopes(v.grid, vvals)) <= lam:
        return _fixed_point(geom, v)

    L = geom.op_norm
    tau = 2.0 / L
    sigma = 0.98 / (tau * L * L)
    theta = 1.0

    x = vvals.copy()
    xbar = x.copy()
    q = tuple(warm_dual) if warm_dual is not None else geom.zeros_dual()

    certified = _certifier(geom, vvals, lam, tol)
    floor = _gap_floor(vvals)
    check_every = 16
    best_gap = math.inf
    stall = 0
    polish_at = 0

    it = solves = 0
    converged = False
    while it + solves < max_iter:
        it += 1
        ascent = zip(q, edge_slopes(v.grid, xbar))
        q = geom.shrink(tuple(qa + sigma * ea for qa, ea in ascent), sigma * lam)
        x_new = (x - tau * edge_slopes_adjoint(v.grid, q) + tau * vvals) / (1.0 + tau)
        xbar = x_new + theta * (x_new - x)
        x = x_new

        if it % check_every == 0:
            viol, _, gap, err = _certificate(geom, vvals, x, q, lam)
            if _within_tol(viol, gap, err, lam, tol, floor):
                converged = True
                break
            # Restart the extrapolation when the gap stops shrinking
            # geometrically; this re-anchors the iteration near the
            # current point and restores the local linear rate.
            if gap > 0.7 * best_gap:
                stall += 1
                if stall >= 4:
                    xbar = x.copy()
                    stall = 0
                    # In 2D a lasting stall is a degenerate active set.
                    if v.grid.dim > 1 and it >= polish_at:
                        polish_at = 2 * it
                        steps = min(NEWTON_MAX_STEPS, max_iter - it - solves)
                        xn, qn, k = _grid_newton(
                            geom, vvals, lam, q, steps, certified, damped=True
                        )
                        solves += k
                        if xn is not None:
                            x, q, converged = xn, qn, True
                            break
            else:
                stall = 0
            best_gap = min(best_gap, gap)

    return _finalize(geom, v, x, q, lam, it + solves, converged)


def _banded_solve(band: np.ndarray, rhs: np.ndarray, pivot: bool = False) -> np.ndarray:
    """Solve the symmetric system whose upper band is ``band`` (LAPACK
    upper form: the diagonal in the last row) by a banded Cholesky
    factorization.  Raises ``np.linalg.LinAlgError`` when the matrix is not
    positive definite, unless ``pivot``: then banded LU with partial
    pivoting solves it, and raises only on an exactly singular pivot.
    """
    if rhs.size == 1:  # solveh_banded rejects a 1x1 system with off-diagonal rows
        if not band[-1, 0] > 0.0:
            raise np.linalg.LinAlgError("1x1 system not positive definite")
        return rhs / band[-1]
    try:
        return solveh_banded(band, rhs, check_finite=False)
    except np.linalg.LinAlgError:
        if not pivot:
            raise
    bw = band.shape[0] - 1
    full = np.zeros((2 * bw + 1, band.shape[1]))  # and the mirrored lower band
    full[: bw + 1] = band
    for d in range(1, bw + 1):
        full[bw + d, :-d] = band[bw - d, d:]
    return solve_banded((bw, bw), full, rhs, check_finite=False)


def _path_newton(geom: _ConeGeometry, vvals: np.ndarray, lam: float, q: np.ndarray):
    """Primal-dual active-set (semismooth Newton) iteration on the 1D dual.

    Each step takes the active edges and their signs from
    ``z = q + c D u``, with ``u = v - D^T q`` and ``c = dx^2 / 2``, then
    solves ``(D D^T)_AA q_A = (D v)_A - lam s_A`` with ``q = 0`` off the
    active set.  ``D D^T`` is tridiagonal: ``2 / dx^2`` on the diagonal
    (``1 / dx^2`` on the boundary edges 0 and n), ``-1 / dx^2`` beside it.
    A pattern that repeats is an exact KKT point.

    Returns ``(u, q, solves)``; ``u`` and ``q`` are None when no pattern
    repeated within ``NEWTON_MAX_STEPS`` solves, or when every edge became
    active (constants span the kernel of ``D D^T``, so it is singular).
    """
    grid = geom.grid
    dx = grid.spacing[0]
    c = 0.5 * dx * dx
    (dv,) = edge_slopes(grid, vvals)
    diag = np.full(dv.size, 2.0)
    diag[0] = diag[-1] = 1.0
    pattern, solves = None, 0
    while True:
        u = vvals - edge_slopes_adjoint(grid, (q,))
        z = q + c * edge_slopes(grid, u)[0]
        active = np.abs(z) > c * lam
        signs = np.sign(z[active])
        if (
            pattern is not None
            and np.array_equal(active, pattern[0])
            and np.array_equal(signs, pattern[1])
        ):
            return u, q, solves
        if solves == NEWTON_MAX_STEPS or active.all():
            return None, None, solves
        pattern = (active, signs)
        # The active block of dx^2 D D^T: nonzero off the diagonal only
        # between adjacent edges.
        idx = np.flatnonzero(active)
        rhs = (dv[idx] - lam * signs) * (dx * dx)
        q = np.zeros_like(dv)
        if idx.size:
            band = np.zeros((2, idx.size))
            band[0, 1:] = np.where(np.diff(idx) == 1, -1.0, 0.0)
            band[1] = diag[idx]
            q[idx] = _banded_solve(band, rhs)
        solves += 1


def _path_dp(geom: _ConeGeometry, vvals: np.ndarray, lam: float):
    """Exact 1D projection by dynamic programming along the path.

    With ``h = lam dx`` and the zero boundary values at both ends, the
    value function ``F_i(x) = (x - v_i)^2 / 2 + min_{|y - x| <= h} F_{i-1}(y)``
    is convex and piecewise quadratic, with ``F_0`` defined on ``[-h, h]``.
    Its derivative is kept as segments between ``knots``, linear from
    ``left`` to ``right`` on each and free to jump between them.  Taking the
    minimum over the window shifts the derivative's negative part by
    ``-h`` and its positive part by ``+h``, with a zero segment of width
    ``2h`` between them at the minimiser ``x*``.  The backtrack clips each
    ``x*_{i-1}`` to the window around ``u_i``, starting from ``u_n = 0``.

    The dual follows from ``v - u = D^T q`` up to a constant: the median
    gauge minimises ``|q|_1``, so it is a dual optimum.  Returns ``(u, q)``.
    """
    dx = geom.grid.spacing[0]
    h = lam * dx
    n = vvals.size
    knots = np.array([-h, h])
    left = knots[:-1] - vvals[0]
    right = knots[1:] - vvals[0]
    xstar = []
    for i in range(n):
        k = int(np.argmax(right >= 0.0))
        if right[k] < 0.0:  # decreasing throughout: minimiser at the right end
            k = right.size
        elif left[k] < 0.0:  # zero inside segment k: split it there
            x = knots[k] - left[k] * (knots[k + 1] - knots[k]) / (right[k] - left[k])
            knots = np.insert(knots, k + 1, x)
            left = np.insert(left, k + 1, 0.0)
            right = np.insert(right, k, 0.0)
            k += 1
        xstar.append(float(knots[k]))
        if i + 1 == n:
            break
        knots = np.concatenate((knots[: k + 1] - h, knots[k:] + h))
        left = np.concatenate((left[:k], [0.0], left[k:])) + (knots[:-1] - vvals[i + 1])
        right = np.concatenate((right[:k], [0.0], right[k:])) + (knots[1:] - vvals[i + 1])

    u = np.empty(n)
    nxt = 0.0
    for i in range(n - 1, -1, -1):
        nxt = min(max(xstar[i], nxt - h), nxt + h)
        u[i] = nxt
    p = np.concatenate(([0.0], -dx * np.cumsum(vvals - u)))
    return u, p - np.median(p)


def _newton_band(geom: _ConeGeometry, z, mag, active, lam: float, t: float, delta: float = 0.0):
    """The upper band of ``(M_A^{-1} - I) / c + D_A D_A^T + delta I`` over
    the active entries, for :func:`_banded_solve`, and the per-axis numbers
    of the active entries (-1 off them), built by index arithmetic.

    The entries are numbered in C order through one lattice with
    ``counts[a] + 1`` slots per axis and the axes interleaved, so the edges
    a node lies on get nearby numbers: the band spans about two grid lines
    of active entries, where a numbering axis by axis spans half the block.

    ``D D^T`` sums one outer product per node: on each axis a node lies on
    the edge from its previous neighbour (coefficient ``1 / h_a``) and on
    the edge it hosts (``-1 / h_a``).  ``M`` is the Jacobian of
    ``shrink(., t)`` at ``z``, with ``t = c lam``: ``M_A^{-1} - I`` is
    ``a / (1 - a) (I - zh zh^T)`` on an active pair, with ``a = t / |z_g|``
    and ``zh = z_g / |z_g|``, and zero on a scalar constraint.
    """
    grid = geom.grid
    lattice = np.zeros(tuple(m + 1 for m in grid.counts) + (grid.dim,), dtype=bool)
    regions = [
        tuple(slice(m + (a == b)) for b, m in enumerate(grid.counts)) + (a,)
        for a in range(grid.dim)
    ]
    for r, m in zip(regions, active):
        lattice[r] = m
    order = np.flatnonzero(lattice)
    n = order.size
    number = np.full(lattice.shape, -1)
    number.flat[order] = np.arange(n)
    index = [number[r] for r in regions]

    # Per node touching an active entry, the numbers of its 2 * dim edges;
    # each pair of them adds one entry at (row, col), row <= col.
    ends = np.stack(backward(index) + hosted(index))
    ends = ends[:, ends.max(axis=0) >= 0]
    coef = np.array([1.0 / h for h in grid.spacing] + [-1.0 / h for h in grid.spacing])
    ia, ib = _triu(coef.size)
    ea, eb = ends[ia], ends[ib]
    on = (ea >= 0) & (eb >= 0)
    rows = [np.minimum(ea, eb)[on]]
    cols = [np.maximum(ea, eb)[on]]
    vals = [np.broadcast_to((coef[ia] * coef[ib])[:, None], on.shape)[on]]
    if geom.paired:
        core = hosted(mag)[0]
        on = core > t
        k = np.stack([ix[on] for ix in hosted(index)])
        zh = np.stack([za[on] / core[on] for za in hosted(z)])
        w = lam / (core[on] - t)  # a / ((1 - a) c)
        ia, ib = _triu(grid.dim)
        ka, kb = k[ia], k[ib]
        rows.append(np.minimum(ka, kb).ravel())
        cols.append(np.maximum(ka, kb).ravel())
        vals.append((w * ((ia == ib)[:, None] - zh[ia] * zh[ib])).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    lag = cols - rows
    bw = int(lag.max())
    band = np.bincount(
        (bw - lag) * n + cols, weights=np.concatenate(vals), minlength=(bw + 1) * n
    ).reshape(bw + 1, n)
    band[-1] += delta
    return band, index


def _first_break(geom: _ConeGeometry, z0, z1, t: float) -> float:
    """The first ``s`` in (0, 1) at which a constraint enters or leaves the
    active set (``|z_g| = t``) along ``z0 + s (z1 - z0)``; 1 if none does."""
    dz = tuple(b - a for a, b in zip(z0, z1))
    first = 1.0
    for n0, n1, nd in zip(geom.group_norm(z0), geom.group_norm(z1), geom.group_norm(dz)):
        # |z0 + s dz|^2 - t^2 = a s^2 + b s + c0 on each entry's constraint
        a, c0 = nd * nd, n0 * n0 - t * t
        b = n1 * n1 - a - n0 * n0
        disc = b * b - 4.0 * a * c0
        ok = (a > 0.0) & (disc >= 0.0)
        root = np.sqrt(np.where(ok, disc, 0.0))
        den = np.where(ok, 2.0 * a, 1.0)
        for s in ((-b - root) / den, (-b + root) / den):
            s = s[ok & (s > 1e-12) & (s < first)]
            if s.size:
                first = float(s.min())
    return first


def _grid_newton(
    geom: _ConeGeometry,
    vvals: np.ndarray,
    lam: float,
    q,
    max_steps: int,
    certified,
    damped: bool = False,
):
    """Semismooth Newton iteration on the dual fixed point
    ``q = shrink(q + c D u, c lam)`` with ``u = v - D^T q`` and
    ``c = 2 / |D|^2`` (``h^2 / 4`` on a square grid).

    Each step takes the active constraints from ``z = q + c D u`` (those
    with ``|z_g| > c lam``), sets ``q = 0`` off them and solves

        ((M_A^{-1} - I) / c + D_A D_A^T) q_A = (D v)_A - lam zh_A

    with ``zh = z / |z_g|`` and ``M`` as in :func:`_newton_band`.  This is
    the Newton step ``(M_A^{-1} - I + c D_A D_A^T) dq_A = -M_A^{-1} F_A +
    c (D D^T)_AI q_I`` on ``F = q - shrink(z, c lam)`` solved for
    ``q_A + dq_A``, because ``M_A^{-1} - I`` annihilates ``shrink(z)_A``.  On
    scalar constraints it is the rule of :func:`_path_newton`.  On pairs
    the Jacobian moves with ``z``, so a repeated active pattern is not yet a
    KKT point: the iteration stops only when ``certified(u, q)`` holds.

    ``damped`` is for a start near the solution of a degenerate problem
    (PDHG's stalled iterate).  Each solve then adds ``POLISH_DAMPING |D|^2``
    times ``I`` to the block and times the current ``q_A`` to the
    right-hand side, so a loop of active edges keeps its dual instead of
    making the block singular.  Where a pair's curvature is far above the
    damping, rounding can still leave the block without a Cholesky factor;
    banded LU solves it then.  And a step that does not lower the duality
    gap stops at the first change of the active set along it, whatever the
    gap there, so that the next solve sees the new set; if the set does not
    change along it, it is halved until the gap falls.  Near a loop that is
    almost closed the block is nearly singular and the full step overshoots.

    The block is positive semidefinite, so, rounding aside, its banded
    Cholesky factorization fails exactly when it is singular.  Returns
    ``(u, q, solves)``; ``u`` and ``q`` are None when nothing was certified
    within ``max_steps`` solves, when a block was not positive definite
    (loops of active edges carry divergence-free duals), or when halving a
    damped step found no lower gap.
    """
    grid = geom.grid
    c = 2.0 / geom.op_norm**2
    t = c * lam
    delta = POLISH_DAMPING * geom.op_norm**2 if damped else 0.0
    dv = edge_slopes(grid, vvals)
    solves = 0
    u = vvals - edge_slopes_adjoint(grid, q)
    if damped:
        gap = _certificate(geom, vvals, u, q, lam)[2]
    while solves < max_steps:
        z = tuple(qa + c * ea for qa, ea in zip(q, edge_slopes(grid, u)))
        mag = geom.group_norm(z)
        active = tuple(m > t for m in mag)
        q_new = tuple(np.zeros_like(qa) for qa in q)
        if any(m.any() for m in active):
            band, index = _newton_band(geom, z, mag, active, lam, t, delta)
            rhs = np.empty(band.shape[1])
            for ix, d, za, ma, qa, m in zip(index, dv, z, mag, q, active):
                rhs[ix[m]] = d[m] - lam * za[m] / ma[m] + delta * qa[m]
            try:
                q_act = _banded_solve(band, rhs, pivot=damped)
            except np.linalg.LinAlgError:  # singular
                return None, None, solves
            for qa, ix, m in zip(q_new, index, active):
                qa[m] = q_act[ix[m]]
        solves += 1
        u_new = vvals - edge_slopes_adjoint(grid, q_new)
        if damped:
            gap_new = _certificate(geom, vvals, u_new, q_new, lam)[2]
            if not gap_new < gap:
                z_new = tuple(qa + c * ea for qa, ea in zip(q_new, edge_slopes(grid, u_new)))
                s = _first_break(geom, z, z_new, t)
                halve = s >= 1.0
                s = 0.5 if halve else s
                while True:
                    q_try = tuple(qa + s * (qn - qa) for qa, qn in zip(q, q_new))
                    u_try = vvals - edge_slopes_adjoint(grid, q_try)
                    gap_new = _certificate(geom, vvals, u_try, q_try, lam)[2]
                    if not halve or gap_new < gap:
                        break
                    s /= 2.0
                    if s < 1e-12:
                        return None, None, solves
                q_new, u_new = q_try, u_try
            gap = gap_new
        q, u = q_new, u_new
        if certified(u, q):
            return u, q, solves
    return None, None, solves


def project(
    v: HeightField,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "isotropic",
    warm_dual=None,
) -> ProjectionResult:
    """Projection of ``v`` onto the lam-cone by semismooth Newton on the
    dual, started from ``warm_dual`` (zero if None).

    From the dual of a nearby projection it usually ends in one to three
    solves.  In 1D (where the two modes coincide and ``max_iter`` is
    unused) the steps are banded solves; if no active pattern repeats, or
    the result fails the certificate, the exact path dynamic program
    replaces it, and ``iterations`` counts the banded solves plus one.
    Otherwise the steps are banded Cholesky solves in interleaved order;
    when they cannot certify within ``min(NEWTON_MAX_STEPS, max_iter)``
    solves, or a block is not positive definite, :func:`project_pdhg` takes
    over from ``warm_dual`` with the rest of the ``max_iter`` budget, and
    ``iterations`` counts the Newton solves plus the PDHG iterations, so it
    never exceeds ``max_iter``.  An admissible input returns itself with 0.
    ``converged`` has the meaning it has in :func:`project_pdhg`.
    """
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    geom = _ConeGeometry(v.grid, mode)
    vvals = v.values
    if geom.max_norm(edge_slopes(v.grid, vvals)) <= lam:
        return _fixed_point(geom, v)

    certified = _certifier(geom, vvals, lam, tol)
    q0 = tuple(warm_dual) if warm_dual is not None else geom.zeros_dual()
    if v.grid.dim == 1:
        x, q, solves = _path_newton(geom, vvals, lam, np.asarray(q0[0], dtype=float))
        converged = x is not None and certified(x, (q,))
        if not converged:
            x, q = _path_dp(geom, vvals, lam)
            solves += 1
            converged = certified(x, (q,))
        return _finalize(geom, v, x, (q,), lam, solves, converged)
    x, q, solves = _grid_newton(geom, vvals, lam, q0, min(NEWTON_MAX_STEPS, max_iter), certified)
    if x is None:
        res = project_pdhg(
            v, lam, tol=tol, max_iter=max_iter - solves, mode=mode, warm_dual=warm_dual
        )
        res.iterations += solves
        return res
    return _finalize(geom, v, x, q, lam, solves, True)


def resolvent_step(
    u_prev: HeightField,
    g: np.ndarray,
    dt: float,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "isotropic",
    warm_dual=None,
) -> ProjectionResult:
    """One implicit Euler step of the constrained flow.

    Solves ``(u - u_prev)/dt + normal_cone(u) owns g`` by projecting
    ``u_prev + dt * g`` onto the cone with :func:`project`.  The returned
    multiplier is the time-step-scaled dual ``m / dt``, the effective
    diffusion density of the step; the raw projection multiplier is
    ``m * dt``.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    predicted = HeightField(u_prev.grid, u_prev.values + dt * np.asarray(g, dtype=float))
    res = project(predicted, lam, tol=tol, max_iter=max_iter, mode=mode, warm_dual=warm_dual)
    res.m = MultiplierField(res.m.grid, res.m.values / dt)
    return res

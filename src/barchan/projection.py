"""Exact L2 projection onto the slope-constrained cone, with multiplier.

Every projection solves

    min_u  0.5 ||u - v||^2  +  indicator(every edge slope of u <= lam)

over all nearest-neighbour slopes of the zero-extended field, including
the edges crossing the boundary, so the feasible set is exactly the
admissible cone (slope bound plus the distance cone bound it implies).

All dual vectors, edge slopes and Newton iterates live on the lattice of
:func:`~barchan.grid.edge_slopes`, shape ``(dim, *(counts + 1))``, and so
do ``warm_dual`` and the result's ``dual`` and ``slopes``.  The pair that
interior node ``i`` hosts shares cell ``i + 1``; the first edge of an axis
shares a cell of the padding with structural zeros.  So a constraint's
magnitude is one formula, :func:`~barchan.grid.constraint_magnitude`: the
cell norm when paired, ``|L|`` otherwise.

Two solvers compute it:

* ``project_pdhg``, a primal-dual (Chambolle-Pock) iteration, works in any
  dimension and either constraint mode.  Its iteration count grows with
  the grid, because the conditioning of the edge-difference operator does.
* ``project``, which the stepper calls, runs a semismooth Newton method on
  the dual, started from the previous time step's dual: between time
  steps the active set changes little, so a step costs one to three
  linear solves whatever the grid size, where PDHG needs hundreds to
  thousands of iterations.  It has one loop per grid kind:

  - In 1D the cone is polyhedral and a primal-dual active-set step has a
    closed form: the active edges join the nodes into runs, and on each
    run the field is a potential of slope ``±lam`` per edge plus one
    constant, so a step is a few prefix sums and no linear solve.  A
    repeated active pattern is an exact KKT point.  When no pattern
    repeats within ``NEWTON_MAX_STEPS`` solves, an exact dynamic program
    over the path (L2 Lipschitz regression) gives the projection in a
    finite number of operations, with no tolerance.
  - Otherwise one step is one banded Cholesky solve over the active
    constraints, with the generalized Jacobian of the paired (Euclidean)
    constraints; numbering the active entries cell by cell keeps the band
    within two grid lines.  When it cannot certify within
    ``NEWTON_MAX_STEPS`` solves, or an active block is not positive
    definite, PDHG takes over.

PDHG stays the 2D fallback, the oracle the tests hold ``project`` to, and
the verifier's projection.  On a 2D grid, when its gap stalls (a
degenerate active set: loops of active edges, or pairs that touch a
boundary bound), it hands its iterate to a damped Newton polish.  Every
route certifies the pair it returns once, with the same duality-gap
certificate, and ``converged`` is that certificate's verdict on all of
them, a PDHG run out of iterations included.

The multiplier field m is recovered from the dual vector: at a node whose
slope constraint is active the dual magnitude equals m * lam, so
m = |dual| / lam there and is exactly zero on inactive nodes.

The 2D Newton solves call LAPACK from scipy's compiled extension
``scipy.linalg._flapack``, loaded alone on the first of them: the
``scipy.linalg`` package costs about 0.16 s to import, more than the rest
of the solver, and a 1D projection loads no scipy at all.  Each solve is
``dpbsv`` (banded Cholesky), or ``dgtsv`` or ``dgbsv`` (pivoted) when a
damped polish meets an indefinite block.  LAPACK runs under
the caller's BLAS thread count.  The root ``conftest.py`` and
``perfbench/run.py`` pin it to one thread; library callers are not
pinned.  On these narrow bands that matters: for 314 unknowns the banded
Cholesky and solve took 704 us unpinned against 207 us pinned (2 cores).
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np

from .grid import (
    TOL_CONSTRAINT,
    Grid,
    HeightField,
    _unchecked,
    axis_edges,
    constraint_magnitude,
    edge_slopes,
    edge_slopes_adjoint,
    hosted,
    paired,
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

class NonConvergedError(RuntimeError):
    """Raised in strict mode when a projection exhausts its iterations."""


@dataclass
class MultiplierField:
    """Nonnegative dual density approximating the unknown diffusion
    coefficient; nonzero only where the slope constraint is active.  Checked
    as :class:`~barchan.grid.HeightField` is, and for its sign; a
    projection's own is a sum of dual magnitudes, built unchecked."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("multiplier shape does not match grid")
        if not np.isfinite(self.values).all():
            raise ValueError("multiplier contains non-finite values")
        if (self.values < 0.0).any():
            raise ValueError("multiplier must be nonnegative")

    @classmethod
    def zeros(cls, grid: Grid) -> "MultiplierField":
        return cls(grid, np.zeros(grid.shape))


@dataclass
class ProjectionResult:
    """Projection plus diagnostics.

    ``converged`` tells whether the returned pair passed the duality-gap
    certificate; ``primal_dual_gap`` is that gap expressed as the L2
    error it certifies (``sqrt(2 * gap)``), so it is comparable to ``tol``
    in field units.  ``iterations`` counts the work of the route that ran:
    PDHG iterations (plus the solves of its Newton polish), Newton solves
    (plus one for the path dynamic program, or plus the PDHG count when PDHG
    took over from Newton), and 0 for an admissible input.
    ``constraint_violation`` is the max slope excess of the returned field,
    clamped at zero.  ``dual`` keeps the raw dual vector on the lattice
    (see the module docstring), its structural zeros and implied
    constraints at zero; feeding it back as ``warm_dual`` of a nearby
    projection cuts its iteration count without changing the limit.
    ``slopes`` holds the :func:`edge_slopes` lattice of ``u``, which every
    route computes.  ``u`` and ``m`` are new arrays, never views of the
    input.
    """

    u: HeightField
    m: MultiplierField
    iterations: int
    primal_dual_gap: float
    constraint_violation: float
    converged: bool
    dual: np.ndarray
    slopes: np.ndarray


def _implied_edges(grid: Grid, pairs: bool) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The corner edge constraints that another constraint of the same
    node implies, as ``(axis, index)``: entry ``index`` of
    ``axis_edges(L, axis)``.

    Every boundary-crossing edge of a corner node bounds the same value,
    ``|u| / h_a``, so only the tightest (smallest ``h_a``) is needed, and a
    pair holding a boundary edge implies every scalar one whose ``h_a`` is at
    least its own; on ties a node's own forward edge is kept, so the
    multiplier sees its dual.  An implied constraint leaves the feasible set
    as it is but makes the dual non-unique: PDHG's dual then drifts between
    the two at the rate of the residual slope error, and Newton's active
    block is singular.
    """
    implied = []
    n = grid.counts
    for node in itertools.product(*[(0, m - 1) for m in n]):
        edges = []  # (h, whether it is the first edge of its axis, axis, index)
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
    """The constraint norms of one grid and constraint mode on the lattice of
    :func:`edge_slopes`, all from :func:`constraint_magnitude`.  Its arrays
    are read-only, so :func:`_geometry` shares one per pair.

    When ``paired`` the two entries of an interior cell form a Euclidean
    pair; every other edge is its own constraint.  ``keep`` is 0.0 on the
    structural zeros and on the ``implied`` constraints (see
    :func:`_implied_edges`), which carry no dual; ``in_pair`` marks the
    entries of the pairs.
    """

    def __init__(self, grid: Grid, mode: str):
        self.grid = grid
        self.paired = paired(grid, mode)
        self.op_norm = 2.0 * math.sqrt(sum(1.0 / s**2 for s in grid.spacing))
        self.implied = _implied_edges(grid, self.paired)
        self.shape = (grid.dim,) + tuple(m + 1 for m in grid.counts)
        self.keep = self.zeros()
        for a in range(grid.dim):
            axis_edges(self.keep, a)[...] = 1.0
        for a, ix in self.implied:
            axis_edges(self.keep, a)[ix] = 0.0
        self.in_pair = np.zeros(self.shape, dtype=bool)
        hosted(self.in_pair)[...] = self.paired
        self.keep.setflags(write=False)
        self.in_pair.setflags(write=False)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def max_norm(self, q) -> float:
        """Largest constraint magnitude.  An implied constraint never exceeds
        the one that implies it, also in rounding, so it is not dropped."""
        return float(constraint_magnitude(q, self.paired).max())

    def dual_l1(self, q) -> float:
        """Sum of per-constraint magnitudes (support function weight)."""
        return float(constraint_magnitude(q, self.paired).sum())

    def group_norm(self, q) -> np.ndarray:
        """The lattice holding, at every entry, the magnitude of the
        constraint the entry belongs to (its pair's norm when paired), and 0
        on the structural zeros and the implied constraints."""
        return constraint_magnitude(q, self.paired) * self.keep

    def shrink(self, q, t: float) -> np.ndarray:
        """prox of t * (sum of per-constraint magnitudes): magnitude
        soft-threshold, producing hard zeros below t."""
        g = self.group_norm(q)
        return np.where(g > t, q * (1.0 - t / np.maximum(g, t)), 0.0)

    def multiplier(self, q, lam: float) -> np.ndarray:
        """Per-node multiplier from the dual each interior node hosts."""
        return hosted(constraint_magnitude(q, self.paired)).sum(0) / lam


@lru_cache(maxsize=16)
def _geometry(grid: Grid, mode: str) -> _ConeGeometry:
    return _ConeGeometry(grid, mode)


class _Certificate(NamedTuple):
    """Duality-gap certificate of a primal-dual pair ``(x, q)``.

    ``dx`` holds the edge slopes of ``x`` (a lattice), ``viol`` its slope
    violation; ``xf`` is ``x`` scaled by ``lam / (lam + viol)``, which
    restores exact feasibility because edge slopes are linear in the field;
    ``gap`` is the duality gap of ``(xf, q)`` and ``err = sqrt(2 gap)`` the
    L2 error of ``xf`` it certifies.  ``ok`` holds when ``err`` is at most
    ``tol`` (or the gap is at its rounding floor) and ``viol`` is within
    ``TOL_CONSTRAINT``.
    """

    dx: np.ndarray
    viol: float
    xf: np.ndarray
    gap: float
    err: float
    ok: bool


def _gap_floor(vvals: np.ndarray) -> float:
    """Rounding floor below which the computed gap is meaningless."""
    eps = np.finfo(float).eps
    scale = 1.0 + float((vvals * vvals).sum())
    return 64.0 * eps * scale


def _certifier(geom: _ConeGeometry, vvals: np.ndarray, lam: float, tol: float):
    """``certify(x, q, dx=None, aq=None)``: the :class:`_Certificate` of the
    pair, ``q`` a lattice.  ``dx`` and ``aq`` are ``D x`` and ``D^T q``;
    a loop that has them already passes them in, and each one left out is
    computed here, with the same result."""
    floor = _gap_floor(vvals)
    max_viol = lam * TOL_CONSTRAINT + TOL_CONSTRAINT

    def certify(x, q, dx=None, aq=None) -> _Certificate:
        if dx is None:
            dx = edge_slopes(geom.grid, x)
        if aq is None:
            aq = edge_slopes_adjoint(geom.grid, q)
        viol = max(0.0, geom.max_norm(dx) - lam)
        xf = x * (lam / (lam + viol)) if viol > 0.0 else x
        primal = 0.5 * float(((xf - vvals) ** 2).sum())
        dual = -lam * geom.dual_l1(q) - 0.5 * float((aq * aq).sum()) + float(np.vdot(aq, vvals))
        gap = primal - dual
        err = math.sqrt(2.0 * max(gap, 0.0))
        ok = (err <= tol or gap <= floor) and viol <= max_viol
        return _Certificate(dx, viol, xf, gap, err, ok)

    return certify


def _finalize(
    geom: _ConeGeometry, cert: _Certificate, q, lam: float, iterations: int
) -> ProjectionResult:
    """The result for dual ``q`` and its certificate: the feasible field
    ``cert.xf`` (a new array on every route, so it is not copied), flagged
    ``converged`` when the certificate passed.  When ``cert.viol`` is 0,
    ``xf`` is the certified ``x``, with slopes ``cert.dx`` and violation
    exactly 0; otherwise both are evaluated here for the rescaled field.
    The fields are built unchecked: a NaN in ``cert.xf`` or ``q`` makes the
    gap NaN (not ``viol``: ``max(0.0, nan)`` is 0), so such a gap raises."""
    if not math.isfinite(cert.gap):
        raise ValueError(f"projection iterate is not finite (duality gap {cert.gap})")
    viol, slopes = 0.0, cert.dx
    if cert.viol > 0.0:
        slopes = edge_slopes(geom.grid, cert.xf)
        viol = max(0.0, geom.max_norm(slopes) - lam)
    return ProjectionResult(
        u=_unchecked(HeightField, geom.grid, cert.xf),
        m=_unchecked(MultiplierField, geom.grid, geom.multiplier(q, lam)),
        iterations=iterations,
        primal_dual_gap=cert.err,
        constraint_violation=viol,
        converged=cert.ok,
        dual=q,
        slopes=slopes,
    )


def _admissible_result(geom: _ConeGeometry, vvals: np.ndarray, dv: np.ndarray) -> ProjectionResult:
    """The projection of an admissible ``vvals`` with edge slopes ``dv``: a
    copy, with zero multiplier and dual, after no iteration."""
    u = _unchecked(HeightField, geom.grid, vvals.copy())
    m = _unchecked(MultiplierField, geom.grid, np.zeros(geom.grid.shape))
    return ProjectionResult(u, m, 0, 0.0, 0.0, True, geom.zeros(), dv)


def _check_inputs(geom: _ConeGeometry, lam: float, tol: float, warm_dual) -> None:
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    shape = getattr(warm_dual, "shape", None)  # an array's; None for a tuple or list
    if warm_dual is not None and shape != geom.shape:
        raise ValueError(f"warm_dual must be a dual lattice of shape {geom.shape}, got {shape}")


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
    ``TOL_CONSTRAINT``.  On ``max_iter`` exhaustion the last iterate is
    returned, flagged ``converged`` by that same certificate; caller policy
    decides what to do with a pair that fails it.

    ``warm_dual`` seeds the dual vector (useful across resolvent steps);
    it never changes the limit, only the iteration count.
    """
    geom = _geometry(v.grid, mode)
    _check_inputs(geom, lam, tol, warm_dual)
    vvals = v.values
    dv = edge_slopes(v.grid, vvals)
    top = geom.max_norm(dv)
    if top <= lam:
        return _admissible_result(geom, vvals, dv)
    if not math.isfinite(top):  # written to after its constructor checked it
        raise ValueError("height field contains non-finite values")

    L = geom.op_norm
    tau = 2.0 / L
    sigma = 0.98 / (tau * L * L)
    theta = 1.0

    x = vvals.copy()
    xbar = x.copy()
    q = geom.zeros() if warm_dual is None else np.array(warm_dual, dtype=float)

    certify = _certifier(geom, vvals, lam, tol)
    check_every = 16
    best_gap = math.inf
    stall = 0
    polish_at = 0

    it = solves = 0
    while it + solves < max_iter:
        it += 1
        q = geom.shrink(q + sigma * edge_slopes(geom.grid, xbar), sigma * lam)
        x_new = (x - tau * edge_slopes_adjoint(geom.grid, q) + tau * vvals) / (1.0 + tau)
        xbar = x_new + theta * (x_new - x)
        x = x_new

        if it % check_every == 0:
            cert = certify(x, q)
            if cert.ok:
                break
            # Restart the extrapolation when the gap stops shrinking
            # geometrically; this re-anchors the iteration near the
            # current point and restores the local linear rate.
            if cert.gap > 0.7 * best_gap:
                stall += 1
                if stall >= 4:
                    xbar = x.copy()
                    stall = 0
                    # In 2D a lasting stall is a degenerate active set.
                    if v.grid.dim > 1 and it >= polish_at:
                        polish_at = 2 * it
                        steps = min(NEWTON_MAX_STEPS, max_iter - it - solves)
                        polished, qn, k = _grid_newton(
                            geom, vvals, lam, q, steps, certify, dv, damped=True
                        )
                        solves += k
                        if polished is not None:
                            cert, q = polished, qn
                            break
            else:
                stall = 0
            best_gap = min(best_gap, cert.gap)
    else:
        cert = certify(x, q)

    return _finalize(geom, cert, q, lam, it + solves)


@cache
def _lapack():
    """LAPACK's ``(dpbsv, dgtsv, dgbsv)`` from scipy's compiled extension
    ``scipy.linalg._flapack``, loaded alone (see the module docstring).  The
    extension needs numpy only, so it is found with ``find_spec``, which
    runs no scipy code, and loaded from its file; it is registered in
    ``sys.modules`` under its own name, so a later ``import scipy.linalg``
    shares it, and one already imported is used as it is.  Raises
    ``ImportError`` naming what is missing when scipy or the extension
    cannot be found."""
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            raise ImportError("2D Newton solves need scipy's LAPACK, but scipy is not installed")
        linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
        spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension {name} was not found in {linalg}")
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
        sys.modules[name] = flapack
    return flapack.dpbsv, flapack.dgtsv, flapack.dgbsv


def _banded_solve(band: np.ndarray, rhs: np.ndarray, pivot: bool = False) -> np.ndarray:
    """Solve the symmetric system whose upper band is ``band`` (LAPACK
    upper form: the diagonal in the last row) by a banded Cholesky
    factorization; the 2D Newton steps use it.  Raises
    ``np.linalg.LinAlgError`` when the matrix is not positive definite,
    unless ``pivot``: then banded LU with partial pivoting solves it, and
    raises only on an exactly singular pivot.

    LAPACK is called directly from scipy's compiled extension (see
    :func:`_lapack`), without the checks and dispatch of scipy's solvers,
    which cost ten times the solve of a few dozen unknowns.  ``dpbsv``
    solves every band, one unknown included, so the results are bitwise
    those of ``cho_solve_banded((cholesky_banded(band), False), rhs)``.
    Pivoted, the routines and arguments are those of ``solve_banded``, so
    its results are matched bitwise: ``dgtsv`` for two rows and otherwise
    ``dgbsv`` on its ``3 bw + 1``-row layout (the upper band, the mirrored
    lower band and ``bw`` rows of fill).
    """
    dpbsv, dgtsv, dgbsv = _lapack()
    _, x, info = dpbsv(band, rhs)
    bw = band.shape[0] - 1
    if info > 0 and pivot:
        if bw == 1:
            *_, x, info = dgtsv(band[0, 1:], band[1], band[0, 1:], rhs)
        else:
            lu = np.zeros((3 * bw + 1, band.shape[1]))
            lu[bw : 2 * bw + 1] = band
            for d in range(1, bw + 1):
                lu[2 * bw + d, :-d] = band[bw - d, d:]
            _, _, x, info = dgbsv(bw, bw, lu, rhs, overwrite_ab=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK's banded solver")
    if info > 0:
        what = "singular matrix" if pivot else f"leading minor {info} not positive definite"
        raise np.linalg.LinAlgError(what)
    return x


def _path_newton(
    geom: _ConeGeometry, vvals: np.ndarray, lam: float, q: np.ndarray, certify, dv: np.ndarray
):
    """Primal-dual active-set (semismooth Newton) iteration on the 1D dual
    ``q``, a lattice of shape ``(1, n + 1)``.

    Each step takes the active edges and their signs from
    ``z = q + c D u``, with ``u = v - D^T q`` and ``c = dx^2 / 2``, then
    solves ``(D D^T)_AA q_A = (D v)_A - lam s_A`` with ``q = 0`` off the
    active set (Hintermüller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002).
    That system is solved in closed form (:func:`_path_step`), so no step
    factors a matrix.  A pattern that repeats is an exact KKT point, and the
    pair ``(u, q)`` is certified with the ``u`` and ``D^T q = v - u`` of the
    step that found it, and the edge slopes of ``u`` its pattern test took.
    ``dv`` is the lattice of the edge slopes of ``v``: those of ``u`` on a
    cold start, where ``q`` is zero and so ``u`` is ``v``.

    Returns ``(cert, q, solves)`` with the certificate of the final pair,
    which the caller checks; ``cert`` and ``q`` are None when no pattern
    repeated within ``NEWTON_MAX_STEPS`` solves, or when every edge became
    active (constants span the kernel of ``D D^T``, so it is singular).
    """
    dx = geom.grid.spacing[0]
    c = 0.5 * dx * dx
    pattern, solves = None, 0
    aq = edge_slopes_adjoint(geom.grid, q)
    u = vvals - aq
    du = edge_slopes(geom.grid, u) if q.any() else dv
    while True:
        z = q[0] + c * du[0]
        active = np.abs(z) > c * lam
        signs = np.sign(z) * active  # the signed pattern: 0 off the active edges
        if pattern is not None and (signs == pattern).all():
            return certify(u, q, du, aq), q, solves
        if solves == NEWTON_MAX_STEPS or active.all():
            return None, None, solves
        pattern = signs
        u, aq, q = _path_step(vvals, (lam * dx) * signs, active, dx)
        du = edge_slopes(geom.grid, u)
        solves += 1


def _path_step(vvals: np.ndarray, t: np.ndarray, active: np.ndarray, dx: float):
    """One step of :func:`_path_newton` in closed form: the minimiser ``u``
    of ``|u - v|^2 / 2`` whose slope on every active edge ``k`` is ``t_k /
    dx``, with ``D^T q = v - u`` and the dual ``q`` as a lattice.  ``t`` is
    ``lam dx`` times the signed pattern, 0 off the active edges, and not
    every edge is active.

    Edge ``k`` joins nodes ``k - 1`` and ``k``, so the active edges join the
    nodes into runs, a node off every active edge being a run of its own.
    On a run ``u`` is the potential ``P = cumsum(t)`` plus one constant
    ``C``: ``mean(v - P)`` over the run, but 0 on a run through edge 0
    (``u_0 = t_0``) and ``-t_n - P_{n-1}`` on one through edge n (``u_{n-1}
    = -t_n``).  ``v - u = (v - P) - C`` is then exactly 0 on a node of its
    own, and sums to 0 over every run through neither boundary edge.  So
    ``q_k = dx (S_L - sum_{i < k} (v - u)_i)`` on the active edges and 0
    elsewhere, ``S_L`` being the sum of ``v - u`` over the run through edge
    0 (0 if there is none).
    """
    n = vvals.size
    p = np.add.accumulate(t[:-1])
    cut = ~active  # runs start at node 0 and after each inactive edge; n ends the last
    cut[0] = cut[-1] = True
    bounds = np.flatnonzero(cut)
    size = bounds[1:] - bounds[:-1]
    r = vvals - p
    const = np.add.reduceat(r, bounds[:-1])
    const /= size
    if active[0]:
        const[0] = 0.0
    if active[-1]:
        const[-1] = -t[-1] - p[-1]
    r -= np.repeat(const, size)  # now v - u
    q = np.zeros(n + 1)  # first sum_{i < k} r_i at edge k, then the dual
    np.add.accumulate(r, out=q[1:])
    if active[0]:
        q -= q[bounds[1]]
    q *= -dx
    return vvals - r, r, np.where(active, q, 0.0)[None]


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
    gauge minimises ``|q|_1``, so it is a dual optimum.  Returns ``(u, q)``,
    ``q`` a lattice of shape ``(1, n + 1)``.
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
    return u, (p - np.median(p))[None]


class _Stencil(NamedTuple):
    """``D D^T`` of one grid over the positions of its dual lattice."""

    offsets: np.ndarray  # (k,): the offsets of the entries above the diagonal
    products: np.ndarray  # (k,): their values
    partners: np.ndarray  # (size, k): p + offsets[k], or size where none is coupled to p
    diag: np.ndarray  # (size,)


@lru_cache(maxsize=16)
def _stencil(grid: Grid) -> _Stencil:
    """The :class:`_Stencil` of ``grid``, built on first use.

    Lattice entry ``L[a][c]`` sits at position ``p = dim * ravel(c) + (dim -
    1 - a)``: cell by cell, the axes of a cell next to each other, the last
    axis first.  ``D D^T`` sums one outer product per interior node, padded
    node ``c``: on each axis it lies on the entry at ``c - e_a``
    (coefficient ``1 / h_a``) and on the one at ``c`` (``-1 / h_a``).  Two
    distinct entries share at most one node, so each off-diagonal entry is
    one node's product of two coefficients.  Positions are affine in the
    node, so each pair of a node's entries sits at one fixed offset, with
    one fixed product: the offsets are ``1`` in 1D, and ``1, 2, 3, 2W - 3,
    2W - 1, 2W`` with ``W = ny + 1`` in 2D.  With the axis along x first,
    they would be ``1, 2, 2W - 1, 2W, 2W + 1``: a band one row wider.  The
    structural zeros lie on no interior node, so their rows are empty.
    """
    dim = grid.dim
    cells = tuple(m + 1 for m in grid.counts)
    position = np.arange(dim * math.prod(cells)).reshape(cells + (dim,))[..., ::-1]
    inner = (slice(1, None),) * dim
    # per interior node, the positions of the 2 * dim entries it lies on
    ends, coef = [], []
    for a, h in enumerate(grid.spacing):
        back = inner[:a] + (slice(None, -1),) + inner[a + 1 :]
        ends += [position[back + (a,)].ravel(), position[inner + (a,)].ravel()]
        coef += [1.0 / h, -1.0 / h]
    diag = np.zeros(position.size)
    for e, ce in zip(ends, coef):
        diag[e] += ce * ce
    pairs = sorted(
        (
            (int(abs(eb[0] - ea[0])), ca * cb, np.minimum(ea, eb))
            for (ea, ca), (eb, cb) in itertools.combinations(zip(ends, coef), 2)
        ),
        key=lambda pair: pair[:2],
    )
    partners = np.full((position.size, len(pairs)), position.size)
    for k, (d, _, rows) in enumerate(pairs):
        partners[rows, k] = rows + d
    return _Stencil(
        offsets=np.array([d for d, _, _ in pairs]),
        products=np.array([p for _, p, _ in pairs]),
        partners=partners,
        diag=diag,
    )


def _newton_band(geom: _ConeGeometry, z, mag, active, lam: float, t: float, delta: float = 0.0):
    """The upper band of ``(M_A^{-1} - I) / c + D_A D_A^T + delta I`` over
    the active entries, for :func:`_banded_solve`; with it ``flat``, the
    flat lattice indices of the active entries in band order, and ``zh =
    z / |z_g|`` on them.  ``mag`` is ``geom.group_norm(z)``, ``active`` the
    lattice ``mag > t``.

    The entries are numbered in the order of their positions in
    :func:`_stencil`, cell by cell, so the band spans at most two grid lines
    of active entries.  Beyond one lattice-sized lookup from position to
    number, the work is on arrays of active size: each entry looks up its
    stencil partners' numbers, and one assignment puts the products of the
    active ones in the band.

    ``M`` is the Jacobian of ``shrink(., t)`` at ``z``, with ``t = c lam``:
    ``M_A^{-1} - I`` is ``a / (1 - a) (I - zh zh^T)`` on an active pair,
    with ``a = t / |z_g|``, and zero on a scalar constraint.  A pair's
    entries share a cell and so have consecutive numbers: its curvature is
    one update of the diagonal and one of the first superdiagonal.
    """
    dim = geom.grid.dim
    st = _stencil(geom.grid)
    cells = st.diag.size // dim
    axis, cell = np.divmod(np.flatnonzero(active), cells)
    pos = np.sort(dim * cell + (dim - 1 - axis))
    cell, axis = np.divmod(pos, dim)
    axis = dim - 1 - axis
    flat = axis * cells + cell
    seq = np.arange(pos.size)
    number = np.full(st.diag.size + 1, -1)  # by position; -1 off the active entries
    number[pos] = seq
    col = np.take(number, np.take(st.partners, pos, axis=0))
    lag = col - seq[:, None]
    bw = max(int(lag.max()), 0)
    band = np.zeros((bw + 1, pos.size))
    # A partner that is not active has number -1, so its product lands on
    # the last entry of the diagonal row: that row is then assigned, not
    # added to.
    band.reshape(-1)[(bw - np.maximum(lag, -1)) * pos.size + col] = st.products
    band[bw] = st.diag[pos]
    core = mag.take(flat)
    zh = z.take(flat) / core
    pair = geom.in_pair.take(flat)
    w = lam / (core - t)  # a / ((1 - a) c) on a pair's entries
    band[bw] += np.where(pair, w * (1.0 - zh * zh), 0.0)
    second = pair[1:] & (axis[1:] == 0)  # the entry along x of a pair, after the one along y
    band[bw - 1, 1:] -= np.where(second, w[1:] * (zh[:-1] * zh[1:]), 0.0)
    band[bw] += delta
    return band, flat, zh


def _first_break(geom: _ConeGeometry, z0, z1, t: float) -> float:
    """The first ``s`` in (0, 1) at which a constraint enters or leaves the
    active set (``|z_g| = t``) along ``z0 + s (z1 - z0)``; 1 if none does."""
    n0, n1, nd = geom.group_norm(z0), geom.group_norm(z1), geom.group_norm(z1 - z0)
    # |z0 + s dz|^2 - t^2 = a s^2 + b s + c0 on each entry's constraint
    a, c0 = nd * nd, n0 * n0 - t * t
    b = n1 * n1 - a - n0 * n0
    disc = b * b - 4.0 * a * c0
    ok = (a > 0.0) & (disc >= 0.0)
    root = np.sqrt(np.where(ok, disc, 0.0))
    den = np.where(ok, 2.0 * a, 1.0)
    first = 1.0
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
    certify,
    dv: np.ndarray,
    damped: bool = False,
):
    """Semismooth Newton iteration on the dual fixed point
    ``q = shrink(q + c D u, c lam)`` with ``u = v - D^T q`` and
    ``c = 2 / |D|^2`` (``h^2 / 4`` on a square grid), ``q`` a lattice.

    Each step takes the active constraints from ``z = q + c D u`` (those
    with ``|z_g| > c lam``), sets ``q = 0`` off them and solves

        ((M_A^{-1} - I) / c + D_A D_A^T) q_A = (D v)_A - lam zh_A

    with ``zh = z / |z_g|`` and ``M`` as in :func:`_newton_band`.  This is
    the Newton step ``(M_A^{-1} - I + c D_A D_A^T) dq_A = -M_A^{-1} F_A +
    c (D D^T)_AI q_I`` on ``F = q - shrink(z, c lam)`` solved for
    ``q_A + dq_A``, because ``M_A^{-1} - I`` annihilates ``shrink(z)_A``.  On
    scalar constraints it is the rule of :func:`_path_newton`.  On pairs
    the Jacobian moves with ``z``, so a repeated active pattern is not yet a
    KKT point: the iteration stops only when ``certify(u, q).ok`` holds.

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
    Cholesky factorization fails exactly when it is singular.  Each solve's
    pair is certified once, and in damped mode that certificate also gives
    the gap of the line search.  Each iterate takes one pass of each grid
    operator: ``D^T q``, then ``u`` and its edge slopes, which the
    certificate and the next ``z`` share.  ``dv`` is the lattice of the
    edge slopes of ``v``.  The right-hand side is one gather, and ``q_A``
    one scatter, through the flat indices that :func:`_newton_band` returns.

    Returns ``(cert, q, solves)`` with the certificate of the final pair
    ``(u, q)``; ``cert`` and ``q`` are None when nothing was certified
    within ``max_steps`` solves, when a block was not positive definite
    (loops of active edges carry divergence-free duals), or when halving a
    damped step found no lower gap.
    """
    c = 2.0 / geom.op_norm**2
    t = c * lam
    delta = POLISH_DAMPING * geom.op_norm**2 if damped else 0.0

    def evaluate(q):  # the edge slopes of u = v - D^T q, and the pair's certificate
        aq = edge_slopes_adjoint(geom.grid, q)
        u = vvals - aq
        du = edge_slopes(geom.grid, u)
        return du, certify(u, q, du, aq)

    solves = 0
    if damped:
        du, cert = evaluate(q)
        gap = cert.gap
    else:
        du = edge_slopes(geom.grid, vvals - edge_slopes_adjoint(geom.grid, q))
    while solves < max_steps:
        z = q + c * du
        mag = geom.group_norm(z)
        active = mag > t
        q_new = np.zeros_like(q)
        if active.any():
            band, flat, zh = _newton_band(geom, z, mag, active, lam, t, delta)
            rhs = dv.take(flat) - lam * zh
            if damped:
                rhs += delta * q.take(flat)
            try:
                q_act = _banded_solve(band, rhs, pivot=damped)
            except np.linalg.LinAlgError:  # singular
                return None, None, solves
            q_new.put(flat, q_act)
        solves += 1
        du_new, cert = evaluate(q_new)
        if damped:
            if not cert.gap < gap:
                s = _first_break(geom, z, q_new + c * du_new, t)
                halve = s >= 1.0
                s = 0.5 if halve else s
                while True:
                    q_try = q + s * (q_new - q)
                    du_try, cert = evaluate(q_try)
                    if not halve or cert.gap < gap:
                        break
                    s /= 2.0
                    if s < 1e-12:
                        return None, None, solves
                q_new, du_new = q_try, du_try
            gap = cert.gap
        q, du = q_new, du_new
        if cert.ok:
            return cert, q, solves
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
    unused) the steps are closed-form solves (:func:`_path_step`); if no
    active pattern repeats, or the result fails the certificate, the exact
    path dynamic program replaces it, and ``iterations`` counts the solves
    plus one.  Otherwise the steps are banded Cholesky solves, numbered
    cell by cell; when they cannot certify within ``min(NEWTON_MAX_STEPS,
    max_iter)`` solves, or a block is not positive definite,
    :func:`project_pdhg` takes over from ``warm_dual`` with the rest of the
    ``max_iter`` budget, and ``iterations`` counts the Newton solves plus
    the PDHG iterations, so it never exceeds ``max_iter``.  An admissible
    input returns itself with 0.  ``converged`` has the meaning it has in
    :func:`project_pdhg`.
    """
    geom = _geometry(v.grid, mode)
    _check_inputs(geom, lam, tol, warm_dual)
    vvals = v.values
    dv = edge_slopes(v.grid, vvals)
    top = geom.max_norm(dv)
    if top <= lam:
        return _admissible_result(geom, vvals, dv)
    if not math.isfinite(top):  # written to after its constructor checked it
        raise ValueError("height field contains non-finite values")

    certify = _certifier(geom, vvals, lam, tol)
    q0 = geom.zeros() if warm_dual is None else np.array(warm_dual, dtype=float)
    if v.grid.dim == 1:
        cert, q, solves = _path_newton(geom, vvals, lam, q0, certify, dv)
        if cert is None or not cert.ok:
            x, q = _path_dp(geom, vvals, lam)
            solves += 1
            cert = certify(x, q)
        return _finalize(geom, cert, q, lam, solves)
    steps = min(NEWTON_MAX_STEPS, max_iter)
    cert, q, solves = _grid_newton(geom, vvals, lam, q0, steps, certify, dv)
    if cert is None:
        res = project_pdhg(
            v, lam, tol=tol, max_iter=max_iter - solves, mode=mode, warm_dual=warm_dual
        )
        res.iterations += solves
        return res
    return _finalize(geom, cert, q, lam, solves)


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
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    predicted = HeightField(u_prev.grid, u_prev.values + dt * np.asarray(g, dtype=float))
    res = project(predicted, lam, tol=tol, max_iter=max_iter, mode=mode, warm_dual=warm_dual)
    res.m.values /= dt  # a new array on every route, so scaling it in place is safe
    return res

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
shares a cell of the padding with structural zeros.  So every route
measures a constraint one way: its magnitude is
:func:`~barchan.grid.constraint_magnitude`, the cell norm when paired (one
entry per cell) and ``|L|`` otherwise, and it exists where the geometry's
bool mask ``keep`` holds (see :class:`_ConeGeometry`).

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
    definite, the PDHG route :func:`_pdhg` takes over on the same problem.

PDHG stays the 2D fallback, the oracle the tests hold ``project`` to, and
the verifier's projection.  On a 2D grid, when its gap stalls (a
degenerate active set: loops of active edges, or pairs that touch a
boundary bound), it hands its iterate to a damped Newton polish.  Every
route certifies the pair it returns once, with the same duality-gap
certificate, and ``converged`` is that certificate's verdict on all of
them, a PDHG run out of iterations included.  Each call of either solver
builds one checked problem, :class:`_Problem`: the input checks, the
input's edge slopes, the finiteness test, the admissible short-cut and the
start dual.  Every route (:func:`_path_newton`, :func:`_path_dp`,
:func:`_grid_newton`, :func:`_pdhg`) takes it with a dual and certifies
with its ``certify``; the solver builds the result once, with its
``result``.

The multiplier field m is recovered from the dual vector: at a node whose
slope constraint is active the dual magnitude equals m * lam, so
m = |dual| / lam there and is exactly zero on inactive nodes.

The 2D Newton solves call LAPACK from scipy's compiled extension
``scipy.linalg._flapack``, loaded alone on the first of them: the
``scipy.linalg`` package costs about 0.16 s to import, more than the rest
of the solver, and a 1D projection loads no scipy at all.  Each solve is
``dpbsv`` (banded Cholesky), or ``dgbsv`` (banded LU with partial
pivoting) when a damped polish meets an indefinite block.  LAPACK runs
under the caller's BLAS thread count.  The root ``conftest.py`` and
``perfbench/run.py`` pin it to one thread; library callers are not
pinned.  On these narrow bands that matters: for 314 unknowns the banded
Cholesky and solve took 704 us unpinned against 207 us pinned (2 cores).
"""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np

from .grid import (
    TOL_CONSTRAINT,
    Grid,
    HeightField,
    _Field,
    _check_int,
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
# path dynamic program in 1D, PDHG otherwise) takes over.  On the 64x64
# dune of perfbench's dune2d, seeds 0-15, no projection takes more than 5:
# the cold start projection and step 1 take 5 on every seed, later steps 2
# or 3.  The cap also decides when a degenerate input falls back, so it
# is kept well above that.
NEWTON_MAX_STEPS = 16
# Relative Tikhonov weight of a damped Newton solve (see _grid_newton): far
# below every nonzero eigenvalue of a block, enough to factor a singular one.
POLISH_DAMPING = 1e-12
_AS_IS = contextlib.nullcontext()  # numpy's error state left as it is

class NonConvergedError(RuntimeError):
    """Raised in strict mode for a projection whose result fails its
    certificate (``converged`` False), out of iterations or not."""


class MultiplierField(_Field):
    """Nonnegative dual density approximating the unknown diffusion
    coefficient; nonzero only where the slope constraint is active.  Checked
    as :class:`~barchan.grid.HeightField` is, and for its sign; a
    projection's own is a sum of dual magnitudes, built unchecked."""

    _what = "multiplier"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.values < 0.0).any():
            raise ValueError("multiplier must be nonnegative")


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
    """The slope constraints of one grid and constraint mode on the lattice
    of :func:`edge_slopes`.  Its arrays are read-only, so :func:`_geometry`
    shares one per pair.

    When ``paired`` the two entries of an interior cell form a Euclidean
    pair; every other edge is its own constraint.  A constraint's magnitude
    is ``constraint_magnitude(q, paired)``, and it exists where ``keep``
    is True: ``keep`` is False on the structural zeros and on the
    ``implied`` constraints (see :func:`_implied_edges`), which carry no
    dual.  ``in_pair`` marks the entries of the pairs.
    """

    def __init__(self, grid: Grid, mode: str):
        self.grid = grid
        self.paired = paired(grid, mode)
        self.op_norm = 2.0 * math.sqrt(sum(1.0 / s**2 for s in grid.spacing))
        self.implied = _implied_edges(grid, self.paired)
        self.shape = grid._layout.shape
        self.keep = np.zeros(self.shape, dtype=bool)
        for a in range(grid.dim):
            axis_edges(self.keep, a)[...] = True
        for a, ix in self.implied:
            axis_edges(self.keep, a)[ix] = False
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

    def shrink(self, q, t: float) -> np.ndarray:
        """prox of t * (sum of per-constraint magnitudes): magnitude
        soft-threshold, producing hard zeros below t and off ``keep``."""
        g = constraint_magnitude(q, self.paired)
        return np.where((g > t) & self.keep, q * (1.0 - t / np.maximum(g, t)), 0.0)

    def multiplier(self, mag, lam: float) -> np.ndarray:
        """Per-node multiplier from the constraint magnitudes ``mag`` of a
        dual (:func:`constraint_magnitude`): those each interior node hosts."""
        return hosted(mag).sum(0) / lam


@lru_cache(maxsize=16)
def _geometry(grid: Grid, mode: str) -> _ConeGeometry:
    return _ConeGeometry(grid, mode)


class _Certificate(NamedTuple):
    """Duality-gap certificate of a primal-dual pair ``(x, q)``.

    ``dx`` holds the edge slopes of ``x`` (a lattice), ``viol`` its slope
    violation; ``xf`` is ``x`` scaled by ``lam / (lam + viol)``, which
    restores exact feasibility because edge slopes are linear in the field;
    ``qmag`` holds the constraint magnitudes of ``q``
    (:func:`constraint_magnitude`), which the dual objective sums and the
    multiplier reads; ``gap`` is the duality gap of ``(xf, q)`` and ``err =
    sqrt(2 gap)`` the L2 error of ``xf`` it certifies.  ``ok`` holds when
    ``err`` is at most ``tol`` (or the gap is at its rounding floor) and
    ``viol`` is within ``TOL_CONSTRAINT``.
    """

    dx: np.ndarray
    viol: float
    xf: np.ndarray
    qmag: np.ndarray
    gap: float
    err: float
    ok: bool


def _gap_floor(vvals: np.ndarray) -> float:
    """Rounding floor below which the computed gap is meaningless."""
    eps = sys.float_info.epsilon
    scale = 1.0 + float((vvals * vvals).sum())
    return 64.0 * eps * scale


class _Problem:
    """One projection of ``v`` onto the ``lam``-cone, checked once where a
    solver starts, holding what every route shares: the grid, its cone
    geometry ``geom``, the values ``v``, ``lam``, ``tol`` and the edge
    slopes ``dv`` of ``v``, and the gap's rounding ``floor`` once a
    certificate needs it.  Unless ``admissible``, it also holds the start
    dual ``q0`` (``warm_dual``, which no route writes into, so it is not
    copied, or zero); an admissible ``v`` needs no iteration, and
    :meth:`kept` is its result.

    Raises ``ValueError`` on a bad ``lam``, ``tol``, ``mode`` or
    ``warm_dual`` shape, on a non-finite value in ``v`` (written after its
    constructor checked it, or in the unchecked field
    :func:`resolvent_step` predicts) before any slope of it is taken, on
    finite values whose slopes overflow, and, unless ``v`` is admissible,
    on a non-finite entry of ``warm_dual``, which would otherwise run the
    whole budget.  The short-cut reads no dual, so it pays for no pass
    over one: checked on every projection, that pass cost ``dune1d`` 3.2%
    of its wall time, and 1.5% checked only where a route starts (six
    alternating benchmark runs each, 2 cores).
    """

    def __init__(self, v: HeightField, lam: float, tol: float, mode: str, warm_dual):
        self.geom = geom = _geometry(v.grid, mode)
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {lam}")
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {tol}")
        shape = getattr(warm_dual, "shape", None)  # an array's; None for a tuple or list
        if warm_dual is not None and shape != geom.shape:
            raise ValueError(f"warm_dual must be a dual lattice of shape {geom.shape}, got {shape}")
        self.grid, self.v, self.lam, self.tol = v.grid, v.values, lam, tol
        # One reduction, before any slope is taken (inf - inf would warn),
        # finds a non-finite value and bounds every constraint magnitude by
        # big * op_norm.  Where that bound lets a slope or its square
        # overflow, the slopes are taken with the overflow warning off: an
        # overflow raises below, so it warns of nothing.  Entering
        # np.errstate on every projection cost dune1d 4.6% of its wall time
        # (ten paired benchmark runs on 2 cores).
        big = float(np.abs(self.v).max())  # NaN or inf when a value is not finite
        if not big < math.inf:
            raise ValueError("height field contains non-finite values")
        with np.errstate(over="ignore") if big * geom.op_norm > 1e150 else _AS_IS:
            self.dv = edge_slopes(self.grid, self.v)
            top = geom.max_norm(self.dv)
        if not math.isfinite(top):
            raise ValueError("height field has finite values whose slopes overflow")
        self.admissible = top <= lam
        if not self.admissible:
            self.q0 = geom.zeros() if warm_dual is None else np.asarray(warm_dual, dtype=float)
            if not np.isfinite(self.q0).all():
                raise ValueError("warm_dual contains non-finite values")

    def slopes_at(self, q) -> np.ndarray:
        """The edge slopes of ``u = v - D^T q``, where a Newton loop starts
        from the dual ``q``: ``dv`` for a zero dual, which takes no pass."""
        if not q.any():
            return self.dv
        return edge_slopes(self.grid, self.v - edge_slopes_adjoint(self.grid, q))

    @cached_property
    def floor(self) -> float:
        """The gap's rounding floor (:func:`_gap_floor`), taken once, when
        a certificate first needs it."""
        return _gap_floor(self.v)

    def kept(self) -> ProjectionResult:
        """The result of an admissible ``v``: a copy, with zero multiplier and dual."""
        u = _unchecked(HeightField, self.grid, self.v.copy())
        m = _unchecked(MultiplierField, self.grid, np.zeros(self.grid.shape))
        return ProjectionResult(u, m, 0, 0.0, 0.0, True, self.geom.zeros(), self.dv)

    def certify(self, x, q, dx=None, aq=None) -> _Certificate:
        """The :class:`_Certificate` of the pair ``(x, q)``, ``q`` a lattice.
        ``dx`` and ``aq`` are ``D x`` and ``D^T q``; a loop that has them
        already passes them in, and each one left out is computed here, with
        the same result.  The ``floor`` is read only for an error above
        ``tol``, the one case it decides."""
        geom, lam, vvals = self.geom, self.lam, self.v
        if dx is None:
            dx = edge_slopes(self.grid, x)
        if aq is None:
            aq = edge_slopes_adjoint(self.grid, q)
        viol = max(0.0, geom.max_norm(dx) - lam)
        xf = x * (lam / (lam + viol)) if viol > 0.0 else x
        primal = 0.5 * float(((xf - vvals) ** 2).sum())
        qmag = constraint_magnitude(q, geom.paired)
        dual = -lam * float(qmag.sum()) - 0.5 * float((aq * aq).sum()) + float(np.vdot(aq, vvals))
        gap = primal - dual
        err = math.sqrt(2.0 * max(gap, 0.0))
        max_viol = lam * TOL_CONSTRAINT + TOL_CONSTRAINT
        ok = (err <= self.tol or gap <= self.floor) and viol <= max_viol
        return _Certificate(dx, viol, xf, qmag, gap, err, ok)

    def result(self, cert: _Certificate, q, iterations: int) -> ProjectionResult:
        """The result for dual ``q`` and its certificate: the feasible field
        ``cert.xf`` (a new array on every route, so it is not copied),
        flagged ``converged`` when the certificate passed, with the multiplier
        of ``cert.qmag``.  When ``cert.viol``
        is 0, ``xf`` is the certified ``x``, with slopes ``cert.dx`` and
        violation exactly 0; otherwise both are evaluated here for the
        rescaled field.  The fields are built unchecked: a NaN in ``cert.xf``
        or ``q`` makes the gap NaN (not ``viol``: ``max(0.0, nan)`` is 0), so
        such a gap raises."""
        if not math.isfinite(cert.gap):
            raise ValueError(f"projection iterate is not finite (duality gap {cert.gap})")
        viol, slopes = 0.0, cert.dx
        if cert.viol > 0.0:
            slopes = edge_slopes(self.grid, cert.xf)
            viol = max(0.0, self.geom.max_norm(slopes) - self.lam)
        return ProjectionResult(
            u=_unchecked(HeightField, self.grid, cert.xf),
            m=_unchecked(MultiplierField, self.grid, self.geom.multiplier(cert.qmag, self.lam)),
            iterations=iterations,
            primal_dual_gap=cert.err,
            constraint_violation=viol,
            converged=cert.ok,
            dual=q,
            slopes=slopes,
        )


def project_pdhg(
    v: HeightField,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "isotropic",
    warm_dual=None,
) -> ProjectionResult:
    """Primal-dual projection of ``v`` onto the lam-cone, started from
    ``warm_dual`` (zero if None): the :class:`_Problem` checks, the
    admissible short-cut, then :func:`_pdhg`.

    Terminates when the certified error is at or below ``tol`` (or at the
    rounding floor of the gap) and the slope violation is within
    ``TOL_CONSTRAINT``.  On ``max_iter`` exhaustion the last iterate is
    returned, flagged ``converged`` by that same certificate; caller policy
    decides what to do with a pair that fails it.  ``iterations`` counts
    the PDHG iterations plus the solves of any Newton polish, and never
    exceeds ``max_iter``.

    ``warm_dual`` seeds the dual vector (useful across resolvent steps);
    it never changes the limit, only the iteration count.  ``max_iter``
    must be an integer of at least 1, as for :func:`project`; any other
    raises ``ValueError``.
    """
    _check_int("max_iter", max_iter, 1)
    p = _Problem(v, lam, tol, mode, warm_dual)
    if p.admissible:
        return p.kept()
    return p.result(*_pdhg(p, p.q0, max_iter))


def _pdhg(p: _Problem, q: np.ndarray, max_iter: int):
    """Chambolle-Pock iteration on problem ``p`` from the dual ``q``, the
    route of :func:`project_pdhg` and of :func:`project`'s 2D fallback.

    Plain primal-dual steps with an adaptive restart of the overrelaxation
    whenever the duality gap stalls; the restart recovers the linear tail
    convergence this strongly convex problem admits.  On a degenerate 2D
    problem it does not: the dual crawls along the loops of its active set.
    So in 2D a restart also starts a damped :func:`_grid_newton` from the
    current dual, at most once per doubling of the iteration count; if it
    certifies, its pair is returned, and its solves count towards
    ``max_iter`` and the iterations.

    Returns ``(cert, q, iterations)`` with the certificate of the final
    pair, certified or not.  ``max_iter`` may be 0 (what :func:`project`'s
    Newton steps left): the start pair ``(v, q)`` is then certified as it is.
    """
    geom, grid, vvals = p.geom, p.grid, p.v
    L = geom.op_norm
    tau = 2.0 / L
    sigma = 0.98 / (tau * L * L)

    x = xbar = vvals.copy()  # neither is written into
    check_every = 16
    best_gap = math.inf
    stall = 0
    polish_at = 0

    it = solves = 0
    while it + solves < max_iter:
        it += 1
        q = geom.shrink(q + sigma * edge_slopes(grid, xbar), sigma * p.lam)
        x_new = (x - tau * edge_slopes_adjoint(grid, q) + tau * vvals) / (1.0 + tau)
        xbar = x_new + (x_new - x)  # the overrelaxation, theta = 1
        x = x_new

        if it % check_every == 0:
            cert = p.certify(x, q)
            if cert.ok:
                break
            # Restart the extrapolation when the gap stops shrinking
            # geometrically; this re-anchors the iteration near the
            # current point and restores the local linear rate.
            if cert.gap > 0.7 * best_gap:
                stall += 1
                if stall >= 4:
                    xbar = x
                    stall = 0
                    # In 2D a lasting stall is a degenerate active set.
                    if grid.dim > 1 and it >= polish_at:
                        polish_at = 2 * it
                        steps = min(NEWTON_MAX_STEPS, max_iter - it - solves)
                        polished, qn, k = _grid_newton(p, q, steps, damped=True)
                        solves += k
                        if polished is not None:
                            cert, q = polished, qn
                            break
            else:
                stall = 0
            best_gap = min(best_gap, cert.gap)
    else:
        cert = p.certify(x, q)

    return cert, q, it + solves


@cache
def _lapack():
    """LAPACK's ``(dpbsv, dgbsv)`` from scipy's compiled extension
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
    return flapack.dpbsv, flapack.dgbsv


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
    Pivoted, ``dgbsv`` solves every band on its ``3 bw + 1``-row layout
    (``bw`` rows of fill, the upper band and the mirrored lower band).
    """
    dpbsv, dgbsv = _lapack()
    _, x, info = dpbsv(band, rhs)
    if info > 0 and pivot:
        bw = band.shape[0] - 1
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


def _path_newton(p: _Problem, q: np.ndarray):
    """Primal-dual active-set (semismooth Newton) iteration on the 1D dual
    ``q`` of problem ``p``, a lattice of shape ``(1, n + 1)``.

    Each step takes the active edges and their signs from
    ``z = q + c D u``, with ``u = v - D^T q`` and ``c = dx^2 / 2``, then
    solves ``(D D^T)_AA q_A = (D v)_A - lam s_A`` with ``q = 0`` off the
    active set (Hintermüller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002).
    That system is solved in closed form (:func:`_path_step`), so no step
    factors a matrix.  A pattern that repeats is an exact KKT point, and the
    pair ``(u, q)`` is certified with the ``u`` and ``D^T q = v - u`` of the
    step that found it, and the edge slopes of ``u`` its pattern test took.
    On a cold start ``q`` is zero, so ``u`` is ``v`` and its edge slopes are
    ``p.dv``.

    Returns ``(cert, q, solves)`` with the certificate of the final pair,
    which the caller checks; ``cert`` and ``q`` are None when no pattern
    repeated within ``NEWTON_MAX_STEPS`` solves, or when every edge became
    active (constants span the kernel of ``D D^T``, so it is singular).
    """
    dx = p.grid.spacing[0]
    c = 0.5 * dx * dx
    pattern, solves = None, 0
    du = p.slopes_at(q)
    while True:
        z = q[0] + c * du[0]
        active = np.abs(z) > c * p.lam
        signs = np.sign(z) * active  # the signed pattern: 0 off the active edges
        if pattern is not None and (signs == pattern).all():
            return p.certify(u, q, du, aq), q, solves
        if solves == NEWTON_MAX_STEPS or active.all():
            return None, None, solves
        pattern = signs
        u, aq, q = _path_step(p.v, (p.lam * dx) * signs, active, dx)
        du = edge_slopes(p.grid, u)
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
    bounds = cut.nonzero()[0]
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


def _path_dp(p: _Problem):
    """Exact 1D projection of problem ``p`` by dynamic programming along the path.

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
    vvals, dx = p.v, p.grid.spacing[0]
    h = p.lam * dx
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
    sums = np.concatenate(([0.0], -dx * np.cumsum(vvals - u)))
    return u, (sums - np.median(sums))[None]


class _Stencil(NamedTuple):
    """``D D^T`` of one grid over the positions of its dual lattice, and
    the lattice entry at each position."""

    products: np.ndarray  # (k,): the values of the entries above the diagonal
    partners: np.ndarray  # (size, k): p + the k-th offset, or size where none is coupled to p
    diag: np.ndarray  # (size,)
    lattice: np.ndarray  # (size,): the flat lattice index of the entry at position p
    position: np.ndarray  # (size,): the inverse of lattice, the position of each flat index


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
    ``lattice`` inverts the numbering: the flat index ``a * prod(cells) +
    ravel(c)`` of the entry at each position; ``position`` is the
    numbering itself, by flat index.
    """
    dim, lay = grid.dim, grid._layout
    cells = lay.shape[1:]
    position = np.arange(dim * lay.size).reshape(cells + (dim,))[..., ::-1]
    by_flat = np.moveaxis(position, -1, 0).ravel()
    lattice = np.argsort(by_flat)
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
        products=np.array([p for _, p, _ in pairs]),
        partners=partners,
        diag=diag,
        lattice=lattice,
        position=by_flat,
    )


def _newton_band(geom: _ConeGeometry, z, mag, active, lam: float, t: float):
    """The upper band of ``(M_A^{-1} - I) / c + D_A D_A^T`` over the active
    entries, for :func:`_banded_solve`; with it ``flat``, the flat lattice
    indices of the active entries in band order, and ``zh = z / |z_g|`` on
    them.  The constraints are measured as everywhere (see
    :class:`_ConeGeometry`): ``mag`` is ``constraint_magnitude(z,
    geom.paired)``, one entry per cell when paired, so an entry reads its
    magnitude at ``flat % mag.size``, and ``active`` is the lattice ``(mag
    > t) & geom.keep``.

    The entries are numbered in the order of their positions in
    :func:`_stencil`, cell by cell, so the band spans at most two grid lines
    of active entries.  The active entries are found in flat order and
    sorted by position through the stencil's ``position``; each looks up
    its stencil partners' numbers in a table by position, the one array of
    lattice size, and one assignment puts the products of the active ones
    in the band.

    ``M`` is the Jacobian of ``shrink(., t)`` at ``z``, with ``t = c lam``:
    ``M_A^{-1} - I`` is ``a / (1 - a) (I - zh zh^T)`` on an active pair,
    with ``a = t / |z_g|``, and zero on a scalar constraint.  A pair's
    entries share a cell and so have consecutive numbers: its curvature is
    one update of the diagonal and one of the first superdiagonal.
    """
    st = _stencil(geom.grid)
    pos = np.sort(st.position.take(np.flatnonzero(active)))  # the active positions, in order
    flat = st.lattice.take(pos)
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
    core = mag.take(flat % mag.size)  # a pair's entries share their cell's magnitude
    zh = z.take(flat) / core
    pair = geom.in_pair.take(flat)
    w = lam / (core - t)  # a / ((1 - a) c) on a pair's entries
    band[bw] += np.where(pair, w * (1.0 - zh * zh), 0.0)
    # the entry along x of a pair, after the one along y: axis 0's entries
    # are the first prod(cells) of the flat lattice
    second = pair[1:] & (flat[1:] < geom.grid._layout.size)
    band[bw - 1, 1:] -= np.where(second, w[1:] * (zh[:-1] * zh[1:]), 0.0)
    return band, flat, zh


def _first_break(geom: _ConeGeometry, z0, z1, t: float) -> float:
    """The first ``s`` in (0, 1) at which a constraint enters or leaves the
    active set (``|z_g| = t``) along ``z0 + s (z1 - z0)``; 1 if none does."""
    n0, n1, nd = (constraint_magnitude(z, geom.paired) for z in (z0, z1, z1 - z0))
    # |z0 + s dz|^2 - t^2 = a s^2 + b s + c0 on each constraint
    a, c0 = nd * nd, n0 * n0 - t * t
    b = n1 * n1 - a - n0 * n0
    disc = b * b - 4.0 * a * c0
    ok = geom.keep & (a > 0.0) & (disc >= 0.0)
    root = np.sqrt(np.where(ok, disc, 0.0))
    den = np.where(ok, 2.0 * a, 1.0)
    first = 1.0
    for s in ((-b - root) / den, (-b + root) / den):
        s = s[ok & (s > 1e-12) & (s < first)]
        if s.size:
            first = float(s.min())
    return first


def _grid_newton(p: _Problem, q, max_steps: int, damped: bool = False):
    """Semismooth Newton iteration of problem ``p`` on the dual fixed point
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
    KKT point: the iteration stops only when ``p.certify(u, q).ok`` holds.

    ``damped`` is for a start near the solution of a degenerate problem
    (PDHG's stalled iterate).  Each solve then adds ``delta =
    POLISH_DAMPING |D|^2`` to the diagonal of the block that
    :func:`_newton_band` builds, and ``delta`` times the current ``q_A`` to
    the right-hand side, so a loop of active edges keeps its dual instead of
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
    certificate and the next ``z`` share; a cold start (``q`` zero, so
    ``u`` is ``v``) takes none and starts from ``p.dv``, as
    :func:`_path_newton` does.  The right-hand side is one
    gather from ``p.dv``, the edge slopes of ``v``, and ``q_A`` one scatter,
    through the flat indices that :func:`_newton_band` returns.

    Returns ``(cert, q, solves)`` with the certificate of the final pair
    ``(u, q)``; ``cert`` and ``q`` are None when nothing was certified
    within ``max_steps`` solves, when a block was not positive definite
    (loops of active edges carry divergence-free duals), or when halving a
    damped step found no lower gap.
    """
    c = 2.0 / p.geom.op_norm**2
    t = c * p.lam
    delta = POLISH_DAMPING * p.geom.op_norm**2

    def evaluate(q):  # the edge slopes of u = v - D^T q, and the pair's certificate
        aq = edge_slopes_adjoint(p.grid, q)
        u = p.v - aq
        du = edge_slopes(p.grid, u)
        return du, p.certify(u, q, du, aq)

    solves = 0
    if damped:
        du, cert = evaluate(q)
        gap = cert.gap
    else:
        du = p.slopes_at(q)
    while solves < max_steps:
        z = q + c * du
        mag = constraint_magnitude(z, p.geom.paired)
        active = (mag > t) & p.geom.keep
        q_new = np.zeros_like(q)
        if active.any():
            band, flat, zh = _newton_band(p.geom, z, mag, active, p.lam, t)
            rhs = p.dv.take(flat) - p.lam * zh
            if damped:
                band[-1] += delta  # the diagonal
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
                s = _first_break(p.geom, z, q_new + c * du_new, t)
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
    max_iter)`` solves, or a block is not positive definite, the PDHG route
    of :func:`project_pdhg` (:func:`_pdhg`) takes over on the same checked
    problem, from ``warm_dual`` with the rest of the ``max_iter`` budget
    (which may be none), and ``iterations`` counts the Newton solves plus
    the PDHG iterations, so it never exceeds ``max_iter``.  Every route
    ends in one result.  An admissible input returns itself with 0.
    ``converged`` has the meaning it has in :func:`project_pdhg`.
    ``max_iter`` must be an integer of at least 1, in 1D too; any other
    raises ``ValueError``.
    """
    _check_int("max_iter", max_iter, 1)
    p = _Problem(v, lam, tol, mode, warm_dual)
    if p.admissible:
        return p.kept()
    if p.grid.dim == 1:
        cert, q, solves = _path_newton(p, p.q0)
        if cert is None or not cert.ok:
            x, q = _path_dp(p)
            solves += 1
            cert = p.certify(x, q)
    else:
        cert, q, solves = _grid_newton(p, p.q0, min(NEWTON_MAX_STEPS, max_iter))
        if cert is None:
            cert, q, iterations = _pdhg(p, p.q0, max_iter - solves)
            solves += iterations
    return p.result(cert, q, solves)


def _best_multiple(grid: Grid, v: np.ndarray, q: np.ndarray, lam: float, mode: str) -> float:
    """The multiple ``s >= 0`` of the dual lattice ``q`` that maximises the
    dual objective of projecting ``v`` (values on ``grid``) along ``q``,

        s* = max(0, (<D^T q, v> - lam |q|_1) / |D^T q|^2):

    the objective ``<D^T s q, v> - lam |s q|_1 - |D^T s q|^2 / 2`` is a
    concave quadratic in ``s``.  It is 0 when the numerator is not positive,
    ``D^T q = 0`` included.  The stepper starts its first time step from
    the start projection's dual at this multiple (see :func:`~barchan.stepper.run`).
    """
    aq = edge_slopes_adjoint(grid, q)
    num = float(np.vdot(aq, v)) - lam * float(constraint_magnitude(q, paired(grid, mode)).sum())
    return num / float(np.vdot(aq, aq)) if num > 0.0 else 0.0


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

    ``g`` is a field of the grid's shape or a scalar (the start projection's
    ``0.0``); any other shape raises the checked field's ``ValueError`` here,
    also one that numpy would broadcast to the grid's shape.
    A non-finite predicted value (from ``g``, or written into ``u_prev``
    after its check) raises ``ValueError`` where the projection starts,
    before any slope of it is taken (:class:`_Problem`), so it warns of no
    invalid operation first.  ``max_iter`` is checked as :func:`project`
    checks it.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    g = np.asarray(g, dtype=float)
    if g.ndim and g.shape != u_prev.grid.shape:
        HeightField(u_prev.grid, g)  # raises the checked field's shape error
    predicted = _unchecked(HeightField, u_prev.grid, u_prev.values + dt * g)  # project checks it
    res = project(predicted, lam, tol=tol, max_iter=max_iter, mode=mode, warm_dual=warm_dual)
    # A new array on every route, so scaling it in place is safe.  Only the
    # admissible short-cut, whose multiplier is zero, returns without an
    # iteration.
    if res.iterations:
        res.m.values /= dt
    return res

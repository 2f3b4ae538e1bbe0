"""Post-hoc verification of the defining inequalities on computed runs.

A trajectory claims to solve the constrained flow; these checks hold it to
the definition: the truncated variational inequality against admissible
test fields, the multiplier complementarity, and the stability estimates
(L2 nonexpansiveness without wind, an exponential L1 envelope with wind).

The inner integral of the energy pairing,

    A(u) = integral_0^u clamp(s - xi, -k, k) ds,

is evaluated in closed form (a shifted Huber function), so no quadrature
error enters the residual.  The distributional-in-time inequality is
tested through difference quotients of consecutive snapshots, the direct
discrete analog of the smooth-in-time formulation; the truncation argument
is taken at the newer snapshot, matching the frozen-flux structure of the
splitting, which makes the residual vanish identically on stationary runs.

One residual call covers every snapshot interval of a run and a block of
test functions at once: once per report the snapshots are stacked as one
``(S, *grid)`` array and the interval fluxes and sources as two
``(S - 1, *grid)`` arrays; the energies and pairings are broadcasts of the
block's ``(X, 1, *grid)`` stack against them, each field summed in the
order of :func:`~barchan.grid.integrate`, so the residuals equal those of
one test function at a time bit for bit.  The block is bounded because its
``(X, S, *grid)`` temporaries are the report's peak memory; one call per
truncation level k stays, so that a tracer or a test stub that replaces
:func:`vi_residual` sees each level with a scalar k.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .constitutive import gamma_sup_on, h_sup, lipschitz_bound
from .grid import (
    Grid,
    HeightField,
    admissible,
    dist_to_boundary,
    integrate,
    node_slope_magnitude,
)
from .kernels import DiscreteKernel
from .projection import project_pdhg
from .stepper import (
    ModelParams,
    Trajectory,
    kernel_for,
    source_eval,
    transport_flux,
)

COMP_TOL = 1e-6
# Memory budget of one (X, S, *grid) temporary of a vi_residual call in
# vi_report, which sets how many test functions each call takes.
_VI_BLOCK_BYTES = 128 * 1024
# Rounding slack of the L2 monotonicity check of a contraction report.
STEP_TOL = 1e-8


@dataclass
class TestFunctionSet:
    """Admissible test fields: canonical members plus projected noise."""

    xis: list[HeightField]
    seed: int
    k_levels: tuple[float, ...] = (0.01, 0.1, 1.0, np.inf)


@dataclass
class VIRecord:
    xi_index: int
    k: float
    t: float
    residual: float


@dataclass
class VIReport:
    records: list[VIRecord]
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


@dataclass
class ComplementarityReport:
    products: np.ndarray
    worst: float
    tol: float = COMP_TOL

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


@dataclass
class ContractionReport:
    times: np.ndarray
    l1_series: np.ndarray
    l2_series: np.ndarray
    envelope_constant: float
    env_tol: float
    l1_envelope_ok: bool
    l2_nonincreasing: bool
    step_tol: float = STEP_TOL


def truncate(z, k: float, out=None):
    """The clamp max(min(r, k), -k), into ``out`` if given; k = inf is the
    identity and returns ``z``."""
    if np.isinf(k):
        return z
    return np.clip(z, -k, k, out=out)


def _clamp_antiderivative(z: np.ndarray, k: float) -> np.ndarray:
    """G_k(z) = integral_0^z clamp(s, -k, k) ds, the Huber function.  Its
    linear and quadratic parts are built in place, so it holds two arrays
    of the size of ``z`` (and a mask) at a time."""
    if np.isinf(k):
        return 0.5 * z * z
    a = np.abs(z)
    inside = a <= k
    a *= k
    a -= 0.5 * k * k
    quad = 0.5 * z
    quad *= z
    np.copyto(a, quad, where=inside)
    return a


def energy(u: HeightField, xi: HeightField, k: float) -> float:
    """Sum over nodes of integral_0^u clamp(s - xi, -k, k) ds, closed form."""
    z1 = _clamp_antiderivative(u.values - xi.values, k)
    z0 = _clamp_antiderivative(-xi.values, k)
    return integrate(u.grid, z1 - z0)


def make_test_functions(
    grid: Grid, lam: float, count: int, seed: int, mode: str = "isotropic"
) -> TestFunctionSet:
    """Canonical admissible fields (zero, the maximal cone, hats) plus
    random members built by projecting smoothed noise onto the cone: the
    first ``count`` of them, which must be nonnegative."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    dist = dist_to_boundary(grid)
    # At ridge kinks of the distance cone every forward difference hits
    # -lam at once, so the discrete isotropic slope reaches lam * sqrt(dim);
    # the canonical members are scaled down accordingly in that mode.
    kink = np.sqrt(grid.dim) if mode == "isotropic" else 1.0
    xis = [HeightField.zeros(grid), HeightField(grid, lam / kink * dist)]

    # Hat centres, cut to the grid's axes.
    for scale, c in zip((1.0, 0.5), [(0.35, 0.5), (0.6, 0.45)]):
        c = c[: grid.dim]
        w = min(min(ca, e - ca) for ca, e in zip(c, grid.extents)) / 2.0
        r = np.sqrt(reduce(np.add, [(x - ca) ** 2 for x, ca in zip(grid.meshgrid(), c)]))
        hat = np.maximum(0.0, lam / kink * (w - r))
        xis.append(HeightField(grid, scale * hat))

    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(max(count - len(xis), 0), *grid.shape))
    for _ in range(2):
        raw = 0.5 * raw + 0.25 * (np.roll(raw, 1, axis=1) + np.roll(raw, -1, axis=1))
    for r in raw:
        top = max(np.max(node_slope_magnitude(HeightField(grid, r), mode)), 1e-12)
        xis.append(project_pdhg(HeightField(grid, r * (0.9 * lam / top)), lam, mode=mode).u)
    xis = xis[:count]

    for i, xi in enumerate(xis):
        if not admissible(xi, lam, mode) or np.max(np.abs(xi.values)) > lam * grid.diameter + 1e-9:
            raise RuntimeError(f"test function {i} is not admissible for lam={lam}, mode={mode!r}")
    return TestFunctionSet(xis=xis, seed=seed)


def _interval_drives(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The snapshots stacked as one ``(S, *grid)`` array, and the wind fluxes
    and sources of the snapshot intervals, each taken at the interval's
    older snapshot, as two stacked ``(S - 1, *grid)`` arrays; none of them
    depends on the test function."""
    if traj.snapshot_every != 1:
        raise ValueError("verification runs need snapshot_every = 1")
    if len(traj.snapshots) < 2:
        raise ValueError("verification needs at least two snapshots (a run with T > 0)")
    kernel = kernel_for(traj.params, traj.grid)
    return (
        np.stack([s.u.values for s in traj.snapshots]),
        np.stack([transport_flux(s.u, traj.params, kernel) for s in traj.snapshots[:-1]]),
        np.stack([source_eval(traj.params.source, traj.grid, s.t) for s in traj.snapshots[:-1]]),
    )


def _row_integrals(grid: Grid, a: np.ndarray) -> np.ndarray:
    """:func:`integrate` of every field in a stacked ``(..., *grid)`` array;
    each field is summed over its flattened nodes, in the same order."""
    return np.sum(a.reshape(*a.shape[: a.ndim - grid.dim], -1), axis=-1) * grid.cell_volume


def vi_residual(
    traj: Trajectory, xi: HeightField | Sequence[HeightField], k: float, drives=None
) -> np.ndarray:
    """Per-interval residual of the truncated variational inequality.

    For consecutive snapshots the residual is

        [Phi(t1) - Phi(t0)] / dt - <F(t0), d/dx T_k(u1 - xi)> - <f(t0), T_k(u1 - xi)>

    with Phi the closed-form energy; nonpositive values up to the solver
    tolerance mean the inequality holds on that interval.  ``xi`` is one
    test function, giving an ``(S - 1,)`` array, or a nonempty sequence of
    ``X`` of them, giving an ``(X, S - 1)`` array whose rows equal the
    calls on each member bit for bit.  One call covers every interval and
    every member: the test functions are stacked against the ``(S, *grid)``
    snapshot stack, so every term is a broadcast over one ``(X, S, *grid)``
    array, each field summed in the order of :func:`~barchan.grid.integrate`.
    That array is the call's memory, so a caller with many test functions
    passes them in blocks (:func:`vi_report`).  ``drives`` takes the
    snapshot stack and the interval fluxes and sources of
    :func:`_interval_drives` when the caller has them already.
    """
    if not k > 0.0:
        raise ValueError(f"truncation level k must be positive, got {k}")
    if drives is None:
        drives = _interval_drives(traj)
    single = isinstance(xi, HeightField)
    xis = [xi] if single else list(xi)
    if not xis:
        raise ValueError("no test functions to check")
    if any(x.grid != traj.grid for x in xis):
        raise ValueError("test function lives on a different grid")
    grid = traj.grid
    u, flux, f = drives
    xv = np.stack([x.values for x in xis])[:, None]  # (X, 1, *grid)
    # Each (X, S, *grid) array alive at once is a block's worth of memory,
    # so z = u - xi is truncated in place into w, and the products are
    # formed in place; the values are those of the plain expressions.
    z = u - xv
    phi = _row_integrals(grid, _clamp_antiderivative(z, k) - _clamp_antiderivative(-xv, k))
    w = truncate(z, k, out=z)[:, 1:]
    # The forward x-difference of hosted(edge_slopes(grid, w))[0], zero past
    # the wall, as np.diff(w, axis=2, append=0.0) computes it.
    gx = np.empty(w.shape)
    np.subtract(w[:, :, 1:], w[:, :, :-1], out=gx[:, :, :-1])
    np.subtract(0.0, w[:, :, -1], out=gx[:, :, -1])
    gx /= grid.spacing[0]
    gx *= flux
    w *= f
    res = np.diff(phi) / np.diff(traj.times) - _row_integrals(grid, gx) - _row_integrals(grid, w)
    return res[0] if single else res


def vi_report(
    traj: Trajectory,
    test_functions: TestFunctionSet,
    tol: float,
    k_levels: tuple[float, ...] | None = None,
) -> VIReport:
    """The worst :func:`vi_residual` of every (test function, k) pair, in
    that order; the snapshot stack, fluxes and sources are built once for
    all pairs.

    The test functions go to :func:`vi_residual` in blocks, one call per
    block and k level.  A block holds as many as keep one ``(X, S, *grid)``
    temporary within ``_VI_BLOCK_BYTES``: one batch of all of them was
    slower and raised peak memory.  Each call takes one scalar k through
    the module attribute, so a tracer or a test that replaces
    ``vi_residual`` sees every call.

    An empty test set or an empty ``k_levels`` has nothing to check and
    raises ``ValueError``; a NaN residual makes ``worst`` NaN, which fails.
    """
    ks = k_levels if k_levels is not None else test_functions.k_levels
    xis = test_functions.xis
    if not xis:
        raise ValueError("the test function set is empty")
    if len(ks) == 0:
        raise ValueError("no truncation levels k to check")
    drives = _interval_drives(traj)
    block = max(1, _VI_BLOCK_BYTES // drives[0].nbytes)
    records = []
    times = traj.times
    for start in range(0, len(xis), block):
        res = [vi_residual(traj, xis[start : start + block], k, drives) for k in ks]
        for i in range(len(res[0])):
            for k, r in zip(ks, res):
                j = int(np.argmax(r[i]))
                records.append(VIRecord(start + i, float(k), float(times[j + 1]), float(r[i, j])))
    worst = float(np.max([r.residual for r in records]))
    return VIReport(records=records, worst=worst, tol=tol)


def complementarity_report(traj: Trajectory, comp_tol: float = COMP_TOL) -> ComplementarityReport:
    """Per-snapshot integral of m * max(0, lam - |grad u|); converged
    projections keep it at solver-tolerance level."""
    lam = traj.params.lam
    mode = traj.numerics.constraint_mode
    products = []
    for snap in traj.snapshots:
        slack = np.maximum(0.0, lam - node_slope_magnitude(snap.u, mode))
        products.append(integrate(traj.grid, snap.m.values * slack))
    arr = np.array(products)
    return ComplementarityReport(products=arr, worst=float(arr.max()), tol=comp_tol)


def gronwall_constant(params: ModelParams, kernel: DiscreteKernel, grid: Grid) -> float:
    """Stability constant assembled from the Lipschitz data, mirroring the
    three bounds of the doubling-of-variables estimate: the direct flux
    difference, the wind-response difference through dK/dx, and the
    free-boundary term through d2K/dx2."""
    lam = params.lam
    lg = lipschitz_bound(params.gamma)
    lh = lipschitz_bound(params.h)
    sup_h = h_sup(params.h)
    sup_g = gamma_sup_on(params.gamma, lam * grid.diameter)
    return (
        2.0 * lam * lg * sup_h
        + lg * lam * lh * kernel.deriv_l1()
        + sup_g * lh * kernel.second_deriv_l1()
    )


def contraction_report(
    traj1: Trajectory, traj2: Trajectory, env_tol: float = 0.05
) -> ContractionReport:
    """Distance series between two runs of identical data, with the
    exponential L1 envelope and the L2 monotonicity flag."""
    if traj1.params != traj2.params:
        raise ValueError("trajectories were produced with different parameters")
    if traj1.grid != traj2.grid:
        raise ValueError("trajectories live on different grids")
    if not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories have different snapshot times")

    grid = traj1.grid
    times = traj1.times
    # (S, *grid): the difference of the runs at every snapshot
    d = np.stack([s.u.values for s in traj1.snapshots]) - np.stack(
        [s.u.values for s in traj2.snapshots]
    )
    l1 = _row_integrals(grid, np.abs(d))
    l2 = np.sqrt(_row_integrals(grid, d * d))
    C = gronwall_constant(traj1.params, kernel_for(traj1.params, grid), grid)
    if l1[0] > 0.0:
        envelope_ok = bool(
            np.all(l1 <= l1[0] * np.exp(C * (times - times[0])) * (1.0 + env_tol))
        )
    else:
        envelope_ok = bool(np.all(l1 <= 1e-12))
    l2_mono = bool(np.all(np.diff(l2) <= STEP_TOL))
    return ContractionReport(
        times=times,
        l1_series=l1,
        l2_series=l2,
        envelope_constant=C,
        env_tol=env_tol,
        l1_envelope_ok=envelope_ok,
        l2_nonincreasing=l2_mono,
    )

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

One residual call covers every snapshot interval of a run at once: the
snapshots are stacked as one ``(S, *grid)`` array, the interval fluxes and
sources as two ``(S - 1, *grid)`` arrays evaluated once per report, and the
energies and pairings are broadcasts over that stack, each row summed in
the order of :func:`~barchan.grid.integrate`.
"""

from __future__ import annotations

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
    norm_l2,
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


def truncate(z, k: float):
    """The clamp max(min(r, k), -k); k = inf is the identity."""
    if np.isinf(k):
        return z
    return np.clip(z, -k, k)


def _clamp_antiderivative(z: np.ndarray, k: float) -> np.ndarray:
    """G_k(z) = integral_0^z clamp(s, -k, k) ds, the Huber function."""
    if np.isinf(k):
        return 0.5 * z * z
    a = np.abs(z)
    return np.where(a <= k, 0.5 * z * z, k * a - 0.5 * k * k)


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


def _interval_drives(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The wind fluxes and the sources of the snapshot intervals, each taken
    at the interval's older snapshot, as two stacked ``(S - 1, *grid)``
    arrays; they do not depend on the test function."""
    if traj.snapshot_every != 1:
        raise ValueError("verification runs need snapshot_every = 1")
    if len(traj.snapshots) < 2:
        raise ValueError("verification needs at least two snapshots (a run with T > 0)")
    kernel = kernel_for(traj.params, traj.grid)
    return (
        np.stack([transport_flux(s.u, traj.params, kernel) for s in traj.snapshots[:-1]]),
        np.stack([source_eval(traj.params.source, traj.grid, s.t) for s in traj.snapshots[:-1]]),
    )


def _row_integrals(grid: Grid, a: np.ndarray) -> np.ndarray:
    """:func:`integrate` of every row of a stacked ``(S, *grid)`` array; each
    row is summed over its flattened nodes, in the same order."""
    return np.sum(a.reshape(len(a), -1), axis=1) * grid.cell_volume


def vi_residual(traj: Trajectory, xi: HeightField, k: float, drives=None) -> np.ndarray:
    """Per-interval residual of the truncated variational inequality.

    For consecutive snapshots the residual is

        [Phi(t1) - Phi(t0)] / dt - <F(t0), d/dx T_k(u1 - xi)> - <f(t0), T_k(u1 - xi)>

    with Phi the closed-form energy; nonpositive values up to the solver
    tolerance mean the inequality holds on that interval.  The snapshots
    are stacked as one ``(S, *grid)`` array, so every term is a broadcast
    over all intervals at once.  ``drives`` takes the stacked interval
    fluxes and sources of :func:`_interval_drives` when the caller has them
    already (:func:`vi_report` evaluates them once for all test functions).
    """
    if not k > 0.0:
        raise ValueError(f"truncation level k must be positive, got {k}")
    if drives is None:
        drives = _interval_drives(traj)
    if xi.grid != traj.grid:
        raise ValueError("test function lives on a different grid")
    grid = traj.grid
    flux, f = drives
    u = np.stack([s.u.values for s in traj.snapshots])
    phi = _row_integrals(
        grid, _clamp_antiderivative(u - xi.values, k) - _clamp_antiderivative(-xi.values, k)
    )
    w = truncate(u[1:] - xi.values, k)
    # The forward x-difference of hosted(edge_slopes(grid, w))[0], zero past the wall.
    gx = np.diff(w, axis=1, append=0.0) / grid.spacing[0]
    transport = _row_integrals(grid, flux * gx)
    return np.diff(phi) / np.diff(traj.times) - transport - _row_integrals(grid, f * w)


def vi_report(
    traj: Trajectory,
    test_functions: TestFunctionSet,
    tol: float,
    k_levels: tuple[float, ...] | None = None,
) -> VIReport:
    """The worst :func:`vi_residual` of every (test function, k) pair; the
    flux and source are evaluated once per snapshot interval for all pairs.

    An empty test set or an empty ``k_levels`` has nothing to check and
    raises ``ValueError``; a NaN residual makes ``worst`` NaN, which fails.
    """
    ks = k_levels if k_levels is not None else test_functions.k_levels
    if not test_functions.xis:
        raise ValueError("the test function set is empty")
    if len(ks) == 0:
        raise ValueError("no truncation levels k to check")
    drives = _interval_drives(traj)
    records = []
    times = traj.times
    for idx, xi in enumerate(test_functions.xis):
        for k in ks:
            res = vi_residual(traj, xi, k, drives)
            j = int(np.argmax(res))
            records.append(VIRecord(idx, float(k), float(times[j + 1]), float(res[j])))
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
    pairs = list(zip(traj1.snapshots, traj2.snapshots))
    l1 = np.array([integrate(grid, np.abs(a.u.values - b.u.values)) for a, b in pairs])
    l2 = np.array([norm_l2(grid, a.u.values - b.u.values) for a, b in pairs])
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

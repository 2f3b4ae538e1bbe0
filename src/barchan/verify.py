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
    edge_slopes,
    hosted,
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
    step_tol: float = 1e-8


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
    random members built by projecting smoothed noise onto the cone."""
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
    while len(xis) < count:
        raw = rng.normal(size=grid.shape)
        for _ in range(2):
            raw = 0.5 * raw + 0.25 * (np.roll(raw, 1, axis=0) + np.roll(raw, -1, axis=0))
        f = HeightField(grid, raw)
        top = max(np.max(node_slope_magnitude(f, mode)), 1e-12)
        scaled = HeightField(grid, raw * (0.9 * lam / top))
        xis.append(project_pdhg(scaled, lam, mode=mode).u)
    xis = xis[:count]

    for i, xi in enumerate(xis):
        if not admissible(xi, lam, mode) or np.max(np.abs(xi.values)) > lam * grid.diameter + 1e-9:
            raise RuntimeError(f"test function {i} is not admissible for lam={lam}, mode={mode!r}")
    return TestFunctionSet(xis=xis, seed=seed)


def _interval_drives(traj: Trajectory) -> list[tuple[np.ndarray, np.ndarray]]:
    """The wind flux and the source of every snapshot interval, both taken
    at its older snapshot; they do not depend on the test function."""
    if traj.snapshot_every != 1:
        raise ValueError("verification runs need snapshot_every = 1")
    kernel = kernel_for(traj.params, traj.grid)
    return [
        (transport_flux(s.u, traj.params, kernel), source_eval(traj.params.source, traj.grid, s.t))
        for s in traj.snapshots[:-1]
    ]


def vi_residual(traj: Trajectory, xi: HeightField, k: float, drives=None) -> np.ndarray:
    """Per-interval residual of the truncated variational inequality.

    For consecutive snapshots the residual is

        [Phi(t1) - Phi(t0)] / dt - <F(t0), d/dx T_k(u1 - xi)> - <f(t0), T_k(u1 - xi)>

    with Phi the closed-form energy; nonpositive values up to the solver
    tolerance mean the inequality holds on that interval.  ``drives`` takes
    the interval fluxes and sources when the caller has them already
    (:func:`vi_report` evaluates them once for all test functions).
    """
    if drives is None:
        drives = _interval_drives(traj)
    if xi.grid != traj.grid:
        raise ValueError("test function lives on a different grid")
    phi = [energy(s.u, xi, k) for s in traj.snapshots]
    out = np.empty(len(drives))
    for i, (flux, f) in enumerate(drives):
        s0, s1 = traj.snapshots[i], traj.snapshots[i + 1]
        dt = s1.t - s0.t
        w = truncate(s1.u.values - xi.values, k)
        dphi = (phi[i + 1] - phi[i]) / dt
        gx = hosted(edge_slopes(traj.grid, w))[0]
        transport = integrate(traj.grid, flux * gx)
        source = integrate(traj.grid, f * w)
        out[i] = dphi - transport - source
    return out


def vi_report(
    traj: Trajectory,
    test_functions: TestFunctionSet,
    tol: float,
    k_levels: tuple[float, ...] | None = None,
) -> VIReport:
    """The worst :func:`vi_residual` of every (test function, k) pair; the
    flux and source are evaluated once per snapshot interval for all pairs."""
    ks = k_levels if k_levels is not None else test_functions.k_levels
    drives = _interval_drives(traj)
    records = []
    worst = -np.inf
    times = traj.times
    for idx, xi in enumerate(test_functions.xis):
        for k in ks:
            res = vi_residual(traj, xi, k, drives)
            j = int(np.argmax(res))
            records.append(VIRecord(idx, float(k), float(times[j + 1]), float(res[j])))
            worst = max(worst, float(res[j]))
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
    if len(traj1.snapshots) != len(traj2.snapshots):
        raise ValueError("trajectories have different snapshot counts")

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
    step_tol = 1e-8
    l2_mono = bool(np.all(np.diff(l2) <= step_tol))
    return ContractionReport(
        times=times,
        l1_series=l1,
        l2_series=l2,
        envelope_constant=C,
        env_tol=env_tol,
        l1_envelope_ok=envelope_ok,
        l2_nonincreasing=l2_mono,
        step_tol=step_tol,
    )

"""Time integration by operator splitting.

Each step transports sand explicitly with the conservative upwind wind
flux, then applies the avalanche resolvent: one implicit Euler step of the
slope-constrained flow, realized as the cone projection of the predicted
state.  The flux is evaluated at the previous iterate, the same freezing
the fixed-point construction of the continuous problem uses; an optional
inner loop re-evaluates it at the latest iterate to check insensitivity.

The wind blows in +x, so the flux velocity is nonnegative and upwinding
from the left is the monotone choice.

Each field gets one pass of the edge slopes: the projection takes those
of the field it returns, and the step's ``max_slope`` and the next step's
flux reuse them, as the next step reuses its mass.  A step returns a new
field and multiplier that nothing else refers to, so snapshots hold them
as they are; only snapshot 0 copies the caller's initial field.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .constitutive import (
    GammaProfile,
    HProfile,
    gamma_eval,
    gamma_sup_on,
    h_eval,
    h_sup,
    lipschitz_bound,
)
from .grid import CONSTRAINT_MODES, Grid, HeightField, admissible, edge_slopes, integrate, max_slope
from .kernels import DiscreteKernel, build_kernel, nonlocal_slope
from .projection import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MultiplierField,
    NonConvergedError,
    project,
    project_pdhg,  # noqa: F401  (perfbench/spans.py traces it under this name)
    resolvent_step,
)

logger = logging.getLogger(__name__)


class CFLViolationError(ValueError):
    """Requested explicit step exceeds the stable transport step."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel profile plus physical radius; the stencil is built per grid."""

    profile: str = "triangle"
    radius: float = 0.1


@dataclass(frozen=True)
class SourceSpec:
    """Space-time source: zero, a constant-rate patch, or a tabulated file.

    ``patch`` deposits ``rate`` (m/s) on nodes within ``width/2`` of
    ``center`` per axis; if the box is narrower than a cell the nearest
    node is used, so a point source is always representable.  ``center``
    has at most one entry per axis; a missing one is the axis's middle.
    ``tabulated`` reads a CSV whose first column is time and remaining
    columns are per-node rates in row-major node order, held piecewise
    constant.
    """

    kind: str = "zero"
    center: tuple[float, ...] = ()
    width: float = 0.0
    rate: float = 0.0
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "patch", "tabulated"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not (0.0 <= self.width < math.inf):
            raise ValueError(f"source width must be finite and nonnegative, got {self.width}")
        for name, value in [("rate", self.rate)] + [("center", c) for c in self.center]:
            if not math.isfinite(value):
                raise ValueError(f"source {name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Physical data of one run: repose slope, constitutive profiles,
    kernel, source, final time, and the explicit step (or "auto")."""

    lam: float
    h: HProfile = field(default_factory=HProfile.smooth_ramp)
    gamma: GammaProfile = field(default_factory=GammaProfile.identity)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    source: SourceSpec = field(default_factory=SourceSpec)
    T: float = 1.0
    dt: float | str = "auto"

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < math.inf):
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if not (0.0 <= self.T < math.inf):
            raise ValueError(f"T must be finite and nonnegative, got {self.T}")
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError(f'dt must be a positive number or "auto", got {self.dt!r}')
        elif not (0.0 < self.dt < math.inf):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


@dataclass(frozen=True)
class Numerics:
    """Solver knobs kept apart from the physics."""

    cfl_number: float = 0.45
    dt_max: float = 0.1
    picard_iters: int = 1
    inner_tol: float = 1e-10
    proj_tol: float = DEFAULT_TOL
    proj_max_iter: int = DEFAULT_MAX_ITER
    strict: bool = True
    constraint_mode: str = "isotropic"
    disable_projection: bool = False

    def __post_init__(self) -> None:
        for name in ("cfl_number", "dt_max", "proj_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("picard_iters", "proj_max_iter"):
            if not (getattr(self, name) >= 1):
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (self.inner_tol >= 0.0):
            raise ValueError(f"inner_tol must be nonnegative, got {self.inner_tol}")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint_mode {self.constraint_mode!r}")


@dataclass
class StepDiagnostics:
    t: float
    dt: float
    mass_pre: float
    mass_post: float
    source_integral: float
    transport_outflow: float
    avalanche_mass_change: float
    projection_iterations: int
    projection_gap: float
    cfl_number: float
    max_slope: float
    crest_index: int


@dataclass
class Snapshot:
    t: float
    u: HeightField
    m: MultiplierField


@dataclass
class Trajectory:
    """Snapshots plus per-step diagnostics of one simulation."""

    params: ModelParams
    numerics: Numerics
    grid: Grid
    snapshots: list[Snapshot]
    steps: list[StepDiagnostics]
    snapshot_every: int = 1
    failure: str | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def kernel_for(params: ModelParams, grid: Grid) -> DiscreteKernel:
    return build_kernel(params.kernel.profile, params.kernel.radius, grid.spacing[0])


def source_eval(spec: SourceSpec, grid: Grid, t: float) -> np.ndarray:
    """Source rate field at time t (sampled at the step's start time)."""
    if spec.kind == "zero":
        return np.zeros(grid.shape)
    if spec.kind == "patch":
        if len(spec.center) > grid.dim:
            raise ValueError(
                f"source center has {len(spec.center)} entries, the grid has {grid.dim} axes"
            )
        masks = []
        for a in range(grid.dim):
            c = spec.center[a] if a < len(spec.center) else grid.extents[a] / 2.0
            x = grid.coords(a)
            m = np.abs(x - c) <= spec.width / 2.0 + 1e-12
            if not m.any():
                m = np.zeros_like(m)
                m[int(np.argmin(np.abs(x - c)))] = True
            masks.append(m)
        box = reduce(np.logical_and, np.meshgrid(*masks, indexing="ij", sparse=True))
        return np.where(box, spec.rate, 0.0)
    times, rows = _load_table(spec.path)
    if rows.shape[1] != grid.node_count:
        raise ValueError(
            f"tabulated source {spec.path!r} has {rows.shape[1]} rate columns, "
            f"the grid has {grid.node_count} nodes"
        )
    idx = int(np.searchsorted(times, t, side="right") - 1)
    idx = min(max(idx, 0), rows.shape[0] - 1)
    return rows[idx].reshape(grid.shape)


# path -> ((mtime_ns, size), times, rows); a rewritten file is read again.
_TABLE_CACHE: dict[str, tuple[tuple[int, int], np.ndarray, np.ndarray]] = {}


def _load_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and per-node rate rows of a tabulated source file."""
    st = os.stat(path)
    stamp = (st.st_mtime_ns, st.st_size)
    cached = _TABLE_CACHE.get(path)
    if cached is None or cached[0] != stamp:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if np.any(np.diff(data[:, 0]) <= 0.0):
            raise ValueError(f"tabulated source {path!r}: times must strictly increase")
        cached = _TABLE_CACHE[path] = (stamp, data[:, 0], data[:, 1:])
    return cached[1], cached[2]


def transport_flux(
    u: HeightField, params: ModelParams, kernel: DiscreteKernel | None = None, slopes=None
) -> np.ndarray:
    """Wind flux F = gamma(u) * H(nonlocal slope); nonnegative everywhere.
    ``slopes`` are the edge slopes of ``u`` if the caller has them."""
    if kernel is None:
        kernel = kernel_for(params, u.grid)
    s = nonlocal_slope(u, kernel, slopes)
    return gamma_eval(params.gamma, u.values) * h_eval(params.h, s)


def transport_div(grid: Grid, flux: np.ndarray) -> np.ndarray:
    """Upwind divergence (F_i - F_{i-1}) / dx along x, F = 0 outside.

    The left-neighbour difference is the monotone upwind choice for the
    nonnegative wind speed; summed over the domain it telescopes to the
    outflow through the right wall.
    """
    div = flux.copy()
    div[1:] -= flux[:-1]
    div /= grid.spacing[0]
    return div


def transport_outflow(grid: Grid, flux: np.ndarray) -> float:
    """Mass flow rate out through the right wall (the telescoped sum)."""
    return float(flux[-1].sum() * math.prod(grid.spacing[1:]))


def transport_speed_bound(params: ModelParams, grid: Grid, kernel: DiscreteKernel) -> float:
    """Bound on the flux response to height changes, used as CFL speed.

    Combines the direct sensitivity ``Lip(gamma) * sup H`` with the
    nonlocal one ``sup gamma * Lip(H) * |dK/dx|_L1`` over the admissible
    height range [0, lam * diameter].
    """
    lam = params.lam
    direct = lipschitz_bound(params.gamma) * h_sup(params.h)
    indirect = (
        gamma_sup_on(params.gamma, lam * grid.diameter)
        * lipschitz_bound(params.h)
        * kernel.deriv_l1()
    )
    return direct + indirect


def cfl_dt(
    u: HeightField,
    params: ModelParams,
    numerics: Numerics = Numerics(),
    kernel: DiscreteKernel | None = None,
) -> float:
    """Stable explicit step ``cfl * dx / v_max``, capped at ``dt_max``.

    When the wind is off (v_max = 0) the avalanche step is implicit and
    unconditionally stable, so the cap is returned.
    """
    if kernel is None:
        kernel = kernel_for(params, u.grid)
    v_max = transport_speed_bound(params, u.grid, kernel)
    if v_max <= 0.0:
        return numerics.dt_max
    return min(numerics.dt_max, numerics.cfl_number * min(u.grid.spacing) / v_max)


def _crest_index(values: np.ndarray, grid: Grid) -> int:
    """Node of the highest point along the x line through the middle of
    the other axes."""
    return int(np.argmax(values[(slice(None),) + tuple(n // 2 for n in grid.counts[1:])]))


def _checked_speed(
    u: HeightField, dt: float, params: ModelParams, numerics: Numerics, kernel: DiscreteKernel
) -> float:
    """The CFL speed bound, once ``dt`` is checked against the stable step.

    The bound covers every admissible height, so it holds for a whole run.
    """
    v_max = transport_speed_bound(params, u.grid, kernel)
    if v_max > 0.0:
        stable = cfl_dt(u, params, numerics, kernel)
        if dt > stable * (1.0 + 1e-9):
            raise CFLViolationError(f"dt={dt} exceeds the stable step {stable}")
    return v_max


def _advance(
    u: HeightField,
    t: float,
    dt: float,
    params: ModelParams,
    numerics: Numerics,
    kernel: DiscreteKernel,
    v_max: float,
    warm_dual=None,
    slopes=None,
    mass=None,
):
    """One split step of at most the checked ``dt``; returns (field,
    multiplier, diagnostics, dual, slopes).  ``slopes`` and ``mass``, the
    edge slopes and mass of ``u``, are computed unless the previous step
    returned them (its ``slopes`` and ``mass_post``).  The field and
    multiplier returned are new arrays the caller owns, and ``slopes``
    their one slope pass; ``u`` is only read."""
    grid = u.grid
    f = source_eval(params.source, grid, t)
    flux = transport_flux(u, params, kernel, slopes)
    drive = f - transport_div(grid, flux)

    mass_pre = integrate(grid, u.values) if mass is None else mass
    source_integral = integrate(grid, f)
    outflow = transport_outflow(grid, flux)

    if numerics.disable_projection:
        u_new = HeightField(grid, u.values + dt * drive)
        m = MultiplierField.zeros(grid)
        proj_iters, proj_gap, dual = 0, 0.0, None
        slopes = edge_slopes(grid, u_new.values)
    else:
        res = None
        for i in range(numerics.picard_iters):
            if i:
                drive = f - transport_div(grid, transport_flux(res.u, params, kernel, res.slopes))
                prev, warm_dual = res.u.values, res.dual
            res = resolvent_step(
                u,
                drive,
                dt,
                params.lam,
                tol=numerics.proj_tol,
                max_iter=numerics.proj_max_iter,
                mode=numerics.constraint_mode,
                warm_dual=warm_dual,
            )
            if i and float(np.max(np.abs(res.u.values - prev))) <= numerics.inner_tol:
                break
        if not res.converged and numerics.strict:
            raise NonConvergedError(
                f"projection not converged at t={t:.6g} "
                f"(gap {res.primal_dual_gap:.3e} after {res.iterations} iterations)"
            )
        u_new, m, slopes = res.u, res.m, res.slopes
        proj_iters, proj_gap, dual = res.iterations, res.primal_dual_gap, res.dual

    mass_post = integrate(grid, u_new.values)
    mass_star = mass_pre + dt * (source_integral - outflow)
    diag = StepDiagnostics(
        t=t + dt,
        dt=dt,
        mass_pre=mass_pre,
        mass_post=mass_post,
        source_integral=source_integral,
        transport_outflow=outflow,
        avalanche_mass_change=mass_post - mass_star,
        projection_iterations=proj_iters,
        projection_gap=proj_gap,
        cfl_number=v_max * dt / min(grid.spacing),
        max_slope=max_slope(u_new, numerics.constraint_mode, slopes),
        crest_index=_crest_index(u_new.values, grid),
    )
    return u_new, m, diag, dual, slopes


def step(
    u: HeightField,
    t: float,
    dt: float,
    params: ModelParams,
    numerics: Numerics = Numerics(),
) -> tuple[HeightField, MultiplierField]:
    """Advance one split step and return the new state and multiplier."""
    kernel = kernel_for(params, u.grid)
    v_max = _checked_speed(u, dt, params, numerics, kernel)
    u_new, m, *_ = _advance(u, t, dt, params, numerics, kernel, v_max)
    return u_new, m


def run(
    params: ModelParams,
    u0: HeightField,
    snapshot_every: int = 1,
    numerics: Numerics = Numerics(),
) -> Trajectory:
    """Integrate from u0 to T, recording snapshots and diagnostics.

    A run with ``T == 0`` takes no step and returns ``u0`` as given.
    Otherwise a fixed ``dt`` above the stable step raises
    :class:`CFLViolationError`, and initial data outside the admissible
    cone is projected onto it with a logged warning, so snapshot 0 holds
    the projection.  On a numerical failure the partial trajectory is
    returned with ``failure`` set; strict mode stops at the failing
    projection, the start projection included.
    """
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    grid = u0.grid
    kernel = kernel_for(params, grid)

    dt = (
        cfl_dt(u0, params, numerics, kernel)
        if isinstance(params.dt, str)
        else float(params.dt)
    )
    n_steps = 0 if params.T == 0.0 else max(1, math.ceil(params.T / dt - 1e-12))

    failure, slopes = None, None
    if n_steps > 0:
        v_max = _checked_speed(u0, dt, params, numerics, kernel)
        if not admissible(u0, params.lam, numerics.constraint_mode):
            logger.warning("initial data is not admissible; projecting onto the cone")
            res = project(
                u0,
                params.lam,
                tol=numerics.proj_tol,
                max_iter=numerics.proj_max_iter,
                mode=numerics.constraint_mode,
            )
            u0, slopes = res.u, res.slopes
            if not res.converged and numerics.strict:
                failure = (
                    "start projection not converged "
                    f"(gap {res.primal_dual_gap:.3e} after {res.iterations} iterations)"
                )
                logger.error("run aborted: %s", failure)
                n_steps = 0

    traj = Trajectory(
        params=params,
        numerics=numerics,
        grid=grid,
        snapshots=[Snapshot(0.0, u0.copy(), MultiplierField.zeros(grid))],
        steps=[],
        snapshot_every=snapshot_every,
        failure=failure,
    )

    u, warm, mass = u0, None, None
    for k in range(1, n_steps + 1):
        t_prev = (k - 1) * dt
        dt_k = dt if k < n_steps else params.T - (n_steps - 1) * dt
        try:
            u, m, diag, warm, slopes = _advance(
                u, t_prev, dt_k, params, numerics, kernel, v_max, warm, slopes, mass
            )
        except NonConvergedError as exc:
            traj.failure = str(exc)
            logger.error("run aborted: %s", exc)
            break
        traj.steps.append(diag)
        mass = diag.mass_post
        if k % snapshot_every == 0 or k == n_steps:
            traj.snapshots.append(Snapshot(t_prev + dt_k, u, m))
    return traj

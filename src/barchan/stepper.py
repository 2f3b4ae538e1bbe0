"""Time integration by operator splitting.

Each step transports sand explicitly with the conservative upwind wind
flux, then applies the avalanche resolvent: one implicit Euler step of the
slope-constrained flow, realized as the cone projection of the predicted
state.  The flux is evaluated once, at the previous state, the same
freezing the fixed-point construction of the continuous problem uses.

A run projects inadmissible start data with the same resolvent and a zero
drive.  ``_Run.resolve`` holds every projection of a run to one
convergence policy: a failed certificate stops a strict run, and a
lenient run logs a warning and carries on.

The wind blows in +x, so the flux velocity is nonnegative and upwinding
from the left is the monotone choice.

Each field gets one pass of the edge slopes, one lattice: the projection
takes that of the field it returns, and the step's ``max_slope`` (its
hosted entries) and the next step's flux (its x edges) reuse it, as the
next step reuses its mass.  The start field's lattice serves the run's
admissibility test and, when that passes, step 1's flux.  A step returns
a new field and multiplier that nothing else refers to, so snapshots hold
them as they are; only snapshot 0 copies the caller's initial field.

What a run holds fixed is built once.  The kernel stencil
(:func:`kernel_for`) and a time-independent source field
(:func:`source_eval`) are cached per grid and shared by every run, step
and audit on it, so their arrays are read-only.  Each :func:`run`,
:func:`step` and :func:`cfl_dt` builds one ``_Run``: it evaluates the CFL
speed bound once, for the automatic ``dt``, the CFL check of a fixed one
and every step's Courant number, and keeps a time-independent source's
integral from the first step for every later step's
``source_integral``.  The steps themselves pass only the moving state:
the field, its time, the step, the warm dual, the edge slopes and the
mass.

Every step's projection starts from a warm dual.  A later step takes the
previous step's dual as it is.  Step 1 takes the start projection's dual,
when the start data was projected, scaled to its best multiple for step
1's predicted field (:func:`~barchan.projection._best_multiple`): on the
64x64 benchmark dune that start dual sits on the hump's flanks, and step 1
took 5 Newton solves from it instead of 8 from zero.  The start projection
itself starts cold.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache, reduce

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
from .grid import (
    CONSTRAINT_MODES, Grid, HeightField, _check_int, _unchecked, admissible, edge_slopes,
    integrate, max_slope,
)
from .kernels import DiscreteKernel, build_kernel, nonlocal_slope
from .projection import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MultiplierField,
    NonConvergedError,
    _best_multiple,
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
    constant; every entry must be finite.

    Its hash is taken once, by the constructor, over its numbers alone, whose hashes are
    the same in every process (a string's is not), so an unpickled spec
    keeps a valid one; ``center`` is stored as a tuple of floats.
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
        if self.kind == "tabulated" and not self.path:
            raise ValueError("a tabulated source needs a path to its rate table")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "_hash", hash((self.center, self.width, self.rate)))

    def __hash__(self) -> int:
        return self._hash


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
    """Solver knobs kept apart from the physics; a step evaluates the flux
    once, so the splitting itself has none.

    ``cfl_number`` is the Courant number of the CFL step
    ``cfl_number * dx / v_max`` (:func:`cfl_dt`), which bounds every
    explicit step of a windy run, fixed or automatic.  ``dt_max`` caps only
    the automatic step (``dt="auto"``), and is that step when the wind is
    off; a fixed ``dt`` above it is taken as given.

    The ``proj_*`` settings and ``constraint_mode`` govern every projection
    of a run, the start one included, under one policy: a projection that
    fails its certificate stops a ``strict`` run, and a lenient run logs a
    warning for it and carries on.
    """

    cfl_number: float = 0.45
    dt_max: float = 0.1
    proj_tol: float = DEFAULT_TOL
    proj_max_iter: int = DEFAULT_MAX_ITER
    strict: bool = True
    constraint_mode: str = "isotropic"

    def __post_init__(self) -> None:
        for name in ("cfl_number", "dt_max", "proj_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.cfl_number > 1.0:  # the explicit upwind step is stable up to Courant number 1
            raise ValueError(f"cfl_number must be at most 1, got {self.cfl_number}")
        _check_int("proj_max_iter", self.proj_max_iter, 1)
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
    """The stencil of ``params.kernel`` on the x spacing of ``grid``.

    One :class:`DiscreteKernel` is built per (profile, radius, spacing) and
    shared by every caller, so its weights are read-only;
    :func:`~barchan.kernels.build_kernel` builds a fresh one.
    """
    return _kernel(params.kernel.profile, params.kernel.radius, grid.spacing[0])


@lru_cache(maxsize=16)
def _kernel(profile: str, radius: float, dx: float) -> DiscreteKernel:
    kernel = build_kernel(profile, radius, dx)
    kernel.weights.setflags(write=False)
    return kernel


def source_eval(spec: SourceSpec, grid: Grid, t: float) -> np.ndarray:
    """Source rate field at time t (sampled at the step's start time).

    The field is read-only.  A ``zero`` or ``patch`` source does not depend
    on ``t``: its field is built once per (spec, grid) and shared.  A
    ``tabulated`` one is a view of the row of its cached table in force at
    ``t``.
    """
    if spec.kind != "tabulated":
        return _static_source(spec, grid)
    times, rows = _load_table(spec.path)
    if rows.shape[1] != grid.node_count:
        raise ValueError(
            f"tabulated source {spec.path!r} has {rows.shape[1]} rate columns, "
            f"the grid has {grid.node_count} nodes"
        )
    idx = int(np.searchsorted(times, t, side="right") - 1)
    idx = min(max(idx, 0), rows.shape[0] - 1)
    return rows[idx].reshape(grid.shape)


@lru_cache(maxsize=16)
def _static_source(spec: SourceSpec, grid: Grid) -> np.ndarray:
    """The read-only field of a ``zero`` or ``patch`` source on ``grid``."""
    if spec.kind == "zero":
        f = np.zeros(grid.shape)
    else:
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
        f = np.where(box, spec.rate, 0.0)
    f.setflags(write=False)
    return f


def _load_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and per-node rate rows of a tabulated source file, read-only;
    a rewritten file (another modification time or size) is read again."""
    st = os.stat(path)
    return _read_table(path, st.st_mtime_ns, st.st_size)


@lru_cache(maxsize=16)
def _read_table(path: str, mtime_ns: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if not np.isfinite(data).all():
        raise ValueError(f"tabulated source {path!r} has a non-finite entry")
    if np.any(np.diff(data[:, 0]) <= 0.0):
        raise ValueError(f"tabulated source {path!r}: times must strictly increase")
    data.setflags(write=False)
    return data[:, 0], data[:, 1:]


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
    return float(flux[-1:].sum()) * math.prod(grid.spacing[1:])  # a slice: no scalar sum in 1D


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


def cfl_dt(u: HeightField, params: ModelParams, numerics: Numerics = Numerics()) -> float:
    """The automatic explicit step: the CFL step ``cfl_number * dx / v_max``
    (``dx`` the smallest spacing, ``v_max`` the
    :func:`transport_speed_bound`), capped at ``dt_max``.

    When the wind is off (v_max = 0) the avalanche step is implicit and
    unconditionally stable, so the cap is returned.  A fixed ``dt`` is
    held to the CFL step alone, not to this cap.
    """
    return _Run(params, numerics, u.grid).stable


class _Run:
    """What one :func:`run`, :func:`step` or :func:`cfl_dt` holds fixed on
    ``grid``: the ``kernel``, the CFL speed bound ``v_max`` (one
    :func:`transport_speed_bound`), the CFL step ``cfl = cfl_number * dx /
    v_max`` (``dx`` the smallest spacing; infinite without wind) and the
    automatic step ``stable``, ``cfl`` capped at ``dt_max``; and, once the
    first step has taken it, the integral of a fixed source.

    The bound covers every admissible height, so it holds for a whole run.
    """

    def __init__(self, params: ModelParams, numerics: Numerics, grid: Grid):
        self.params, self.numerics, self.grid = params, numerics, grid
        self.kernel = kernel_for(params, grid)
        self.v_max = v_max = transport_speed_bound(params, grid, self.kernel)
        self.dx = min(grid.spacing)
        self.cfl = numerics.cfl_number * self.dx / v_max if v_max > 0.0 else math.inf
        self.stable = min(numerics.dt_max, self.cfl)
        self.source_integral = None

    def check(self, dt: float) -> None:
        """Raise :class:`CFLViolationError` if ``dt`` exceeds the CFL step."""
        if dt > self.cfl * (1.0 + 1e-9):
            raise CFLViolationError(f"dt={dt} exceeds the CFL step {self.cfl}")

    def resolve(self, u: HeightField, drive, dt: float, warm_dual, t=None):
        """The resolvent step of ``u`` under ``drive`` with the run's
        projection settings, held to the run's one convergence policy: a
        result that fails its certificate raises :class:`NonConvergedError`
        in a strict run and is logged as a warning in a lenient one, both
        naming it "projection at t" for the step from time ``t``, or "start
        projection" when ``t`` is None."""
        numerics = self.numerics
        res = resolvent_step(
            u, drive, dt, self.params.lam, tol=numerics.proj_tol,
            max_iter=numerics.proj_max_iter, mode=numerics.constraint_mode, warm_dual=warm_dual,
        )
        if not res.converged:
            what = "start projection" if t is None else f"projection at t={t:.6g}"
            gap, n = res.primal_dual_gap, res.iterations
            msg = f"{what} not converged (gap {gap:.3e} after {n} iterations)"
            if numerics.strict:
                raise NonConvergedError(msg)
            logger.warning("%s", msg)
        return res

    def _advance(
        self, u: HeightField, t: float, dt: float, warm_dual=None, slopes=None, mass=None,
        rescale=False,
    ):
        """One split step of at most the checked ``dt``; returns (field,
        multiplier, diagnostics, dual, slopes).  ``slopes`` and ``mass``, the
        edge slopes and mass of ``u``, are computed unless the previous step
        returned them (its ``slopes`` and ``mass_post``).  With ``rescale``
        a ``warm_dual`` is scaled to its best multiple for the step's
        predicted field (:func:`~barchan.projection._best_multiple`) before
        the projection starts from it.  The field and multiplier returned
        are new arrays the caller owns, and ``slopes`` their one slope pass;
        ``u`` is only read.  The flux is frozen at ``u``, and the one
        projection follows the policy of :meth:`resolve`."""
        params, grid = self.params, self.grid
        f = source_eval(params.source, grid, t)
        flux = transport_flux(u, params, self.kernel, slopes)
        drive = f - transport_div(grid, flux)
        if rescale and warm_dual is not None:
            v = u.values + dt * drive
            warm_dual = warm_dual * _best_multiple(
                grid, v, warm_dual, params.lam, self.numerics.constraint_mode
            )

        mass_pre = integrate(grid, u.values) if mass is None else mass
        source_integral = self.source_integral
        if source_integral is None:
            source_integral = integrate(grid, f)
            if params.source.kind != "tabulated":  # one field for the whole run
                self.source_integral = source_integral
        outflow = transport_outflow(grid, flux)

        res = self.resolve(u, drive, dt, warm_dual, t)
        u_new, slopes = res.u, res.slopes

        mass_post = integrate(grid, u_new.values)
        mass_star = mass_pre + dt * (source_integral - outflow)
        lines = u_new.values.reshape(grid.counts[0], -1)  # x lines (one in 1D); crest on the middle
        diag = StepDiagnostics(
            t=t + dt,
            dt=dt,
            mass_pre=mass_pre,
            mass_post=mass_post,
            source_integral=source_integral,
            transport_outflow=outflow,
            avalanche_mass_change=mass_post - mass_star,
            projection_iterations=res.iterations,
            projection_gap=res.primal_dual_gap,
            cfl_number=self.v_max * dt / self.dx,
            max_slope=max_slope(u_new, self.numerics.constraint_mode, slopes),
            crest_index=int(lines[:, lines.shape[1] // 2].argmax()),
        )
        return u_new, res.m, diag, res.dual, slopes


def step(
    u: HeightField,
    t: float,
    dt: float,
    params: ModelParams,
    numerics: Numerics = Numerics(),
) -> tuple[HeightField, MultiplierField]:
    """Advance one split step and return the new state and multiplier.
    A ``dt`` above the CFL step raises :class:`CFLViolationError`."""
    r = _Run(params, numerics, u.grid)
    r.check(dt)
    u_new, m, *_ = r._advance(u, t, dt)
    return u_new, m


def run(
    params: ModelParams,
    u0: HeightField,
    snapshot_every: int = 1,
    numerics: Numerics = Numerics(),
) -> Trajectory:
    """Integrate from u0 to T, recording every step's diagnostics and a
    snapshot at the start, every ``snapshot_every`` steps (an integer of at
    least 1) and at T.

    A run with ``T == 0`` takes no step, checks no CFL and returns ``u0``
    as given.  Otherwise the step is ``params.dt``, or :func:`cfl_dt` for
    ``"auto"``.  A fixed ``dt`` above the CFL step ``cfl_number * dx /
    v_max`` raises :class:`CFLViolationError`; ``dt_max`` does not bound
    it, and without wind nothing does.  Initial data outside the admissible
    cone is projected onto it with a logged warning: the resolvent step of
    ``u0`` with a zero drive, so snapshot 0 holds the projection.  The start
    test is :func:`~barchan.grid.admissible`, which allows every constraint
    up to ``lam + TOL_CONSTRAINT``, where the projection's own short-cut
    needs ``lam``: so a ``u0`` at most ``TOL_CONSTRAINT`` above the cone
    starts unprojected, and step 1's projection meets it.  Every
    projection of the run, that one included, follows the one policy of
    ``numerics.strict``.  A strict run stops at the first projection that
    fails its certificate and returns the partial trajectory with
    ``failure`` set (after a failed start projection, snapshot 0 holds
    ``u0`` as given); a lenient run logs a warning for each such projection
    and carries on.

    Each step's projection starts from the dual of the one before it.  Step
    1 scales the start projection's dual to its best multiple for its own
    predicted field first (:func:`~barchan.projection._best_multiple`), and
    starts from zero when the start data was admissible.
    """
    _check_int("snapshot_every", snapshot_every, 1)
    grid = u0.grid
    r = _Run(params, numerics, grid)
    dt = r.stable if isinstance(params.dt, str) else float(params.dt)
    n_steps = 0 if params.T == 0.0 else max(1, math.ceil(params.T / dt - 1e-12))
    if n_steps:
        r.check(dt)

    m0 = _unchecked(MultiplierField, grid, np.zeros(grid.shape))
    traj = Trajectory(
        params=params,
        numerics=numerics,
        grid=grid,
        snapshots=[Snapshot(0.0, HeightField(grid, u0.values.copy()), m0)],
        steps=[],
        snapshot_every=snapshot_every,
    )

    u, warm, mass = u0, None, None
    slopes = edge_slopes(grid, u0.values) if n_steps else None
    try:
        if n_steps and not admissible(u0, params.lam, numerics.constraint_mode, slopes=slopes):
            logger.warning("initial data is not admissible; projecting onto the cone")
            res = r.resolve(u0, 0.0, dt, None)
            u, warm, slopes = res.u, res.dual, res.slopes
            traj.snapshots[0].u = u
        for k in range(1, n_steps + 1):
            t_prev = (k - 1) * dt
            dt_k = dt if k < n_steps else params.T - (n_steps - 1) * dt
            u, m, diag, warm, slopes = r._advance(u, t_prev, dt_k, warm, slopes, mass, k == 1)
            traj.steps.append(diag)
            mass = diag.mass_post
            if k % snapshot_every == 0 or k == n_steps:
                traj.snapshots.append(Snapshot(t_prev + dt_k, u, m))
    except NonConvergedError as exc:
        traj.failure = str(exc)
        logger.error("run aborted: %s", exc)
    return traj

"""Seeded inputs for the benchmark workloads and the solve each one times.

Every workload is a closed loop of one solve at a time in one process.  A
seed jitters the hump centre, height and width (on ``pile1d``, the source
centre) inside ranges small enough that the work per solve, and so the layer that
dominates it, stays the same; the program only ever sees the generated
``ModelParams`` and ``HeightField`` inputs.

* ``dune1d``: the windy skew hump of the stepper's crest-advance scenario.
  Warm-started 1D projections are about 99% of the time, so a faster 1D
  projection shows here first.
* ``dune2d``: a 64x64 hump that starts outside the cone: one cold
  projection, then warm steps.  The only workload on the 2D code paths
  (paired second-order-cone constraints, column-wise kernel convolution).
* ``pile1d``: a windless sandpile built from rest by a narrow source, with
  an implicit step far above any CFL step.  The active set grows every step and the
  iteration count grows with n; the only workload that uses the source.
* ``audit1d``: a flat windy hump that stays inside the cone, so every
  stepper projection takes the admissible short-cut.  The verifier, the
  kernels and the constitutive laws do the work; projection changes must
  not move it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from barchan import stepper, verify  # noqa: E402
from barchan.constitutive import GammaProfile, HProfile  # noqa: E402
from barchan.grid import HeightField, make_grid  # noqa: E402
from barchan.stepper import KernelSpec, ModelParams, Numerics, SourceSpec  # noqa: E402

WORKLOADS = ("dune1d", "dune2d", "pile1d", "audit1d")
DEFAULT_SEED = 0

# Jitter: centres move by up to CELL_SHIFT whole cells, heights and widths
# by up to REL_JITTER.  PDHG iteration counts are chaotic in the shape: a
# 2% shape jitter spread the dune1d work over +-12% across seeds, 0.05%
# over +-2%.  A shift by whole cells translates the discrete problem and
# keeps its work.
CELL_SHIFT = 2
REL_JITTER = 0.0005

AUDIT_TEST_FUNCTIONS = 32
AUDIT_TWIN_SHIFT = 0.01


@dataclass(frozen=True)
class Case:
    """Generated inputs of one workload; ``twin`` is set on ``audit1d``."""

    name: str
    seed: int
    params: ModelParams
    u0: HeightField
    numerics: Numerics = Numerics()
    twin: HeightField | None = None


@dataclass
class Outputs:
    traj: stepper.Trajectory
    twin: stepper.Trajectory | None = None
    tests: verify.TestFunctionSet | None = None
    vi: verify.VIReport | None = None
    comp: verify.ComplementarityReport | None = None
    contraction: verify.ContractionReport | None = None


class _Jitter:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def scale(self, value: float) -> float:
        return value * (1.0 + REL_JITTER * self.rng.uniform(-1.0, 1.0))

    def shift(self, value: float, dx: float) -> float:
        return value + dx * int(self.rng.integers(-CELL_SHIFT, CELL_SHIFT + 1))


def _hump_1d(grid, center, height, w_left, w_right):
    x = grid.coords(0)
    s = np.clip(np.where(x < center, (x - center) / w_left, (x - center) / w_right), -1.0, 1.0)
    return HeightField(grid, height * (1.0 - s * s) ** 2)


def _dune1d(j: _Jitter):
    grid = make_grid(1, 1.0, 64)
    dx = grid.spacing[0]
    params = ModelParams(
        lam=0.5,
        h=HProfile.erf_smoothed(0.25),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("cosine_bump", 10 * dx),
        T=0.06,
    )
    u0 = _hump_1d(grid, j.shift(0.35, dx), j.scale(0.08), j.scale(0.26), j.scale(0.45))
    return params, u0, None


def _dune2d(j: _Jitter):
    grid = make_grid(2, (1.0, 1.0), (64, 64))
    X, Y = grid.meshgrid()
    dx = grid.spacing[0]
    cx, cy, height, radius = j.shift(0.4, dx), j.shift(0.5, dx), j.scale(0.085), j.scale(0.25)
    r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
    u0 = HeightField(grid, height * np.clip(1.0 - (r / radius) ** 2, 0.0, 1.0) ** 2)
    params = ModelParams(
        lam=0.5,
        h=HProfile.smooth_ramp(),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 4 * dx),
        T=0.0025,
    )
    return params, u0, None


def _pile1d(j: _Jitter):
    grid = make_grid(1, 1.0, 256)
    dx = grid.spacing[0]
    params = ModelParams(
        lam=1.0,
        h=HProfile.zero(),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 3 * dx),
        source=SourceSpec("patch", center=(j.shift(0.5, dx),), width=0.05, rate=2.0),
        T=0.05,
        dt=0.01,
    )
    return params, HeightField.zeros(grid), None


def _audit1d(j: _Jitter):
    grid = make_grid(1, 1.0, 64)
    dx = grid.spacing[0]
    params = ModelParams(
        lam=1.0,
        h=HProfile.smooth_ramp(),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 3 * dx),
        T=0.005,
    )
    center, height, width = j.shift(0.4, dx), j.scale(0.1), j.scale(0.3)
    u0 = _hump_1d(grid, center, height, width, width)
    twin = _hump_1d(grid, center + AUDIT_TWIN_SHIFT, height, width, width)
    return params, u0, twin


_GENERATORS = {"dune1d": _dune1d, "dune2d": _dune2d, "pile1d": _pile1d, "audit1d": _audit1d}


def generate(name: str, seed: int) -> Case:
    """The inputs of workload ``name`` for ``seed``; equal seeds give equal inputs."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    params, u0, twin = _GENERATORS[name](_Jitter(seed))
    return Case(name=name, seed=seed, params=params, u0=u0, twin=twin)


def step_size(case: Case) -> float:
    if isinstance(case.params.dt, str):
        return stepper.cfl_dt(case.u0, case.params, case.numerics)
    return float(case.params.dt)


def expected_steps(case: Case) -> int:
    """Step count ``stepper.run`` takes to reach T (same rounding rule)."""
    return max(1, math.ceil(case.params.T / step_size(case) - 1e-12))


def operations(case: Case) -> int:
    """Operations of one solve: its steps, and on ``audit1d`` the twin's
    steps plus one per VI (test function, k) pair, complementarity and
    contraction check."""
    steps = expected_steps(case)
    if case.twin is None:
        return steps
    k_levels = len(verify.TestFunctionSet(xis=[], seed=case.seed).k_levels)
    return 2 * steps + AUDIT_TEST_FUNCTIONS * k_levels + 2


def one_step(case: Case) -> Case:
    """The same inputs run for a single step (the set-up warm-up)."""
    return replace(case, params=replace(case.params, T=step_size(case)))


def solve(case: Case) -> Outputs:
    """The timed work: the run, and on ``audit1d`` the twin run and the audit.

    Layer functions are looked up as module attributes at call time, so the
    tracer's wrappers see every call.
    """
    traj = stepper.run(case.params, case.u0, snapshot_every=1, numerics=case.numerics)
    if case.twin is None:
        return Outputs(traj)
    twin = stepper.run(case.params, case.twin, snapshot_every=1, numerics=case.numerics)
    grid, lam = traj.grid, case.params.lam
    tests = verify.make_test_functions(
        grid, lam, AUDIT_TEST_FUNCTIONS, case.seed, case.numerics.constraint_mode
    )
    vi_tol = 2.0 * (traj.steps[0].dt + grid.spacing[0])
    return Outputs(
        traj=traj,
        twin=twin,
        tests=tests,
        vi=verify.vi_report(traj, tests, tol=vi_tol),
        comp=verify.complementarity_report(traj),
        contraction=verify.contraction_report(traj, twin),
    )

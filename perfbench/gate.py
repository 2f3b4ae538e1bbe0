"""Correctness gate applied to every solve the benchmark times.

Two kinds of check:

* Invariants, for every seed: the run reached T, the final field is
  admissible, ``m >= 0``, complementarity is within ``COMP_TOL``, the
  per-step mass record is consistent to ``MASS_TOL``, and every projection
  converged (strict mode aborts the run otherwise).  On ``audit1d`` every
  stepper projection must take the admissible short-cut (0 iterations) and
  the audit's pass flags must hold.
* A comparison with the committed outputs of the seed code, for the seeds
  in ``reference/``.  Each projection returns a field within its certified
  L2 error of the exact projection (at least ``proj_tol``; PDHG stops at
  the rounding floor of the gap, which certifies a few 1e-7).  Summing
  that per-step bound over the steps of both runs (errors taken to add
  without growth) gives ``field_tol``, the distance allowed between the
  run's final field and the reference.
  Audit values are functions of the fields; their tolerances are
  ``field_tol`` times a Lipschitz bound of each value in the fields.

The multiplier is gated by its invariants only: the same argument bounds
its reference distance by ``2 dx sqrt(n) field_tol / (lam dt)``, which is
larger than ``m`` itself on these workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from workloads import Case, Outputs, expected_steps, operations  # puts src/ on sys.path

from barchan import verify
from barchan.grid import admissible
from barchan.stepper import kernel_for, source_eval, transport_flux, transport_speed_bound

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MASS_TOL = 1e-10


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _certified_error(traj) -> float:
    return max((d.projection_gap for d in traj.steps), default=0.0)


def field_tolerance(case: Case, cert_run: float, cert_ref: float) -> float:
    """Bound on the max-norm distance of two runs' fields: one certified
    projection error per step (and one for a projected start) per run."""
    tol = case.numerics.proj_tol
    return (expected_steps(case) + 1) * (max(tol, cert_run) + max(tol, cert_ref))


def _trajectory_problems(case: Case, traj, label: str) -> list[str]:
    """Invariant violations of one trajectory."""
    problems = []
    want = expected_steps(case)
    if traj.failure is not None or len(traj.steps) != want:
        problems.append(f"{label}: {len(traj.steps)}/{want} steps ({traj.failure})")
    lam, mode = case.params.lam, case.numerics.constraint_mode
    final = traj.snapshots[-1]
    if not admissible(final.u, lam, mode):
        problems.append(f"{label}: final field is not admissible")
    if float(final.m.values.min()) < 0.0:
        problems.append(f"{label}: negative multiplier")
    vol = traj.grid.cell_volume
    prev_post = None
    for k, d in enumerate(traj.steps):
        budget = d.mass_post - d.mass_pre - d.dt * (d.source_integral - d.transport_outflow)
        recorded = float(traj.snapshots[k + 1].u.values.sum()) * vol
        if (
            abs(budget - d.avalanche_mass_change) > MASS_TOL
            or abs(recorded - d.mass_post) > MASS_TOL
            or (prev_post is not None and abs(d.mass_pre - prev_post) > MASS_TOL)
        ):
            problems.append(f"{label}: mass budget broken at step {k + 1}")
            break
        prev_post = d.mass_post
    if not all(math.isfinite(d.projection_gap) for d in traj.steps):
        problems.append(f"{label}: non-finite projection certificate")
    return problems


def _audit_values(out: Outputs) -> dict[str, float]:
    return {
        "vi_worst": out.vi.worst,
        "comp_worst": out.comp.worst,
        "l1_final": float(out.contraction.l1_series[-1]),
        "l2_final": float(out.contraction.l2_series[-1]),
    }


def _audit_flags(out: Outputs) -> np.ndarray:
    """vi passed, complementarity passed, L1 envelope ok, L2 nonincreasing."""
    c = out.contraction
    return np.array([out.vi.passed, out.comp.passed, c.l1_envelope_ok, c.l2_nonincreasing])


def vi_sensitivity(case: Case, out: Outputs) -> float:
    """Lipschitz bound of one VI residual in the snapshot fields (Euclidean
    norm): the energy difference quotient, the flux pairing through the
    truncated field and through the flux, and the source pairing."""
    traj, grid = out.traj, out.traj.grid
    vol, dx, root_n = grid.cell_volume, grid.spacing[0], math.sqrt(grid.node_count)
    kernel = kernel_for(case.params, grid)
    us = np.array([s.u.values for s in traj.snapshots])
    xis = np.array([xi.values for xi in out.tests.xis])
    reach = float(max(np.abs(u - xis).max() for u in us))
    dt = float(np.diff(traj.times).min())
    flux = max(float(np.linalg.norm(transport_flux(s.u, case.params, kernel))) for s in traj.snapshots)
    src = max(float(np.linalg.norm(source_eval(case.params.source, grid, s.t))) for s in traj.snapshots)
    lip_flux = transport_speed_bound(case.params, grid, kernel)
    return vol * (
        2.0 * root_n * reach / dt + 2.0 * (lip_flux * root_n * reach + flux) / dx + src
    )


def audit_tolerances(case: Case, out: Outputs, field_tol: float) -> dict[str, float]:
    grid = out.traj.grid
    vol, root_n = grid.cell_volume, math.sqrt(grid.node_count)
    return {
        "vi_worst": vi_sensitivity(case, out) * field_tol,
        "comp_worst": verify.COMP_TOL,
        "l1_final": 2.0 * vol * root_n * field_tol,
        "l2_final": 2.0 * math.sqrt(vol) * field_tol,
    }


def reference_entry(case: Case, out: Outputs) -> dict[str, np.ndarray]:
    """The outputs the reference file keeps for one seed."""
    entry = {
        "u": out.traj.snapshots[-1].u.values.copy(),
        "cert": np.array(_certified_error(out.traj)),
    }
    if out.twin is not None:
        entry["twin_u"] = out.twin.snapshots[-1].u.values.copy()
        entry["twin_cert"] = np.array(_certified_error(out.twin))
        entry.update({k: np.array(v) for k, v in _audit_values(out).items()})
        entry["flags"] = _audit_flags(out)
    return entry


def load_reference(name: str, seed: int) -> dict[str, np.ndarray] | None:
    path = REFERENCE_DIR / f"{name}.npz"
    if not path.exists():
        return None
    prefix = f"s{seed}."
    with np.load(path) as data:
        entry = {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}
    return entry or None


def compare(case: Case, out: Outputs, ref: dict[str, np.ndarray]) -> list[str]:
    """Differences from the reference beyond the derived tolerances."""
    problems = []
    pairs = [("u", "cert", out.traj)]
    if out.twin is not None:
        pairs.append(("twin_u", "twin_cert", out.twin))
    field_tol = 0.0
    for key, cert_key, traj in pairs:
        tol = field_tolerance(case, _certified_error(traj), float(ref[cert_key]))
        field_tol = max(field_tol, tol)
        got = traj.snapshots[-1].u.values
        if got.shape != ref[key].shape:
            problems.append(f"{key}: shape {got.shape} != reference {ref[key].shape}")
            continue
        diff = float(np.max(np.abs(got - ref[key])))
        if diff > tol:
            problems.append(f"{key}: max diff {diff:.3e} > tolerance {tol:.3e}")
    if out.twin is not None and not problems:
        tols = audit_tolerances(case, out, field_tol)
        for key, value in _audit_values(out).items():
            if abs(value - float(ref[key])) > tols[key]:
                problems.append(
                    f"{key}: {value:.6e} vs reference {float(ref[key]):.6e} (tol {tols[key]:.3e})"
                )
        if not np.array_equal(_audit_flags(out), ref["flags"]):
            problems.append(f"audit flags {_audit_flags(out)} != reference {ref['flags']}")
    return problems


def check(case: Case, out: Outputs, ref: dict[str, np.ndarray] | None) -> Verdict:
    """Gate one solve; a solve with any problem fails all its operations."""
    problems = _trajectory_problems(case, out.traj, "run")
    comp = out.comp if out.comp is not None else verify.complementarity_report(out.traj)
    if not comp.passed:
        problems.append(f"complementarity {comp.worst:.3e} > {comp.tol:.1e}")
    if out.twin is not None:
        problems += _trajectory_problems(case, out.twin, "twin")
        iters = [d.projection_iterations for d in out.traj.steps + out.twin.steps]
        if any(iters):
            problems.append(f"audit1d left the cone: {sum(1 for i in iters if i)} projecting steps")
        if not (out.vi.passed and out.contraction.l1_envelope_ok):
            problems.append("audit1d: VI or L1 envelope check failed")
    if ref is not None and not problems:
        problems += compare(case, out, ref)
    attempted = operations(case)
    return Verdict(attempted, attempted if problems else 0, problems)

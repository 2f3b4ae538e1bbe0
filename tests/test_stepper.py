import dataclasses
import functools
import math
import os

import numpy as np
import pytest

from barchan import projection, stepper
from barchan.constitutive import GammaProfile, HProfile
from barchan.grid import (
    HeightField,
    admissible,
    dist_to_boundary,
    integrate,
    make_grid,
    max_slope,
    norm_l2,
)
from barchan.kernels import build_kernel, nonlocal_slope
from barchan.stepper import (
    CFLViolationError,
    KernelSpec,
    ModelParams,
    Numerics,
    SourceSpec,
    cfl_dt,
    kernel_for,
    run,
    source_eval,
    step,
    transport_div,
    transport_flux,
    transport_outflow,
    transport_speed_bound,
)


def hump(grid, center, height, width):
    x = grid.coords(0)
    s = np.clip((x - center) / width, -1.0, 1.0)
    return HeightField(grid, height * (1.0 - s * s) ** 2)


def wind_params(lam=1.0, T=0.1, radius_cells=3, n=64):
    dx = 1.0 / (n + 1)
    return ModelParams(
        lam=lam,
        h=HProfile.smooth_ramp(),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", radius_cells * dx),
        T=T,
    )


def test_flux_zero_field():
    g = make_grid(1, 1.0, 32)
    p = wind_params(n=32)
    np.testing.assert_array_equal(transport_flux(HeightField.zeros(g), p), 0.0)


def test_flux_zero_wind():
    g = make_grid(1, 1.0, 32)
    p = ModelParams(lam=1.0, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / 33))
    u = hump(g, 0.5, 0.2, 0.3)
    np.testing.assert_array_equal(transport_flux(u, p), 0.0)


def test_flux_vanishes_on_lee_flank():
    g = make_grid(1, 1.0, 64)
    p = wind_params(n=64)
    u = hump(g, 0.5, 0.25, 0.3)
    k = kernel_for(p, g)
    F = transport_flux(u, p, k)
    s = nonlocal_slope(u, k)
    assert np.all(F >= 0.0)
    np.testing.assert_array_equal(F[s <= 0.0], 0.0)
    assert np.any(F[s > 0.0] > 0.0)


def test_transport_div_constant_interior():
    g = make_grid(1, 1.0, 16)
    F = np.full(16, 0.3)
    d = transport_div(g, F)
    np.testing.assert_allclose(d[1:], 0.0, atol=1e-14)
    assert d[0] == pytest.approx(0.3 / g.spacing[0])


def test_transport_div_zero():
    g = make_grid(1, 1.0, 16)
    np.testing.assert_array_equal(transport_div(g, np.zeros(16)), 0.0)


def test_transport_div_single_cell_telescopes():
    # flux in one cell moves mass from that node to its right neighbour;
    # the discrete sum equals the boundary outflow (zero here)
    g = make_grid(1, 1.0, 16)
    dx = g.spacing[0]
    F = np.zeros(16)
    F[7] = 2.0
    d = transport_div(g, F)
    assert d[7] == pytest.approx(2.0 / dx)
    assert d[8] == pytest.approx(-2.0 / dx)
    assert float(np.sum(d)) * dx == pytest.approx(transport_outflow(g, F), abs=1e-12)


def test_transport_div_sum_matches_outflow():
    g = make_grid(1, 1.0, 32)
    rng = np.random.default_rng(1)
    F = rng.uniform(0.0, 1.0, size=32)
    assert float(np.sum(transport_div(g, F))) * g.spacing[0] == pytest.approx(
        transport_outflow(g, F), abs=1e-12
    )


def test_cfl_zero_wind_returns_cap():
    g = make_grid(1, 1.0, 32)
    p = ModelParams(lam=1.0, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / 33))
    nm = Numerics(dt_max=0.25)
    assert cfl_dt(HeightField.zeros(g), p, nm) == 0.25


def test_cfl_documented_formula():
    # gamma identity (Lip 1), H constant(1) (sup 1, Lip 0): v_max = 1,
    # so dt = 0.45 * dx = 0.045 at dx = 0.1
    g = make_grid(1, 1.0, 9)
    p = ModelParams(
        lam=1.0,
        h=HProfile.constant(1.0),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("box", 0.1),
    )
    nm = Numerics(dt_max=10.0)
    assert cfl_dt(HeightField.zeros(g), p, nm) == pytest.approx(0.045)


def test_cfl_halves_with_dx():
    p_coarse = ModelParams(
        lam=1.0, h=HProfile.constant(1.0), gamma=GammaProfile.identity(),
        kernel=KernelSpec("box", 0.1),
    )
    nm = Numerics(dt_max=10.0)
    g1 = make_grid(1, 1.0, 9)
    g2 = make_grid(1, 1.0, 19)
    dt1 = cfl_dt(HeightField.zeros(g1), p_coarse, nm)
    dt2 = cfl_dt(HeightField.zeros(g2), p_coarse, nm)
    assert dt2 == pytest.approx(dt1 / 2.0)


def test_step_sandpile_fixed_point_exact():
    g = make_grid(1, 1.0, 31)
    p = ModelParams(lam=1.0, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / 32))
    u = HeightField(g, 0.7 * dist_to_boundary(g))
    u2, m = step(u, 0.0, 0.05, p)
    np.testing.assert_array_equal(u2.values, u.values)
    np.testing.assert_array_equal(m.values, 0.0)


def test_step_zero_stays_zero():
    g = make_grid(1, 1.0, 31)
    p = wind_params(n=31)
    dt = cfl_dt(HeightField.zeros(g), p)
    u2, m = step(HeightField.zeros(g), 0.0, dt, p)
    np.testing.assert_array_equal(u2.values, 0.0)


def test_run_and_step_evaluate_the_speed_bound_once(monkeypatch):
    g = make_grid(1, 1.0, 31)
    p = wind_params(n=31, T=0.05)
    u = hump(g, 0.5, 0.2, 0.3)
    dt = cfl_dt(u, p) / 2.0
    calls = []
    bound = stepper.transport_speed_bound

    def counting(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(stepper, "transport_speed_bound", counting)
    for solve in (
        lambda: run(p, u),
        lambda: run(dataclasses.replace(p, dt=dt), u),
        lambda: step(u, 0.0, dt, p),
    ):
        calls.clear()
        solve()
        assert len(calls) == 1


@pytest.mark.parametrize("h", [HProfile.smooth_ramp(), HProfile.zero()])
def test_run_auto_dt_is_cfl_dt(h):
    g = make_grid(1, 1.0, 31)
    p = dataclasses.replace(wind_params(n=31, T=0.5), h=h)
    nm = Numerics(dt_max=0.2)
    u = hump(g, 0.5, 0.2, 0.3)
    traj = run(p, u, numerics=nm)
    assert len(traj.steps) >= 2
    assert traj.steps[0].dt == cfl_dt(u, p, nm)


def test_step_rejects_cfl_violation():
    g = make_grid(1, 1.0, 31)
    p = wind_params(n=31)
    u = hump(g, 0.5, 0.2, 0.3)
    with pytest.raises(CFLViolationError):
        step(u, 0.0, 1.0, p)


def test_run_rejects_cfl_violation():
    g = make_grid(1, 1.0, 31)
    p = ModelParams(
        lam=1.0, h=HProfile.smooth_ramp(), kernel=KernelSpec("triangle", 3 / 32), T=2.0, dt=1.0
    )
    with pytest.raises(CFLViolationError):
        run(p, hump(g, 0.5, 0.2, 0.3))


def _flag_projections(monkeypatch, unconverged=()):
    """Wrap ``stepper.resolvent_step`` to record each result, and flag the
    calls numbered in ``unconverged`` (from 1) as not converged."""
    results = []

    def wrapped(*args, **kwargs):
        res = projection.resolvent_step(*args, **kwargs)
        results.append(res)
        if len(results) in unconverged:
            res.converged = False
        return res

    monkeypatch.setattr(stepper, "resolvent_step", wrapped)
    return results


def _unconverged_warnings(caplog):
    messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    return [m for m in messages if "not converged" in m]


def test_run_start_projection_budget_and_strict_stop(caplog, monkeypatch):
    # A 2D start far outside the cone needs many PDHG iterations; with a
    # budget of 3 the start projection cannot converge, so a strict run
    # stops before step 1, keeping u0 as given, and a lenient one logs it
    # and carries on.
    g = make_grid(2, (1.0, 1.0), (12, 12))
    X, Y = g.meshgrid()
    u0 = HeightField(g, np.exp(-40.0 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)))
    p = ModelParams(lam=0.5, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / 13), T=0.1)
    with caplog.at_level("ERROR"):
        traj = run(p, u0, numerics=Numerics(proj_max_iter=3))
    assert "start projection not converged" in traj.failure
    assert "after 3 iterations" in traj.failure
    assert traj.steps == [] and len(traj.snapshots) == 1
    np.testing.assert_array_equal(traj.snapshots[0].u.values, u0.values)
    assert "run aborted" in caplog.text
    caplog.clear()
    results = _flag_projections(monkeypatch)
    with caplog.at_level("WARNING"):
        lenient = run(p, u0, numerics=Numerics(proj_max_iter=3, strict=False))
    assert lenient.failure is None and len(lenient.steps) == 1
    logged = _unconverged_warnings(caplog)
    assert logged[0].startswith("start projection not converged")
    assert len(logged) == sum(not r.converged for r in results) >= 1


def test_run_holds_every_step_projection_to_one_policy(caplog, monkeypatch):
    g = make_grid(1, 1.0, 64)
    p = wind_params(lam=0.7, T=0.05, n=64)
    u0 = hump(g, 0.4, 0.12, 0.3)
    assert admissible(u0, p.lam)  # no start projection: call k is step k
    full = run(p, u0)
    assert full.failure is None and len(full.steps) > 4

    # strict: a failed step-3 projection keeps steps 1 and 2 and names the
    # start time of step 3
    results = _flag_projections(monkeypatch, {3})
    with caplog.at_level("ERROR"):
        traj = run(p, u0)
    assert len(results) == 3
    assert traj.steps == full.steps[:2] and len(traj.snapshots) == 3
    assert traj.failure.startswith(f"projection at t={full.steps[1].t:.6g} not converged (gap ")
    assert "run aborted" in caplog.text

    # lenient: the run finishes as before and logs one warning per
    # uncertified projection
    caplog.clear()
    results = _flag_projections(monkeypatch, {2, 4})
    with caplog.at_level("WARNING"):
        lenient = run(p, u0, numerics=Numerics(strict=False))
    assert lenient.failure is None and lenient.steps == full.steps
    assert len(results) == len(full.steps)
    assert _unconverged_warnings(caplog) == [
        f"projection at t={full.steps[k - 2].t:.6g} not converged "
        f"(gap {results[k - 1].primal_dual_gap:.3e} after {results[k - 1].iterations} iterations)"
        for k in (2, 4)
    ]


def test_run_rejects_non_finite_start_before_any_step(monkeypatch):
    # a NaN written into u0 after its construction is caught where run takes
    # u0 in, before any projection or step
    g = make_grid(1, 1.0, 31)
    p = ModelParams(lam=1.0, h=HProfile.zero(), T=0.1, dt=0.05,
                    kernel=KernelSpec("triangle", 3 / 32))
    u0 = hump(g, 0.4, 0.2, 0.25)
    u0.values[7] = np.nan
    calls = []
    monkeypatch.setattr(stepper, "resolvent_step", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="non-finite"):
        run(p, u0)
    assert calls == []


def test_run_T_zero_is_initial_state():
    g = make_grid(1, 1.0, 31)
    p = ModelParams(lam=1.0, h=HProfile.zero(), T=0.0, kernel=KernelSpec("triangle", 3 / 32))
    u0 = hump(g, 0.4, 0.2, 0.25)
    traj = run(p, u0)
    assert len(traj.snapshots) == 1
    np.testing.assert_array_equal(traj.snapshots[0].u.values, u0.values)


def test_run_frozen_sandpile_constant():
    g = make_grid(1, 1.0, 31)
    p = ModelParams(lam=1.0, h=HProfile.zero(), T=0.5, dt=0.05,
                    kernel=KernelSpec("triangle", 3 / 32))
    u0 = HeightField(g, 0.9 * dist_to_boundary(g))
    traj = run(p, u0)
    for snap in traj.snapshots:
        np.testing.assert_array_equal(snap.u.values, u0.values)


def test_run_inadmissible_u0_projected(caplog, monkeypatch):
    # the start projection is the resolvent of a zero drive, through the
    # same stepper.resolvent_step as every step: one call more than steps
    g = make_grid(1, 1.0, 31)
    p = ModelParams(lam=0.5, h=HProfile.zero(), T=0.05, dt=0.05,
                    kernel=KernelSpec("triangle", 3 / 32))
    u0 = HeightField(g, 3.0 * dist_to_boundary(g))
    results = _flag_projections(monkeypatch)
    with caplog.at_level("WARNING"):
        traj = run(p, u0)
    assert "not admissible" in caplog.text
    assert admissible(traj.snapshots[0].u, 0.5)
    assert len(traj.steps) == 1 and len(results) == 2
    np.testing.assert_array_equal(traj.snapshots[0].u.values, projection.project(u0, 0.5).u.values)


def test_run_admissibility_and_height_bound():
    g = make_grid(1, 1.0, 64)
    p = wind_params(lam=0.5, T=0.05, n=64)
    u0 = hump(g, 0.4, 0.12, 0.3)
    traj = run(p, u0, snapshot_every=5)
    assert traj.failure is None
    bound = p.lam * g.diameter + 1e-8
    for snap in traj.snapshots:
        assert admissible(snap.u, p.lam)
        assert np.max(np.abs(snap.u.values)) <= bound


def test_mass_budget_identity():
    # transport mass change is exactly dt * (source - outflow); the
    # projection change is measured on top of it
    g = make_grid(1, 1.0, 64)
    p = ModelParams(
        lam=0.6,
        h=HProfile.smooth_ramp(),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 3 / 65),
        source=SourceSpec("patch", center=(0.3,), width=0.1, rate=0.4),
        T=0.05,
    )
    u0 = hump(g, 0.4, 0.1, 0.3)
    traj = run(p, u0)
    assert traj.failure is None
    assert len(traj.steps) > 5
    for d in traj.steps:
        lhs = d.mass_post - d.mass_pre
        rhs = d.dt * (d.source_integral - d.transport_outflow) + d.avalanche_mass_change
        assert abs(lhs - rhs) <= 1e-10


def test_pure_transport_mass_conservation():
    # while the hump stays inside the cone the projection takes its
    # admissible short-cut (0 iterations), so a step is pure transport;
    # with the flux vanishing near the boundary the conservative form
    # telescopes and mass is constant to 1e-12 over those steps
    g = make_grid(1, 1.0, 64)
    p = wind_params(lam=2.0, T=0.02, n=64)
    u0 = hump(g, 0.35, 0.15, 0.2)
    traj = run(p, u0)
    assert traj.failure is None
    transport_only = [d for d in traj.steps if d.projection_iterations == 0]
    assert len(transport_only) >= 100
    for d in transport_only:
        assert d.transport_outflow == 0.0
        assert abs(d.mass_post - d.mass_pre) <= 1e-12


def test_sandpile_l2_nonexpansive():
    g = make_grid(1, 1.0, 48)
    p = ModelParams(
        lam=1.0, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / 49),
        source=SourceSpec("patch", center=(0.5,), width=0.08, rate=1.0),
        T=0.4, dt=0.02,
    )
    u1 = hump(g, 0.45, 0.2, 0.25)
    u2 = hump(g, 0.55, 0.15, 0.3)
    t1 = run(p, u1)
    t2 = run(p, u2)
    d = [
        np.linalg.norm(a.u.values - b.u.values)
        for a, b in zip(t1.snapshots, t2.snapshots)
    ]
    assert all(d[i + 1] <= d[i] + 1e-8 for i in range(len(d) - 1))


def skew_hump(grid, center, height, w_left, w_right):
    x = grid.coords(0)
    s = np.where(x < center, (x - center) / w_left, (x - center) / w_right)
    s = np.clip(s, -1.0, 1.0)
    return HeightField(grid, height * (1.0 - s * s) ** 2)


def test_crest_advances_with_wind():
    # near-step wind response: the windward face advects at nearly uniform
    # speed, feeding the crest faster than the avalanche return flow; the
    # crest index trends rightward (slope-proportional H instead locks the
    # dune into a static repose triangle, see the flux tests)
    g = make_grid(1, 1.0, 64)
    dx = g.spacing[0]
    p = ModelParams(
        lam=0.5,
        h=HProfile.erf_smoothed(0.25),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("cosine_bump", 10 * dx),
        T=0.25,
    )
    u0 = skew_hump(g, 0.35, 0.08, 0.26, 0.45)
    traj = run(p, u0, snapshot_every=10)
    assert traj.failure is None
    crests = [d.crest_index for d in traj.steps]
    assert all(c2 >= c1 for c1, c2 in zip(crests, crests[1:]))
    assert crests[-1] > crests[0]


def picard_sweeps(u0, t, dt, p, sweeps):
    """The field after ``sweeps`` Picard sweeps of one split step from
    ``u0``: each is the resolvent step of ``u0`` under the drive with the
    flux at the previous sweep's field (``u0`` first), warm-started from
    that sweep's dual."""
    g = u0.grid
    k = kernel_for(p, g)
    f = source_eval(p.source, g, t)
    v, slopes, dual = u0, None, None
    for _ in range(sweeps):
        drive = f - transport_div(g, transport_flux(v, p, k, slopes))
        res = projection.resolvent_step(u0, drive, dt, p.lam, warm_dual=dual)
        assert res.converged
        v, slopes, dual = res.u, res.slopes, res.dual
    return v


def test_picard_inner_loop_insensitive():
    g = make_grid(1, 1.0, 48)
    p = wind_params(lam=0.8, T=0.02, n=48)
    u0 = hump(g, 0.4, 0.15, 0.3)
    k = kernel_for(p, g)
    L = transport_speed_bound(p, g, k)
    dx = g.spacing[0]
    drive = source_eval(p.source, g, 0.0) - transport_div(g, transport_flux(u0, p, k))
    dt0 = cfl_dt(u0, p)
    # Each sweep is the map v -> P_K(u0 + dt * drive(v)), drive(v) = f - div F(v).
    # L bounds the Lipschitz constant of the flux F over admissible heights and
    # the upwind divergence has norm <= 2/dx, so drive is (2L/dx)-Lipschitz and,
    # P_K being nonexpansive in L2, the sweep contracts with q = 2*L*dt/dx.
    # u0 is admissible, so ||u1 - u0|| <= dt*||drive(u0)||, and the sweeps
    # after the first move by at most q and q^2 times that:
    #     ||u3 - u1|| <= (q + q^2) * dt * ||drive(u0)||   (cell-weighted L2).
    # The bound only gives O(dt) at q ~ 1; the O(dt^2) order of the gap
    # between one sweep and the inner iteration is pinned by halving dt.
    # A step is one sweep, bit for bit.
    diffs = []
    for dt in (dt0, dt0 / 2, dt0 / 4):
        u_1 = picard_sweeps(u0, 0.0, dt, p, 1)
        u_3 = picard_sweeps(u0, 0.0, dt, p, 3)
        assert step(u0, 0.0, dt, p)[0].values.tobytes() == u_1.values.tobytes()
        diff = u_3.values - u_1.values
        q = 2.0 * L * dt / dx
        assert norm_l2(g, diff) <= (q + q * q) * dt * norm_l2(g, drive)
        diffs.append(np.max(np.abs(diff)))
    # the inner loop re-evaluated the flux, and the gap shrinks like dt^2
    assert diffs[-1] > 0.0
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_run_2d_smoke():
    g = make_grid(2, (1.0, 1.0), (16, 16))
    X, Y = g.meshgrid()
    r = np.sqrt((X - 0.4) ** 2 + (Y - 0.5) ** 2)
    u0 = HeightField(g, 0.08 * np.clip(1 - (r / 0.25) ** 2, 0, 1) ** 2)
    p = ModelParams(
        lam=0.5, kernel=KernelSpec("triangle", 3 * g.spacing[0]), T=5e-3
    )
    traj = run(p, u0, snapshot_every=10)
    assert traj.failure is None
    for snap in traj.snapshots:
        assert admissible(snap.u, 0.5)


def test_run_2d_projections_settle_in_newton(monkeypatch):
    # The 64x64 benchmark dune shrunk to 24x24: a windy hump that starts
    # outside the cone.  Every projection, the start one included, must
    # settle in Newton; a PDHG fallback keeps the answers but runs many
    # times slower, so it is made to fail here.
    def no_fallback(*args, **kwargs):
        raise AssertionError("a 2D projection fell back to PDHG")

    monkeypatch.setattr(projection, "project_pdhg", no_fallback)
    g = make_grid(2, (1.0, 1.0), (24, 24))
    X, Y = g.meshgrid()
    r = np.sqrt((X - 0.4) ** 2 + (Y - 0.5) ** 2)
    u0 = HeightField(g, 0.085 * np.clip(1.0 - (r / 0.25) ** 2, 0.0, 1.0) ** 2)
    p = ModelParams(
        lam=0.5,
        h=HProfile.smooth_ramp(),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 4 * g.spacing[0]),
        T=0.01,
    )
    assert max_slope(u0) > p.lam
    traj = run(p, u0)
    assert traj.failure is None and len(traj.steps) == 6
    for d in traj.steps:
        assert 1 <= d.projection_iterations <= projection.NEWTON_MAX_STEPS
    for snap in traj.snapshots:
        assert admissible(snap.u, p.lam)


def _guard_run(case):
    """A windy 1D run, or a windy 2D run that starts outside the cone, with
    its constraint mode and initial field."""
    if case == "1d":
        g = make_grid(1, 1.0, 64)
        dx = g.spacing[0]
        p = ModelParams(
            lam=0.5,
            h=HProfile.erf_smoothed(0.25),
            gamma=GammaProfile.identity(),
            kernel=KernelSpec("cosine_bump", 10 * dx),
            T=0.06,
        )
        u0 = skew_hump(g, 0.35, 0.08, 0.26, 0.45)
        return run(p, u0), "isotropic", u0
    mode = case.split("-")[1]
    g = make_grid(2, (1.0, 1.0), (24, 24))
    X, Y = g.meshgrid()
    r = np.sqrt((X - 0.4) ** 2 + (Y - 0.5) ** 2)
    u0 = HeightField(g, 0.085 * np.clip(1.0 - (r / 0.25) ** 2, 0.0, 1.0) ** 2)
    p = ModelParams(lam=0.5, kernel=KernelSpec("triangle", 4 * g.spacing[0]), T=0.01)
    return run(p, u0, numerics=Numerics(constraint_mode=mode)), mode, u0


@pytest.mark.parametrize("case", ["1d", "2d-isotropic", "2d-componentwise"])
def test_step_loop_carries_mass_and_slopes_and_owns_fields(case):
    # A step hands the next one the mass of its field and reuses the edge
    # slopes the projection took of it; both must equal a fresh evaluation
    # bit for bit.  And each snapshot owns its arrays.
    traj, mode, u0 = _guard_run(case)
    steps, snaps = traj.steps, traj.snapshots
    assert traj.failure is None and len(steps) >= 5
    assert len(snaps) == len(steps) + 1
    assert any(d.projection_iterations > 0 for d in steps)
    for prev, d in zip(steps, steps[1:]):
        assert d.mass_pre == prev.mass_post
    for d, snap in zip(steps, snaps[1:]):
        assert d.max_slope == max_slope(snap.u, mode)
    kept = [(s.u.values.copy(), s.m.values.copy()) for s in snaps]

    def unchanged():
        return all(
            np.array_equal(s.u.values, u) and np.array_equal(s.m.values, m)
            for s, (u, m) in zip(snaps, kept)
        )

    u0.values += 1.0
    assert unchanged(), "a snapshot shares the initial field's array"
    for i, s in enumerate(snaps):
        s.u.values += 1.0
        s.m.values += 1.0
        kept[i] = (s.u.values.copy(), s.m.values.copy())
        assert unchanged(), f"snapshot {i} shares an array with another"


# The windy dune of the crest-advance test (T = 0.06, the kernel radius held
# at 0.15), run at n and 2n + 1 nodes.  The L1 distance of the final fields,
# the fine one sampled at the coarse nodes, falls by about 2 per refinement:
# first order, as upwind transport with implicit Euler avalanches gives.
# Hump height -> the ratios measured over n = 63, 127, 255 and 511.  At 0.2
# the avalanche is active from the start and the first ratio is still
# pre-asymptotic.
CAUCHY_RATIOS = {0.08: (1.983, 2.023), 0.2: (3.021, 1.948)}
# The distances are 2e-5 or more, where each projection is certified to
# 1e-8, so rounding moves a ratio by far less than this; a larger move is a
# change of the scheme.
CAUCHY_MARGIN = 0.05


def _windy_final(n, height):
    g = make_grid(1, 1.0, n)
    p = ModelParams(
        lam=0.5,
        h=HProfile.erf_smoothed(0.25),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("cosine_bump", 0.15),
        T=0.06,
    )
    traj = run(p, skew_hump(g, 0.35, height, 0.26, 0.45))
    assert traj.failure is None and traj.snapshots[-1].t == pytest.approx(0.06)
    return g, traj.snapshots[-1].u.values


@pytest.mark.parametrize("height", sorted(CAUCHY_RATIOS))
def test_windy_dune_converges_at_first_order(height):
    runs = [_windy_final(n, height) for n in (63, 127, 255, 511)]
    dist = [
        integrate(g, np.abs(u - fine[1::2])) for (g, u), (_, fine) in zip(runs, runs[1:])
    ]
    ratios = [a / b for a, b in zip(dist, dist[1:])]
    for got, want in zip(ratios, CAUCHY_RATIOS[height]):
        assert abs(got / want - 1.0) <= CAUCHY_MARGIN, (ratios, CAUCHY_RATIOS[height])


# The windless growing sandpile (Prigozhin, Eur. J. Appl. Math. 7, 1996): a
# point source of mass rate Q at the centre c builds the cone
# u = max(0, H(t) - lam r) until its base reaches the wall, with r and H
# per case: |x - c| and H^2 = lam Q t in 1D; the Euclidean distance and
# H^3 = 3 lam^2 Q t / pi in 2D isotropic mode; the L1 distance and
# H^3 = 1.5 lam^2 Q t in 2D componentwise mode.
PILE_LAM, PILE_Q, PILE_T = 1.0, 0.1, 1.0
# (dim, mode, nodes per axis) -> measured L1 error of the field at T.
PILE_L1_ERRORS = {
    (1, "isotropic", 63): 1.03e-4,
    (1, "isotropic", 127): 4.44e-5,
    (1, "isotropic", 255): 1.52e-5,
    (1, "isotropic", 511): 6.65e-7,
    (2, "componentwise", 31): 1.73e-3,
    (2, "componentwise", 63): 1.76e-4,
    (2, "isotropic", 31): 9.16e-3,
    (2, "isotropic", 63): 5.82e-3,
}
# Headroom of 10% over the measured errors, for rounding that differs
# between platforms and BLAS builds.
PILE_MARGIN = 1.1


@functools.lru_cache(maxsize=None)
def _growing_pile(dim, mode, n):
    """Run the pile on a box of side 2 with the source one node at its
    centre; return the trajectory, the L1 error against the exact cone at
    T and the mass error."""
    g = make_grid(dim, 2.0, n)
    params = ModelParams(
        lam=PILE_LAM,
        h=HProfile.zero(),
        gamma=GammaProfile.zero(),
        kernel=KernelSpec("box", g.spacing[0]),
        source=SourceSpec("patch", center=(1.0,) * dim, width=0.0, rate=PILE_Q / g.cell_volume),
        T=PILE_T,
        dt=0.05,
    )
    traj = run(params, HeightField.zeros(g), numerics=Numerics(constraint_mode=mode))
    d = [np.abs(x - 1.0) for x in np.meshgrid(*[g.coords(a) for a in range(dim)], indexing="ij")]
    if dim == 1:
        r, height = d[0], math.sqrt(PILE_LAM * PILE_Q * PILE_T)
    elif mode == "isotropic":
        r, height = np.hypot(*d), (3.0 * PILE_LAM**2 * PILE_Q * PILE_T / math.pi) ** (1 / 3)
    else:
        r, height = d[0] + d[1], (1.5 * PILE_LAM**2 * PILE_Q * PILE_T) ** (1 / 3)
    last = traj.snapshots[-1]
    assert traj.failure is None and last.t == PILE_T
    exact = np.maximum(0.0, height - PILE_LAM * r)
    err = integrate(g, np.abs(last.u.values - exact))
    return traj, err, abs(integrate(g, last.u.values) - PILE_Q * PILE_T)


@pytest.mark.parametrize("case", list(PILE_L1_ERRORS), ids=lambda c: "-".join(map(str, c)))
def test_growing_sandpile_matches_exact_cone(case):
    traj, err, mass_err = _growing_pile(*case)
    assert err <= PILE_MARGIN * PILE_L1_ERRORS[case]
    assert mass_err <= 1e-12
    if case == (1, "isotropic", 511):
        # the first step needs more than NEWTON_MAX_STEPS solves, so the
        # path dynamic program finishes it inside a real run
        assert traj.steps[0].projection_iterations == projection.NEWTON_MAX_STEPS + 1


def test_growing_sandpile_isotropic_rate():
    # Isotropic mode converges slowly: the L1 error falls by a factor of
    # about 1.57 from 31^2 to 63^2 nodes, where componentwise mode gains a
    # factor of about 10.  The cause is open (the Euclidean norm of forward
    # differences is not rotation invariant, perhaps); a change that moves
    # the rate should say why.
    def ratio(mode):
        return _growing_pile(2, mode, 31)[1] / _growing_pile(2, mode, 63)[1]

    assert 1.4 <= ratio("isotropic") <= 1.75
    assert ratio("componentwise") >= 8.0


def test_source_patch_point_fallback():
    g = make_grid(1, 1.0, 31)
    s = SourceSpec("patch", center=(0.5,), width=0.0, rate=2.0)
    f = source_eval(s, g, 0.0)
    assert np.count_nonzero(f) == 1
    assert f[15] == 2.0


def test_source_tabulated(tmp_path):
    g = make_grid(1, 1.0, 3)
    path = tmp_path / "src.csv"
    path.write_text("0.0,1.0,2.0,3.0\n0.5,4.0,5.0,6.0\n")
    s = SourceSpec("tabulated", path=str(path))
    np.testing.assert_array_equal(source_eval(s, g, 0.1), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(source_eval(s, g, 0.7), [4.0, 5.0, 6.0])


def test_source_tabulated_table_is_read_only(tmp_path):
    # a write into one evaluation must not reach the cached table, and with
    # it every later evaluation
    g = make_grid(1, 1.0, 3)
    path = tmp_path / "src.csv"
    path.write_text("0.0,1.0,2.0,3.0\n0.5,4.0,5.0,6.0\n")
    s = SourceSpec("tabulated", path=str(path))
    f = source_eval(s, g, 0.1)
    with pytest.raises(ValueError, match="read-only"):
        f[:] = 99.0
    np.testing.assert_array_equal(source_eval(s, g, 0.2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "spec, grid, want",
    [
        (SourceSpec(), make_grid(1, 1.0, 31), lambda x: np.zeros(31)),
        (SourceSpec(), make_grid(2, (1.0, 0.5), (15, 7)), lambda x, y: np.zeros((15, 7))),
        (
            SourceSpec("patch", center=(0.3,), width=0.1, rate=0.4),
            make_grid(1, 1.0, 31),
            lambda x: np.where(np.abs(x - 0.3) <= 0.05 + 1e-12, 0.4, 0.0),
        ),
        (
            SourceSpec("patch", center=(0.35,), width=0.2, rate=0.5),
            make_grid(2, (1.0, 0.5), (15, 7)),
            lambda x, y: np.where(
                (np.abs(x - 0.35) <= 0.1 + 1e-12) & (np.abs(y - 0.25) <= 0.1 + 1e-12), 0.5, 0.0
            ),
        ),
    ],
)
def test_static_source_is_shared_and_read_only(spec, grid, want):
    f = source_eval(spec, grid, 0.0)
    expected = want(*grid.meshgrid())
    assert expected.any() == (spec.kind == "patch")
    assert f.tobytes() == expected.tobytes()
    assert source_eval(spec, grid, 0.7) is f
    with pytest.raises(ValueError, match="read-only"):
        f[...] = 1.0
    assert source_eval(spec, grid, 0.0).tobytes() == expected.tobytes()


def test_kernel_for_shared_per_profile_radius_and_spacing():
    g = make_grid(1, 1.0, 31)
    p = wind_params(n=31)
    k = kernel_for(p, g)
    # equal (profile, radius, x spacing): the same object, whatever else differs
    assert kernel_for(dataclasses.replace(p, T=2.0), g) is k
    assert kernel_for(p, make_grid(2, (1.0, 0.5), (31, 7))) is k
    # another radius or spacing: another kernel
    assert kernel_for(dataclasses.replace(p, kernel=KernelSpec("triangle", 4 / 32)), g) is not k
    assert kernel_for(p, make_grid(1, 1.0, 63)) is not k
    fresh = build_kernel("triangle", 3 / 32, g.spacing[0])
    assert k == fresh and k.weights.tobytes() == fresh.weights.tobytes()
    assert fresh.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        k.weights[0] = 1.0


def test_source_tabulated_rewritten_file_is_reread(tmp_path):
    g = make_grid(1, 1.0, 3)
    path = tmp_path / "src.csv"
    path.write_text("0.0,1.0,2.0,3.0\n")
    s = SourceSpec("tabulated", path=str(path))
    np.testing.assert_array_equal(source_eval(s, g, 0.0), [1.0, 2.0, 3.0])
    # same size; the modification time is moved on explicitly because a
    # fast rewrite can land in the same filesystem timestamp tick
    before = os.stat(path)
    path.write_text("0.0,7.0,8.0,9.0\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    np.testing.assert_array_equal(source_eval(s, g, 0.0), [7.0, 8.0, 9.0])


def test_source_tabulated_column_count_checked(tmp_path):
    g = make_grid(1, 1.0, 3)
    path = tmp_path / "src.csv"
    path.write_text("0.0,1.0,2.0\n0.5,4.0,5.0\n")
    with pytest.raises(ValueError, match="2 rate columns"):
        source_eval(SourceSpec("tabulated", path=str(path)), g, 0.1)


def test_source_tabulated_times_must_increase(tmp_path):
    g = make_grid(1, 1.0, 3)
    path = tmp_path / "src.csv"
    path.write_text("0.0,1.0,2.0,3.0\n0.5,4.0,5.0,6.0\n0.5,7.0,8.0,9.0\n")
    with pytest.raises(ValueError, match="strictly increase"):
        source_eval(SourceSpec("tabulated", path=str(path)), g, 0.1)


def test_params_validation():
    with pytest.raises(ValueError, match="lam"):
        ModelParams(lam=0.0)
    with pytest.raises(ValueError, match="lam"):
        ModelParams(lam=math.inf)
    with pytest.raises(ValueError, match="dt"):
        ModelParams(lam=1.0, dt="fast")
    with pytest.raises(ValueError, match="dt"):
        ModelParams(lam=1.0, dt=-0.1)
    with pytest.raises(ValueError, match="dt"):
        ModelParams(lam=1.0, dt=math.inf)
    for T in (math.nan, math.inf):
        with pytest.raises(ValueError, match="T"):
            ModelParams(lam=1.0, T=T)
    with pytest.raises(ValueError, match="source"):
        SourceSpec("rain")
    with pytest.raises(ValueError, match="path"):
        SourceSpec("tabulated", path="")


@pytest.mark.parametrize(
    "field, value",
    [
        ("width", -1.0),
        ("width", math.nan),
        ("width", math.inf),
        ("rate", math.nan),
        ("rate", math.inf),
        ("center", (math.nan,)),
    ],
)
def test_source_validation(field, value):
    with pytest.raises(ValueError, match=field):
        SourceSpec("patch", **{field: value})


def test_source_center_entries_checked():
    g = make_grid(1, 1.0, 31)
    with pytest.raises(ValueError, match="center"):
        source_eval(SourceSpec("patch", center=(0.5, 0.5, 0.5), rate=1.0), g, 0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("cfl_number", 0.0),
        ("cfl_number", -0.5),
        ("cfl_number", float("nan")),
        ("cfl_number", math.inf),
        ("cfl_number", 1.5),  # beyond the upwind step's stability limit
        ("dt_max", 0.0),
        ("dt_max", -1.0),
        ("dt_max", math.inf),
        ("dt_max", float("nan")),
        ("proj_tol", 0.0),
        ("proj_tol", math.inf),
        ("proj_max_iter", 0),
        ("proj_max_iter", 100.5),
        ("constraint_mode", "diagonal"),
    ],
)
def test_numerics_validation(field, value):
    with pytest.raises(ValueError, match=field):
        Numerics(**{field: value})


def test_numerics_accepts_courant_number_one():
    assert Numerics(cfl_number=1.0).cfl_number == 1.0

import dataclasses

import numpy as np
import pytest
from scipy.integrate import trapezoid

from barchan import verify
from barchan.constitutive import GammaProfile, HProfile
from barchan.grid import (
    HeightField,
    admissible,
    dist_to_boundary,
    edge_slopes,
    hosted,
    integrate,
    make_grid,
    node_slope_magnitude,
)
from barchan.projection import project_pdhg
from barchan.stepper import (
    KernelSpec,
    ModelParams,
    Numerics,
    SourceSpec,
    kernel_for,
    run,
    source_eval,
    transport_div,
    transport_flux,
)
from barchan.verify import (
    ComplementarityReport,
    complementarity_report,
    contraction_report,
    energy,
    gronwall_constant,
    make_test_functions,
    truncate,
    vi_report,
    vi_residual,
)


def frozen_traj(n=31, lam=1.0, steps=10):
    g = make_grid(1, 1.0, n)
    p = ModelParams(
        lam=lam, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / (n + 1)),
        T=steps * 0.05, dt=0.05,
    )
    u0 = HeightField(g, 0.8 * lam * dist_to_boundary(g))
    return run(p, u0)


def windy_traj(n=48, lam=0.6, T=0.02):
    g = make_grid(1, 1.0, n)
    dx = 1.0 / (n + 1)
    p = ModelParams(
        lam=lam,
        h=HProfile.smooth_ramp(),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 3 * dx),
        source=SourceSpec("patch", center=(0.3,), width=0.1, rate=0.2),
        T=T,
    )
    x = g.coords(0)
    s = np.clip((x - 0.45) / 0.3, -1.0, 1.0)
    u0 = HeightField(g, 0.55 * lam * 0.3 / 1.54 * (1.0 - s * s) ** 2)
    return run(p, u0)


def wall_traj(n=48, lam=0.6, T=0.02):
    # a windy hump against the right wall: the wall node sits at the cone
    # bound lam * dx and the erf-smoothed response blows sand out through
    # the wall even on the lee side, so the wall flux is nonzero throughout
    g = make_grid(1, 1.0, n)
    p = ModelParams(
        lam=lam,
        h=HProfile.erf_smoothed(0.25),
        gamma=GammaProfile.identity(),
        kernel=KernelSpec("cosine_bump", 5.0 / (n + 1)),
        T=T,
    )
    x = g.coords(0)
    s = np.clip((x - 0.8) / 0.25, -1.0, 1.0)
    return run(p, HeightField(g, 0.08 * (1.0 - s * s) ** 2))


def source_traj_2d(mode):
    # windy 2D run with a source on a non-square grid, so a swapped axis shows
    g = make_grid(2, (1.0, 0.8), (12, 9))
    p = ModelParams(
        lam=0.5, h=HProfile.smooth_ramp(), gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 0.25),
        source=SourceSpec("patch", center=(0.4, 0.4), width=0.2, rate=0.5), T=0.01,
    )
    x, y = g.meshgrid()
    u0 = HeightField(g, np.maximum(0.0, 0.1 - 0.4 * np.hypot(x - 0.5, y - 0.4)))
    return run(p, u0, numerics=Numerics(constraint_mode=mode))


def interval_terms(traj, xi, k):
    """Per snapshot interval, each evaluated on its own: the energy
    quotient, the wind flux and source at the older snapshot, and
    T_k(u1 - xi) at the newer one."""
    kernel = kernel_for(traj.params, traj.grid)
    snaps = traj.snapshots
    phi = [energy(s.u, xi, k) for s in snaps]
    for i, (s0, s1) in enumerate(zip(snaps[:-1], snaps[1:])):
        dphi = (phi[i + 1] - phi[i]) / (s1.t - s0.t)
        flux = transport_flux(s0.u, traj.params, kernel)
        f = source_eval(traj.params.source, traj.grid, s0.t)
        yield dphi, flux, f, truncate(s1.u.values - xi.values, k)


def vi_residual_loop(traj, xi, k):
    """Reference: the residual one snapshot interval at a time, T_k(u1 - xi)
    paired with the drive f - transport_div(F) of the older snapshot."""
    g = traj.grid
    return np.array(
        [
            dphi - integrate(g, w * (f - transport_div(g, flux)))
            for dphi, flux, f, w in interval_terms(traj, xi, k)
        ]
    )


def flux_gradient_residual_loop(traj, xi, k):
    """The paper's form of the residual, one interval at a time: the flux
    paired with the forward x-difference of T_k(u1 - xi), zero past the
    right wall, and the source paired with T_k(u1 - xi) itself."""
    g = traj.grid
    return np.array(
        [
            dphi - integrate(g, flux * hosted(edge_slopes(g, w))[0]) - integrate(g, f * w)
            for dphi, flux, f, w in interval_terms(traj, xi, k)
        ]
    )


def gamma_n(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff: the relative
    error bound of a product of n roundings."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def by_parts_bound(grid, flux, w, f=0.0, dphi=0.0):
    """Bound on the difference of two float evaluations of one exact value:
    dphi - <F, D w> - <f, w> and dphi - <f - transport_div(F), w>, with D the
    forward x-difference zero past the right wall.  Each node term takes at
    most four roundings (a difference, the division by dx, a subtraction
    and a product), the sum over N nodes N - 1 more and the cell volume
    one, so each integral is within gamma_{N+4} of the integral of its
    terms' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3 and 4); the at most two subtractions from
    dphi add gamma_2 of the magnitudes and of |dphi|, and gamma_{N+4} +
    gamma_2 <= gamma_{N+6}.  The two evaluations' bounds add up.  The
    magnitudes are themselves computed in floats, which moves the bound
    in second order only, (N u)^2."""
    dx = grid.spacing[0]
    dw = np.abs(np.diff(w, axis=0, append=0.0)) / dx
    div = np.abs(np.diff(flux, axis=0, prepend=0.0)) / dx
    mags = np.abs(flux) * dw + np.abs(w) * (div + 2.0 * np.abs(f))
    return gamma_n(grid.node_count + 6) * integrate(grid, mags) + 2.0 * gamma_n(2) * abs(dphi)


def sequential_test_functions(grid, lam, count, seed, mode):
    """Reference: the noise members of make_test_functions drawn, smoothed
    and projected one at a time."""
    canonical = make_test_functions(grid, lam, min(count, 4), seed, mode).xis
    rng = np.random.default_rng(seed)
    xis = list(canonical)
    while len(xis) < count:
        raw = rng.normal(size=grid.shape)
        for _ in range(2):
            raw = 0.5 * raw + 0.25 * (np.roll(raw, 1, axis=0) + np.roll(raw, -1, axis=0))
        top = max(np.max(node_slope_magnitude(HeightField(grid, raw), mode)), 1e-12)
        xis.append(project_pdhg(HeightField(grid, raw * (0.9 * lam / top)), lam, mode=mode).u)
    return xis


def test_test_functions_canonical_and_admissible():
    g = make_grid(1, 1.0, 31)
    lam = 0.9
    ts = make_test_functions(g, lam, count=8, seed=3)
    assert len(ts.xis) == 8
    np.testing.assert_array_equal(ts.xis[0].values, 0.0)  # zero always included
    np.testing.assert_allclose(ts.xis[1].values, lam * dist_to_boundary(g))
    for xi in ts.xis:
        assert admissible(xi, lam)
        assert np.max(np.abs(xi.values)) <= lam * g.diameter + 1e-9


def test_test_functions_inadmissible_member_raises(monkeypatch):
    # a projection that leaves its input outside the cone must be reported
    # by an exception that survives ``python -O``, not by an assert
    class _Unprojected:
        def __init__(self, v):
            self.u = HeightField(v.grid, 10.0 * v.values)

    monkeypatch.setattr(verify, "project_pdhg", lambda v, lam, mode: _Unprojected(v))
    g = make_grid(1, 1.0, 31)
    with pytest.raises(RuntimeError, match="not admissible"):
        make_test_functions(g, 0.9, count=8, seed=3)


@pytest.mark.parametrize("count", [-1, -4, 2.5, True])
def test_test_functions_reject_negative_count(count):
    # ``xis[:count]`` would silently drop canonical members on a negative
    # count, fail on a float one and take one member for True
    g = make_grid(1, 1.0, 15)
    with pytest.raises(ValueError, match="count"):
        make_test_functions(g, 1.0, count, 0)


def test_test_functions_2d():
    g = make_grid(2, (1.0, 1.0), (9, 9))
    ts = make_test_functions(g, 0.5, count=6, seed=1)
    for xi in ts.xis:
        assert admissible(xi, 0.5)


def test_test_functions_deterministic():
    g = make_grid(1, 1.0, 21)
    a = make_test_functions(g, 1.0, count=7, seed=11)
    b = make_test_functions(g, 1.0, count=7, seed=11)
    for xi_a, xi_b in zip(a.xis, b.xis):
        np.testing.assert_array_equal(xi_a.values, xi_b.values)


@pytest.mark.parametrize("dim,count", [(1, 0), (1, 2), (1, 5), (1, 12), (2, 7)])
@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_test_functions_match_sequential_draws(dim, count, mode):
    g = make_grid(dim, 1.0, 17 if dim == 1 else (8, 6))
    for seed in (0, 3):
        got = make_test_functions(g, 0.7, count, seed, mode).xis
        want = sequential_test_functions(g, 0.7, count, seed, mode)
        assert len(got) == len(want) == count
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.values, b.values)


def test_energy_closed_form_matches_quadrature():
    # trapezoid-rule oracle for the inner integral on a few nodes
    g = make_grid(1, 1.0, 5)
    rng = np.random.default_rng(2)
    u = HeightField(g, rng.uniform(-0.3, 0.4, size=5))
    xi = HeightField(g, rng.uniform(-0.2, 0.2, size=5))
    for k in (0.05, 0.5, np.inf):
        s_grid = np.linspace(0.0, 1.0, 20001)
        acc = 0.0
        for i in range(5):
            s = s_grid * u.values[i]
            vals = truncate(s - xi.values[i], k)
            acc += trapezoid(vals, s)
        acc *= g.cell_volume
        assert energy(u, xi, k) == pytest.approx(acc, abs=1e-6)


def test_frozen_trajectory_residual_zero():
    traj = frozen_traj()
    ts = make_test_functions(traj.grid, 1.0, count=6, seed=5)
    for xi in ts.xis:
        for k in (0.01, 0.1, 1.0, np.inf):
            res = vi_residual(traj, xi, k)
            assert np.max(np.abs(res)) <= 1e-10


def test_large_k_equals_untruncated():
    traj = windy_traj()
    lam, diam = traj.params.lam, traj.grid.diameter
    ts = make_test_functions(traj.grid, lam, count=5, seed=7)
    for xi in ts.xis:
        big = vi_residual(traj, xi, 10.0 * lam * diam)
        inf = vi_residual(traj, xi, np.inf)
        np.testing.assert_allclose(big, inf, atol=1e-8)


def test_windy_residual_within_envelope():
    traj = windy_traj()
    dt = traj.steps[0].dt
    dx = traj.grid.spacing[0]
    ts = make_test_functions(traj.grid, traj.params.lam, count=6, seed=9)
    rep = vi_report(traj, ts, tol=2.0 * (dt + dx))
    assert rep.passed, f"worst residual {rep.worst} vs tol {rep.tol}"
    # the split structure makes the residual solver-tolerance small
    assert rep.worst <= 1e-4


SNAPSHOT_LOOP_CASES = pytest.mark.parametrize(
    "make_traj, at_wall",
    [
        pytest.param(frozen_traj, False, id="frozen"),
        pytest.param(windy_traj, False, id="windy"),
        pytest.param(wall_traj, True, id="windy-wall"),
        pytest.param(lambda: source_traj_2d("isotropic"), False, id="2d-isotropic"),
        pytest.param(lambda: source_traj_2d("componentwise"), False, id="2d-componentwise"),
    ],
)


@SNAPSHOT_LOOP_CASES
def test_vi_residual_matches_snapshot_loop(make_traj, at_wall):
    traj = make_traj()
    # with wind through the right wall, the outflow (the last entry of
    # transport_div) enters the drive
    kernel = kernel_for(traj.params, traj.grid)
    flux = np.stack([transport_flux(s.u, traj.params, kernel) for s in traj.snapshots[:-1]])
    assert np.any(flux[:, -1] > 0.0) == at_wall
    mode = traj.numerics.constraint_mode
    ts = make_test_functions(traj.grid, traj.params.lam, count=6, seed=4, mode=mode)
    for k in (0.01, 0.1, 1.0, np.inf):
        # one call on the whole set: one row per test function, each equal
        # bit for bit to the call on that function alone
        batch = vi_residual(traj, ts.xis, k)
        assert batch.shape == (6, len(traj.snapshots) - 1)
        for xi, row in zip(ts.xis, batch):
            single = vi_residual(traj, xi, k)
            np.testing.assert_array_equal(single, vi_residual_loop(traj, xi, k))
            np.testing.assert_array_equal(row, single)


@SNAPSHOT_LOOP_CASES
def test_vi_residual_by_parts_matches_flux_gradient_form(make_traj, at_wall):
    # the residual paired by parts equals the paper's flux-gradient form
    # within the rounding bound of the two evaluations, interval by interval
    traj = make_traj()
    mode = traj.numerics.constraint_mode
    ts = make_test_functions(traj.grid, traj.params.lam, count=6, seed=4, mode=mode)
    for k in (0.01, 0.1, 1.0, np.inf):
        for xi in ts.xis:
            new = vi_residual(traj, xi, k)
            old = flux_gradient_residual_loop(traj, xi, k)
            bounds = [
                by_parts_bound(traj.grid, flux, w, f, dphi)
                for dphi, flux, f, w in interval_terms(traj, xi, k)
            ]
            assert np.all(np.abs(new - old) <= bounds)


@pytest.mark.parametrize(
    "dim, extents, counts",
    [(1, 1.0, 17), (1, 1.0, 48), (2, (1.0, 0.8), (12, 9)), (2, (0.5, 1.0), (7, 16))],
)
def test_transport_div_is_minus_adjoint_of_forward_difference(dim, extents, counts):
    # sum_i F_i (w_{i+1} - w_i) / dx = -sum_i (F_i - F_{i-1}) / dx * w_i with
    # F_{-1} = 0 and w_n = 0: summation by parts, exact in real arithmetic,
    # so the float values differ by rounding only; the outflow F_last > 0
    # makes the wall terms count
    g = make_grid(dim, extents, counts)
    rng = np.random.default_rng(g.node_count)
    for _ in range(20):
        F = rng.uniform(0.0, 2.0, size=g.shape)
        w = rng.normal(size=g.shape)
        assert np.all(F[-1] > 0.0)
        by_gradient = integrate(g, F * hosted(edge_slopes(g, w))[0])
        by_parts = -integrate(g, transport_div(g, F) * w)
        bound = by_parts_bound(g, F, w)
        assert abs(by_gradient - by_parts) <= bound
        # the wall term F_last * (0 - w_last) / dx is far above the bound,
        # so a pairing that dropped it would fail
        wall = integrate(g, F[-1] * w[-1]) / g.spacing[0]
        assert abs(wall) > 1e6 * bound


def test_vi_residual_rejects_empty_or_mixed_sequence():
    traj = frozen_traj(n=15)
    here = HeightField.zeros(traj.grid)
    there = HeightField.zeros(make_grid(1, 1.0, 17))
    with pytest.raises(ValueError, match="no test functions"):
        vi_residual(traj, [], 1.0)
    with pytest.raises(ValueError, match="grid"):
        vi_residual(traj, [here, there], 1.0)


def vi_report_pair_loop(traj, xis, ks):
    """Reference: the records of vi_report, one vi_residual call per
    (test function, k) pair."""
    records = []
    for idx, xi in enumerate(xis):
        for k in ks:
            res = vi_residual(traj, xi, k)
            j = int(np.argmax(res))
            records.append(verify.VIRecord(idx, float(k), float(traj.times[j + 1]), float(res[j])))
    return records


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_vi_report_blocks_match_pair_loop(blocks, extra, monkeypatch):
    # test function counts around the block size B that vi_report derives
    # from its memory budget: 1, B - 1, B, B + 1 and 2B + 3
    traj = windy_traj()
    nodes = len(traj.snapshots) * traj.grid.shape[0]
    B = verify._VI_BLOCK_BYTES // (8 * nodes)
    assert B >= 3
    count = blocks * B + extra
    rng = np.random.default_rng(count)
    xis = [HeightField(traj.grid, 0.05 * rng.normal(size=traj.grid.shape)) for _ in range(count)]
    ks = verify.TestFunctionSet.k_levels
    want = vi_report_pair_loop(traj, xis, ks)

    calls = []
    exact = verify.vi_residual

    def counting(traj, xi, k, drives=None):
        calls.append((len(xi), k))
        return exact(traj, xi, k, drives)

    monkeypatch.setattr(verify, "vi_residual", counting)
    rep = vi_report(traj, verify.TestFunctionSet(xis=xis, seed=0), tol=1.0)
    assert rep.records == want
    assert rep.worst == max(r.residual for r in want)
    # one call per block and k, each with a scalar k and a full block but the last
    sizes = [B] * (count // B) + ([count % B] if count % B else [])
    assert calls == [(size, k) for size in sizes for k in ks]


def test_vi_report_rejects_empty_test_set():
    traj = frozen_traj(n=15)
    with pytest.raises(ValueError, match="empty"):
        vi_report(traj, verify.TestFunctionSet(xis=[], seed=0), tol=1e-3)


@pytest.mark.parametrize("ks", [(), (np.nan,), (0.0,), (0.1, -1.0)])
def test_vi_report_rejects_bad_k_levels(ks):
    traj = frozen_traj(n=15)
    ts = make_test_functions(traj.grid, 1.0, count=4, seed=0)
    with pytest.raises(ValueError, match="truncation level"):
        vi_report(traj, dataclasses.replace(ts, k_levels=ks), tol=1e-3)


def test_vi_report_rejects_single_snapshot():
    g = make_grid(1, 1.0, 15)
    p = ModelParams(lam=1.0, h=HProfile.zero(), T=0.0, dt=0.05,
                    kernel=KernelSpec("triangle", 3 / 16))
    traj = run(p, HeightField.zeros(g))
    ts = make_test_functions(g, 1.0, count=4, seed=0)
    with pytest.raises(ValueError, match="two snapshots"):
        vi_report(traj, ts, tol=1e-3)


def test_vi_report_nan_residual_fails(monkeypatch):
    traj = frozen_traj(n=15)
    ts = make_test_functions(traj.grid, 1.0, count=4, seed=0)
    exact = verify.vi_residual

    def nan_at_k1(traj, xi, k, drives=None):
        res = exact(traj, xi, k, drives)
        return np.full_like(res, np.nan) if k == 1.0 else res

    monkeypatch.setattr(verify, "vi_residual", nan_at_k1)
    rep = vi_report(traj, ts, tol=1e-3)
    assert np.isnan(rep.worst)
    assert not rep.passed


def test_vi_requires_dense_snapshots():
    g = make_grid(1, 1.0, 15)
    p = ModelParams(lam=1.0, h=HProfile.zero(), T=0.2, dt=0.05,
                    kernel=KernelSpec("triangle", 3 / 16))
    traj = run(p, HeightField.zeros(g), snapshot_every=2)
    xi = HeightField.zeros(g)
    with pytest.raises(ValueError, match="snapshot_every"):
        vi_residual(traj, xi, 1.0)


def test_vi_rejects_grid_mismatch():
    traj = frozen_traj(n=15)
    other = make_grid(1, 1.0, 17)
    with pytest.raises(ValueError, match="grid"):
        vi_residual(traj, HeightField.zeros(other), 1.0)


def test_complementarity_frozen_is_zero():
    rep = complementarity_report(frozen_traj())
    assert rep.worst == 0.0
    assert rep.passed


def test_complementarity_windy_within_tol():
    rep = complementarity_report(windy_traj())
    assert rep.passed, f"worst product {rep.worst}"


def test_complementarity_steady_cone_channel():
    # near-steady sandpile with a center source: the multiplier is positive
    # on a connected set around the source where the slope is active
    n = 63
    g = make_grid(1, 1.0, n)
    p = ModelParams(
        lam=1.0, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / (n + 1)),
        source=SourceSpec("patch", center=(0.5,), width=0.5 / (n + 1), rate=8.0),
        T=4.0, dt=0.05,
    )
    traj = run(p, HeightField.zeros(g))
    assert complementarity_report(traj).passed
    m = traj.snapshots[-1].m.values
    active = np.flatnonzero(m > 1e-3)
    assert active.size > 5
    assert np.all(np.diff(active) == 1)  # connected channel
    center = n // 2
    assert active[0] <= center <= active[-1]


def test_contraction_identical_initial_data():
    t1 = windy_traj()
    t2 = windy_traj()
    rep = contraction_report(t1, t2)
    np.testing.assert_array_equal(rep.l1_series, 0.0)
    assert rep.l1_envelope_ok


def test_contraction_sandpile_l2_monotone():
    n = 48
    g = make_grid(1, 1.0, n)
    p = ModelParams(lam=1.0, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / (n + 1)),
                    T=0.5, dt=0.025)
    x = g.coords(0)
    u1 = HeightField(g, np.maximum(0.0, 0.25 - np.abs(x - 0.4)))
    u2 = HeightField(g, np.maximum(0.0, 0.2 - np.abs(x - 0.6)))
    rep = contraction_report(run(p, u1), run(p, u2))
    assert rep.l2_nonincreasing
    assert rep.l1_envelope_ok


def test_contraction_wind_envelope():
    g = make_grid(1, 1.0, 48)
    dx = 1.0 / 49
    p = ModelParams(lam=0.6, h=HProfile.smooth_ramp(), gamma=GammaProfile.identity(),
                    kernel=KernelSpec("cosine_bump", 6 * dx), T=0.02)
    x = g.coords(0)
    base = np.maximum(0.0, 0.1 - np.abs(x - 0.45)) * 0.55 / 0.1 * 0.1
    u1 = HeightField(g, base)
    u2 = HeightField(g, np.roll(base, 2))
    rep = contraction_report(run(p, u1), run(p, u2))
    assert rep.envelope_constant > 0.0
    assert rep.l1_envelope_ok


def test_contraction_rejects_mismatched_params():
    t1 = frozen_traj(n=15, lam=1.0)
    g = t1.grid
    p2 = ModelParams(lam=0.5, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / 16),
                     T=t1.params.T, dt=0.05)
    t2 = run(p2, HeightField.zeros(g))
    with pytest.raises(ValueError, match="parameters"):
        contraction_report(t1, t2)


def test_contraction_rejects_different_grids():
    t1 = frozen_traj(n=15)
    t2 = run(t1.params, HeightField.zeros(make_grid(1, 1.0, 17)))
    assert np.array_equal(t1.times, t2.times)
    with pytest.raises(ValueError, match="different grids"):
        contraction_report(t1, t2)


def test_contraction_rejects_different_snapshot_times():
    # both runs have 4 snapshots, at [0, .034, .068, .1] and [0, .04, .08, .1]
    g = make_grid(1, 1.0, 15)
    p = ModelParams(lam=1.0, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 / 16), T=0.1)
    u0 = HeightField(g, 0.5 * dist_to_boundary(g))
    t1 = run(p, u0, numerics=Numerics(dt_max=0.034))
    t2 = run(p, u0, numerics=Numerics(dt_max=0.04))
    assert len(t1.snapshots) == len(t2.snapshots) == 4
    with pytest.raises(ValueError, match="snapshot times"):
        contraction_report(t1, t2)


def test_gronwall_constant_components():
    g = make_grid(1, 1.0, 48)
    p = ModelParams(lam=0.6, h=HProfile.smooth_ramp(), gamma=GammaProfile.identity(),
                    kernel=KernelSpec("triangle", 3 / 49), T=0.1)
    k = kernel_for(p, g)
    C = gronwall_constant(p, k, g)
    # all three pieces contribute: direct, dK/dx and d2K/dx2 terms
    assert C > 2 * p.lam  # at least the direct term
    p0 = ModelParams(lam=0.6, h=HProfile.zero(), kernel=p.kernel, T=0.1)
    assert gronwall_constant(p0, k, g) == 0.0


# --- the paper's invariants at run level on a 2D grid, both modes ---


def _hump_2d(grid, center, height, radius):
    x, y = grid.meshgrid()
    r = np.hypot(x - center[0], y - center[1]) / radius
    return HeightField(grid, height * np.clip(1.0 - r * r, 0.0, None) ** 2)


@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_run_2d_windy_budget_complementarity_vi(mode):
    # A windy 24x19 run with a source, from a hump outside the cone: every
    # step projects, in 2-7 Newton solves isotropic and 1-2 componentwise.
    # Measured: mass budget residual 4e-19, complementarity at most 3e-14,
    # worst VI residual 2e-12.
    g = make_grid(2, (1.0, 0.8), (24, 19))
    p = ModelParams(
        lam=0.5, h=HProfile.smooth_ramp(), gamma=GammaProfile.identity(),
        kernel=KernelSpec("triangle", 3 * g.spacing[0]),
        source=SourceSpec("patch", center=(0.35, 0.4), width=0.15, rate=0.5), T=0.02,
    )
    u0 = _hump_2d(g, (0.45, 0.4), 0.11, 0.3)
    assert not admissible(u0, p.lam, mode=mode)
    traj = run(p, u0, numerics=Numerics(constraint_mode=mode))
    assert traj.failure is None and len(traj.steps) > 10
    assert all(d.projection_iterations >= 1 for d in traj.steps)
    for d in traj.steps:
        budget = d.dt * (d.source_integral - d.transport_outflow) + d.avalanche_mass_change
        assert abs((d.mass_post - d.mass_pre) - budget) <= 1e-12
    for snap in traj.snapshots:
        assert admissible(snap.u, p.lam, mode=mode)
        assert np.all(snap.m.values >= 0.0)
    comp = complementarity_report(traj)
    assert comp.passed and comp.worst <= 1e-12
    ts = make_test_functions(g, p.lam, count=6, seed=5, mode=mode)
    vi = vi_report(traj, ts, tol=2.0 * (traj.steps[0].dt + g.spacing[0]))
    assert vi.passed and vi.worst <= 1e-9


@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_run_2d_windless_l2_nonexpansive(mode):
    # Without wind each step is a projection of the previous field plus the
    # same source, so the L2 distance of two runs cannot grow.
    g = make_grid(2, (1.0, 0.8), (24, 19))
    p = ModelParams(
        lam=0.5, h=HProfile.zero(), kernel=KernelSpec("triangle", 3 * g.spacing[0]),
        source=SourceSpec("patch", center=(0.5, 0.4), width=0.2, rate=0.3), T=0.1, dt=0.02,
    )
    a = _hump_2d(g, (0.4, 0.35), 0.12, 0.3)
    b = _hump_2d(g, (0.6, 0.45), 0.1, 0.25)
    nm = Numerics(constraint_mode=mode)
    rep = contraction_report(run(p, a, numerics=nm), run(p, b, numerics=nm))
    assert rep.l2_nonincreasing
    assert rep.l2_series[-1] < rep.l2_series[0]

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from barchan import projection
from barchan.grid import (
    HeightField,
    admissible,
    dist_to_boundary,
    edge_slopes,
    edge_slopes_adjoint,
    make_grid,
    node_slope_magnitude,
)
from barchan.projection import (
    DEFAULT_TOL,
    NEWTON_MAX_STEPS,
    MultiplierField,
    _ConeGeometry,
    _certifier,
    _gap_floor,
    _path_dp,
    _path_newton,
    project,
    project_pdhg,
    resolvent_step,
)

# Complementarity check: where the slope is below lam by more than
# SLACK_TOL, the multiplier must be at most M_TOL.
M_TOL = 1e-6
SLACK_TOL = 1e-6

# The 1D solvers: PDHG, and the path route of ``project`` (active-set
# Newton with the exact path DP behind it).
SOLVERS_1D = [
    pytest.param(project_pdhg, id="project_pdhg"),
    pytest.param(project, id="project_path"),
]


def random_admissible(grid, lam, rng, mode="isotropic"):
    """Sample the cone by projecting slope-normalized smoothed noise."""
    raw = rng.normal(size=grid.shape)
    for _ in range(2):
        raw = 0.5 * raw + 0.25 * (np.roll(raw, 1, axis=0) + np.roll(raw, -1, axis=0))
    f = HeightField(grid, raw)
    top = max(np.max(node_slope_magnitude(f, mode)), 1e-12)
    return project_pdhg(HeightField(grid, raw * (0.9 * lam / top)), lam, mode=mode).u


def truncate(z, k):
    if np.isinf(k):
        return z
    return np.clip(z, -k, k)


@pytest.mark.parametrize("solver", SOLVERS_1D)
def test_admissible_input_is_fixed_point(solver):
    g = make_grid(1, 1.0, 15)
    lam = 1.0
    u = HeightField(g, 0.5 * lam * dist_to_boundary(g))
    res = solver(u, lam)
    np.testing.assert_array_equal(res.u.values, u.values)
    np.testing.assert_array_equal(res.m.values, 0.0)
    assert res.converged


@pytest.mark.parametrize("solver", SOLVERS_1D)
def test_zero_maps_to_zero(solver):
    g = make_grid(1, 1.0, 9)
    res = solver(HeightField.zeros(g), 0.7)
    np.testing.assert_array_equal(res.u.values, 0.0)
    np.testing.assert_array_equal(res.m.values, 0.0)


def test_spike_pdhg_matches_path():
    g = make_grid(1, 1.0, 31)
    v = HeightField.zeros(g)
    v.values[15] = 2.0
    rp = project_pdhg(v, 1.0, tol=1e-8)
    rx = project(v, 1.0, tol=1e-8)
    assert rp.converged and rx.converged
    assert np.max(np.abs(rp.u.values - rx.u.values)) <= 1e-6


def test_hand_enumerated_qp():
    # 3 nodes on [0, 0.4], lam dx = 0.1, v = (0, 0.5, 0).  By symmetry the
    # projection solves min 2a^2 + (b - 0.5)^2 over a <= 0.1, b - a <= 0.1;
    # both constraints active gives (a, b) = (0.1, 0.2) with KKT
    # multipliers mu2 = 0.6, mu1 = 0.2 >= 0, so u = (0.1, 0.2, 0.1).
    g = make_grid(1, 0.4, 3)
    v = HeightField(g, np.array([0.0, 0.5, 0.0]))
    expected = np.array([0.1, 0.2, 0.1])
    for solver in (project_pdhg, project):
        res = solver(v, 1.0, tol=1e-10)
        np.testing.assert_allclose(res.u.values, expected, atol=1e-7)


def test_pin_only_case():
    # large value at the last node: only the right boundary pin is active
    # (u = (0, 0, 0.1) satisfies the interior slope bound exactly), the
    # other nodes stay at their unconstrained optimum 0
    g = make_grid(1, 0.4, 3)
    v = HeightField(g, np.array([0.0, 0.0, 0.5]))
    for solver in (project_pdhg, project):
        res = solver(v, 1.0, tol=1e-10)
        np.testing.assert_allclose(res.u.values, [0.0, 0.0, 0.1], atol=1e-6)
        assert admissible(res.u, 1.0)


def test_agreement_on_random_fields():
    rng = np.random.default_rng(42)
    for _ in range(12):
        n = int(rng.integers(8, 65))
        g = make_grid(1, 1.0, n)
        v = HeightField(g, rng.uniform(0.3, 1.5) * rng.normal(size=n))
        lam = float(rng.choice([0.5, 1.0]))
        rp = project_pdhg(v, lam, tol=1e-8)
        rx = project(v, lam, tol=1e-8)
        assert rp.converged and rx.converged
        assert np.max(np.abs(rp.u.values - rx.u.values)) <= 1e-6


@pytest.mark.parametrize("solver", SOLVERS_1D)
def test_variational_inequality_sampled(solver):
    # <v - u, xi - u> <= tol for admissible xi characterizes the projection
    rng = np.random.default_rng(3)
    g = make_grid(1, 1.0, 33)
    lam = 1.0
    v = HeightField(g, 1.5 * rng.normal(size=33))
    u = solver(v, lam, tol=1e-9).u
    for _ in range(100):
        xi = random_admissible(g, lam, rng)
        pairing = np.vdot(v.values - u.values, xi.values - u.values)
        assert pairing <= 1e-6


@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_truncated_vi_1d_and_modes(mode):
    # <v - u, T_k(u - xi)> >= -tol for every admissible xi and level k
    rng = np.random.default_rng(5)
    g = make_grid(1, 1.0, 25)
    lam = 0.8
    v = HeightField(g, 1.2 * rng.normal(size=25))
    res = project_pdhg(v, lam, tol=1e-9, mode=mode)
    for k in (0.01, 0.1, 1.0, np.inf):
        for _ in range(25):
            xi = random_admissible(g, lam, rng)
            w = truncate(res.u.values - xi.values, k)
            assert np.vdot(v.values - res.u.values, w) >= -1e-6


def test_truncated_vi_2d_componentwise():
    rng = np.random.default_rng(8)
    g = make_grid(2, (1.0, 1.0), (9, 9))
    lam = 1.0
    v = HeightField(g, 1.2 * rng.normal(size=(9, 9)))
    res = project_pdhg(v, lam, tol=1e-9, mode="componentwise")
    for k in (0.1, 1.0, np.inf):
        for _ in range(20):
            xi = random_admissible(g, lam, rng, mode="componentwise")
            w = truncate(res.u.values - xi.values, k)
            assert np.vdot(v.values - res.u.values, w) >= -1e-6


def test_untruncated_vi_2d_isotropic():
    # k = inf recovers the plain projection inequality, exact in any mode
    rng = np.random.default_rng(9)
    g = make_grid(2, (1.0, 1.0), (9, 9))
    lam = 1.0
    v = HeightField(g, 1.2 * rng.normal(size=(9, 9)))
    res = project_pdhg(v, lam, tol=1e-9)
    for _ in range(50):
        xi = random_admissible(g, lam, rng)
        assert np.vdot(v.values - res.u.values, xi.values - res.u.values) <= 1e-6


@pytest.mark.parametrize("solver", SOLVERS_1D)
def test_nonexpansive(solver):
    rng = np.random.default_rng(17)
    g = make_grid(1, 1.0, 21)
    for _ in range(5):
        a = HeightField(g, rng.normal(size=21))
        b = HeightField(g, rng.normal(size=21))
        pa = solver(a, 1.0, tol=1e-9).u
        pb = solver(b, 1.0, tol=1e-9).u
        lhs = np.linalg.norm(pa.values - pb.values)
        rhs = np.linalg.norm(a.values - b.values)
        assert lhs <= rhs + 1e-7


def test_idempotent():
    rng = np.random.default_rng(23)
    g = make_grid(1, 1.0, 31)
    v = HeightField(g, 1.3 * rng.normal(size=31))
    once = project_pdhg(v, 1.0)
    twice = project_pdhg(once.u, 1.0)
    # the output is exactly feasible, so reprojecting is a fixed point
    np.testing.assert_array_equal(once.u.values, twice.u.values)


def test_result_invariants():
    rng = np.random.default_rng(29)
    for g, mode in [
        (make_grid(1, 1.0, 40), "isotropic"),
        (make_grid(2, (1.0, 1.0), (12, 12)), "isotropic"),
        (make_grid(2, (1.0, 1.0), (12, 12)), "componentwise"),
    ]:
        lam = 0.9
        v = HeightField(g, 1.4 * rng.normal(size=g.shape))
        res = project_pdhg(v, lam, mode=mode)
        assert res.converged
        assert res.constraint_violation <= 1e-8
        assert np.all(res.m.values >= 0.0)
        assert admissible(res.u, lam, mode=mode)
        # complementarity: multiplier vanishes where the constraint is slack
        slack = node_slope_magnitude(res.u, mode) < lam - SLACK_TOL
        assert np.all(res.m.values[slack] <= M_TOL)


def test_2d_oracle_duty_tight_tolerance():
    rng = np.random.default_rng(31)
    g = make_grid(2, (1.0, 1.0), (16, 16))
    v = HeightField(g, 1.1 * rng.normal(size=(16, 16)))
    loose = project_pdhg(v, 1.0, tol=1e-6)
    tight = project_pdhg(v, 1.0, tol=1e-8)
    assert np.max(np.abs(loose.u.values - tight.u.values)) <= 1e-6


def test_non_convergence_flagged():
    g = make_grid(1, 1.0, 31)
    v = HeightField.zeros(g)
    v.values[15] = 2.0
    res = project_pdhg(v, 1.0, max_iter=3)
    assert not res.converged


def test_bad_lambda_rejected():
    g = make_grid(1, 1.0, 5)
    with pytest.raises(ValueError, match="lam"):
        project_pdhg(HeightField.zeros(g), 0.0)
    with pytest.raises(ValueError, match="lam"):
        project(HeightField.zeros(g), -1.0)


def test_resolvent_zero_drive_is_stationary():
    g = make_grid(1, 1.0, 15)
    lam = 1.0
    u = HeightField(g, 0.4 * lam * dist_to_boundary(g))
    res = resolvent_step(u, np.zeros(15), 0.1, lam)
    np.testing.assert_array_equal(res.u.values, u.values)


def test_resolvent_constant_source_is_shifted_projection():
    g = make_grid(1, 1.0, 15)
    lam = 1.0
    u = HeightField(g, 0.8 * lam * dist_to_boundary(g))
    dt, c = 0.2, 1.5
    res = resolvent_step(u, np.full(15, c), dt, lam)
    direct = project_pdhg(HeightField(g, u.values + dt * c), lam)
    np.testing.assert_allclose(res.u.values, direct.u.values, atol=1e-12)
    # effective multiplier is the projection multiplier over dt
    np.testing.assert_allclose(res.m.values, direct.m.values / dt, atol=1e-12)


def test_resolvent_growth_approaches_cone():
    # persistent narrow source: the sandpile grows toward the maximal
    # admissible profile lam * dist near the source column
    g = make_grid(1, 1.0, 31)
    lam = 1.0
    u = HeightField.zeros(g)
    gsrc = np.zeros(31)
    gsrc[15] = 6.0
    warm = None
    for _ in range(80):
        res = resolvent_step(u, gsrc, 0.1, lam, warm_dual=warm)
        assert res.converged
        u = res.u
        warm = res.dual
    cone = lam * dist_to_boundary(g)
    gap = np.abs(u.values - cone)
    assert gap[14:17].max() <= 2 * g.spacing[0] * lam


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_resolvent_step_rejects_a_bad_dt_by_name(dt):
    # NaN and inf used to pass the sign check and fail later, inside the
    # projection, as a non-finite height field (inf with a RuntimeWarning)
    g = make_grid(1, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            resolvent_step(HeightField.zeros(g), np.ones(5), dt, 1.0)


def test_multiplier_field_validation():
    g = make_grid(1, 1.0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        MultiplierField(g, np.array([0.0, -0.1, 0.0, 0.0, 0.0]))


def test_warm_start_does_not_change_limit():
    rng = np.random.default_rng(37)
    g = make_grid(1, 1.0, 41)
    v = HeightField(g, 1.5 * rng.normal(size=41))
    cold = project_pdhg(v, 1.0)
    warm = project_pdhg(v, 1.0, warm_dual=cold.dual)
    assert np.max(np.abs(cold.u.values - warm.u.values)) <= 1e-6
    assert warm.iterations <= cold.iterations


# --- project in 1D: active-set Newton with the exact path DP behind it ---


def _path_case(n, seed, kind):
    """A 1D input and its lam: white noise far outside the cone, or a
    smooth hump whose steepest slope is 0.5 to 3 times lam."""
    rng = np.random.default_rng(seed)
    g = make_grid(1, 1.0, n)
    lam = float(rng.choice([0.5, 1.0, 2.0]))
    if kind == "noise":
        vals = rng.uniform(0.05, 2.0) * rng.normal(size=n)
    else:
        x = g.coords(0)
        c, w = rng.uniform(0.3, 0.7), rng.uniform(0.15, 0.4)
        # peak slope of height * (1 - s^2)^2 is about 1.54 height / w
        height = rng.uniform(0.5, 3.0) * lam * w / 1.54
        vals = height * np.clip(1.0 - ((x - c) / w) ** 2, 0.0, None) ** 2
    return HeightField(g, vals), lam


path_cases = st.tuples(
    st.integers(3, 64), st.integers(0, 2**32 - 1), st.sampled_from(["noise", "hump"])
)


@settings(max_examples=50, deadline=None)
@given(path_cases)
def test_path_idempotent(case):
    v, lam = _path_case(*case)
    once = project(v, lam)
    twice = project(once.u, lam)
    assert twice.converged
    np.testing.assert_allclose(twice.u.values, once.u.values, rtol=0.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(path_cases, st.integers(0, 2**32 - 1))
def test_path_nonexpansive(case, seed):
    a, lam = _path_case(*case)
    b = HeightField(a.grid, a.values + np.random.default_rng(seed).normal(size=a.grid.shape))
    pa, pb = project(a, lam).u, project(b, lam).u
    assert np.linalg.norm(pa.values - pb.values) <= np.linalg.norm(a.values - b.values) + 1e-9


@settings(max_examples=50, deadline=None)
@given(path_cases)
def test_path_result_invariants(case):
    v, lam = _path_case(*case)
    res = project(v, lam)
    assert res.converged
    assert res.constraint_violation <= 1e-8
    assert admissible(res.u, lam)
    assert np.all(res.m.values >= 0.0)
    slack = node_slope_magnitude(res.u) < lam - SLACK_TOL
    assert np.all(res.m.values[slack] <= M_TOL)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.sampled_from(["noise", "hump"]))
def test_path_matches_pdhg(n, seed, kind):
    v, lam = _path_case(n, seed, kind)
    rp = project_pdhg(v, lam, tol=1e-8)
    rx = project(v, lam, tol=1e-8)
    assert rp.converged and rx.converged
    assert np.max(np.abs(rp.u.values - rx.u.values)) <= 1e-6


@settings(max_examples=50, deadline=None)
@given(path_cases, st.integers(0, 2**32 - 1))
def test_path_warm_start_does_not_change_result(case, seed):
    # warm-start from the dual of a nearby input, as the stepper does
    v, lam = _path_case(*case)
    jitter = 0.01 * np.random.default_rng(seed).normal(size=v.grid.shape)
    nearby = HeightField(v.grid, v.values + jitter)
    warm = project(v, lam, warm_dual=project(nearby, lam).dual)
    cold = project(v, lam)
    assert warm.converged and cold.converged
    np.testing.assert_allclose(warm.u.values, cold.u.values, rtol=0.0, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(path_cases)
def test_path_newton_matches_dp(case):
    v, lam = _path_case(*case)
    geom = _ConeGeometry(v.grid, "isotropic")
    u_dp, q_dp = _path_dp(geom, v.values, lam)
    certify = _certifier(geom, v.values, lam, DEFAULT_TOL)
    for start in (np.zeros((1, v.grid.counts[0] + 1)), q_dp):
        cert, _, _ = _path_newton(geom, v.values, lam, start, certify)
        if cert is not None:
            assert np.max(np.abs(cert.xf - u_dp)) <= 1e-10


# --- project_pdhg in 2D, both constraint modes ---


def _case_2d(nx, ny, seed, kind):
    """A 2D input and its lam: noise far outside the cone, or a round
    hump whose steepest slope is 0.5 to 3 times lam."""
    rng = np.random.default_rng(seed)
    g = make_grid(2, (1.0, 1.0), (nx, ny))
    lam = float(rng.choice([0.5, 1.0, 2.0]))
    if kind == "noise":
        vals = rng.uniform(0.05, 1.0) * rng.normal(size=(nx, ny))
    else:
        X, Y = g.meshgrid()
        c, w = rng.uniform(0.3, 0.7, size=2), rng.uniform(0.2, 0.4)
        height = rng.uniform(0.5, 3.0) * lam * w / 1.54
        s2 = ((X - c[0]) ** 2 + (Y - c[1]) ** 2) / w**2
        vals = height * np.clip(1.0 - s2, 0.0, None) ** 2
    return HeightField(g, vals), lam


cases_2d = st.tuples(
    st.integers(3, 10),
    st.integers(3, 10),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["noise", "hump"]),
)
modes = st.sampled_from(["isotropic", "componentwise"])


@settings(max_examples=20, deadline=None)
@given(cases_2d, modes)
def test_pdhg_2d_idempotent(case, mode):
    v, lam = _case_2d(*case)
    once = project_pdhg(v, lam, mode=mode)
    twice = project_pdhg(once.u, lam, mode=mode)
    assert once.converged and twice.converged
    # each result is within the certified tol (1e-8) of the projection
    np.testing.assert_allclose(twice.u.values, once.u.values, rtol=0.0, atol=2e-8)


@settings(max_examples=20, deadline=None)
@given(cases_2d, modes, st.integers(0, 2**32 - 1))
def test_pdhg_2d_nonexpansive(case, mode, seed):
    a, lam = _case_2d(*case)
    noise = np.random.default_rng(seed).normal(size=a.grid.shape)
    b = HeightField(a.grid, a.values + noise)
    pa, pb = project_pdhg(a, lam, mode=mode), project_pdhg(b, lam, mode=mode)
    assert pa.converged and pb.converged
    lhs = np.linalg.norm(pa.u.values - pb.u.values)
    assert lhs <= np.linalg.norm(a.values - b.values) + 2e-8


@settings(max_examples=20, deadline=None)
@given(cases_2d, modes)
def test_pdhg_2d_result_invariants(case, mode):
    v, lam = _case_2d(*case)
    res = project_pdhg(v, lam, mode=mode)
    assert res.converged
    assert res.constraint_violation <= 1e-8
    assert admissible(res.u, lam, mode=mode)
    assert np.all(res.m.values >= 0.0)
    slack = node_slope_magnitude(res.u, mode) < lam - SLACK_TOL
    assert np.all(res.m.values[slack] <= M_TOL)


@pytest.mark.parametrize(
    "mode, dropped",
    [
        # the bottom edge of the bottom-right corner node, implied by its
        # pair, and the left edge of the top-left one; ey[0, 0] repeats ex[0, 0]
        ("isotropic", [(1, (0, 0)), (0, (0, 3)), (1, (3, 0))]),
        # every corner keeps one of its two equal scalar bounds
        ("componentwise", [(1, (0, 0)), (0, (0, 3)), (1, (3, 0)), (1, (3, 4))]),
    ],
)
def test_implied_corner_constraints_carry_no_dual(mode, dropped):
    g = make_grid(2, (1.0, 1.0), (4, 4))
    geom = _ConeGeometry(g, mode)
    assert sorted(geom.implied) == sorted(dropped)
    v = HeightField(g, 3.0 * np.ones((4, 4)))  # every corner edge is steep
    res = project_pdhg(v, 1.0, mode=mode)
    assert res.converged and admissible(res.u, 1.0, mode=mode)
    for a, ix in dropped:
        assert res.dual[a][ix] == 0.0


# Inputs on which PDHG alone used to stall for the whole budget: a corner
# whose pair and boundary edge bound the same value (the first two), a
# cluster of active pairs and boundary edges that PDHG approaches only
# sublinearly (the third), and a loop of active edges through the boundary
# whose Newton block is nearly singular (the last two, with their noise
# seeds; on the last, Newton must let an active pair go before it settles).
DEGENERATE_2D = [
    pytest.param((10, 10, 5, "noise"), None, id="corner-pair"),
    pytest.param((10, 10, 9, "noise"), None, id="corner-pair-2"),
    pytest.param((9, 3, 164807732, "noise"), None, id="boundary-cluster"),
    pytest.param((7, 7, 33554431, "noise"), 5, id="boundary-loop"),
    pytest.param((4, 6, 736827945, "noise"), 5674, id="boundary-loop-2"),
]


@pytest.mark.parametrize("case, noise_seed", DEGENERATE_2D)
def test_pdhg_2d_settles_degenerate_inputs(case, noise_seed):
    v, lam = _case_2d(*case)
    if noise_seed is not None:
        noise = np.random.default_rng(noise_seed).normal(size=v.grid.shape)
        v = HeightField(v.grid, v.values + noise)
    res = project_pdhg(v, lam, mode="isotropic")
    assert res.converged and res.iterations < 5000
    assert res.constraint_violation <= 1e-8
    assert np.all(res.m.values >= 0.0)


def test_path_all_active_qp():
    # test_hand_enumerated_qp's input: all four edges are active, so D D^T
    # restricted to them is singular and Newton must hand over to the DP.
    # From v - u = D^T q, q = p - median(p) with p = (0, .01, -.02, -.01).
    g = make_grid(1, 0.4, 3)
    v = HeightField(g, np.array([0.0, 0.5, 0.0]))
    geom = _ConeGeometry(g, "isotropic")
    certify = _certifier(geom, v.values, 1.0, DEFAULT_TOL)
    cert, _, _ = _path_newton(geom, v.values, 1.0, np.zeros((1, 4)), certify)
    assert cert is None
    res = project(v, 1.0, tol=1e-10)
    assert res.converged
    np.testing.assert_allclose(res.u.values, [0.1, 0.2, 0.1], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.dual[0], [0.005, 0.015, -0.015, -0.005], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.m.values, [0.015, 0.015, 0.005], rtol=0.0, atol=1e-12)


def test_path_single_active_edge():
    # dx = 0.1, lam dx = 0.1: only the edge between nodes 1 and 2 (slope
    # -1.2) is steep; the two nodes meet halfway, so u1, u2 = 0.03, -0.07,
    # and v - u = D^T q gives q_2 = -0.001 on that edge alone.
    g = make_grid(1, 0.6, 5)
    v = HeightField(g, np.array([0.0, 0.04, -0.08, -0.02, 0.0]))
    expected = [0.0, 0.03, -0.07, -0.02, 0.0]
    geom = _ConeGeometry(g, "isotropic")
    certify = _certifier(geom, v.values, 1.0, DEFAULT_TOL)
    cert, q_newton, solves = _path_newton(geom, v.values, 1.0, np.zeros((1, 6)), certify)
    assert solves == 1
    np.testing.assert_allclose(cert.xf, expected, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q_newton, [[0, 0, -0.001, 0, 0, 0]], rtol=0.0, atol=1e-12)
    u_dp, _ = _path_dp(geom, v.values, 1.0)
    np.testing.assert_allclose(u_dp, expected, rtol=0.0, atol=1e-12)
    res = project(v, 1.0)
    assert res.converged and res.iterations == 1
    np.testing.assert_allclose(res.m.values, [0, 0.001, 0, 0, 0], rtol=0.0, atol=1e-12)


def test_path_n3_matches_active_set_enumeration():
    # Independent oracle on n = 3: the projection is the feasible point
    # nearest to v among the equality-constrained minimisers of every
    # signed active set of the four edges.
    g = make_grid(1, 0.4, 3)
    dx, lam = g.spacing[0], 1.0
    D = (np.eye(4, 3) - np.eye(4, 3, k=-1)) / dx
    rng = np.random.default_rng(41)
    for _ in range(20):
        v = rng.uniform(-0.6, 0.6, size=3)
        best = None
        for signs in itertools.product((-1.0, 0.0, 1.0), repeat=4):
            s = np.array(signs)
            A = D[s != 0.0]
            u = v.copy()
            if A.shape[0]:
                mu = np.linalg.lstsq(A @ A.T, A @ v - lam * s[s != 0.0], rcond=None)[0]
                u = v - A.T @ mu
            if np.max(np.abs(D @ u)) <= lam + 1e-9:
                if best is None or np.sum((u - v) ** 2) < np.sum((best - v) ** 2):
                    best = u
        res = project(HeightField(g, v), lam)
        assert res.converged
        np.testing.assert_allclose(res.u.values, best, rtol=0.0, atol=1e-10)


# --- project in 2D, both constraint modes, PDHG as the oracle ---

# PDHG, which project falls back to on cold white noise (a singular
# active block), stalls on a few noise inputs far outside the isotropic
# cone: its primal iterate keeps a slope excess near 1e-5 while the dual
# drifts, and it does not certify within any budget tried.  The properties
# below are therefore checked on converged results, and a result that did
# not converge must come from that stall: PDHG run alone on the same input
# fails as well.  The budget bounds the time a stalling example costs; most
# inputs certify within a few thousand iterations, and the rare one that
# needs more than the budget counts as a stall.
PDHG_BUDGET = 20_000


def _newton(v, lam, mode, warm_dual=None):
    res = project(v, lam, mode=mode, max_iter=PDHG_BUDGET, warm_dual=warm_dual)
    if not res.converged:
        alone = project_pdhg(v, lam, mode=mode, max_iter=PDHG_BUDGET, warm_dual=warm_dual)
        assert not alone.converged
        assume(False)
    return res


def _certified(res, v):
    """The L2 distance to the projection that a converged result certifies:
    its reported error, or what the rounding floor of the gap allows when
    it stopped there."""
    return max(res.primal_dual_gap, math.sqrt(2.0 * _gap_floor(v.values)))


@settings(max_examples=25, deadline=None)
@given(cases_2d, modes)
def test_newton_2d_matches_pdhg(case, mode):
    v, lam = _case_2d(*case)
    rn = _newton(v, lam, mode)
    rp = project_pdhg(v, lam, mode=mode, max_iter=PDHG_BUDGET)
    assume(rp.converged)
    assert np.max(np.abs(rn.u.values - rp.u.values)) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(cases_2d, modes)
def test_newton_2d_idempotent(case, mode):
    v, lam = _case_2d(*case)
    once = _newton(v, lam, mode)
    twice = _newton(once.u, lam, mode)
    # each result is within its certified error of the projection
    cert = _certified(once, v) + _certified(twice, once.u)
    np.testing.assert_allclose(twice.u.values, once.u.values, rtol=0.0, atol=cert)


@settings(max_examples=20, deadline=None)
@given(cases_2d, modes, st.integers(0, 2**32 - 1))
def test_newton_2d_nonexpansive(case, mode, seed):
    a, lam = _case_2d(*case)
    noise = np.random.default_rng(seed).normal(size=a.grid.shape)
    b = HeightField(a.grid, a.values + noise)
    pa, pb = _newton(a, lam, mode), _newton(b, lam, mode)
    lhs = np.linalg.norm(pa.u.values - pb.u.values)
    cert = _certified(pa, a) + _certified(pb, b)
    assert lhs <= np.linalg.norm(a.values - b.values) + cert


@settings(max_examples=20, deadline=None)
@given(cases_2d, modes)
def test_newton_2d_result_invariants(case, mode):
    v, lam = _case_2d(*case)
    res = _newton(v, lam, mode)
    assert res.constraint_violation <= 1e-8
    assert admissible(res.u, lam, mode=mode)
    assert np.all(res.m.values >= 0.0)
    slack = node_slope_magnitude(res.u, mode) < lam - SLACK_TOL
    assert np.all(res.m.values[slack] <= M_TOL)


@settings(max_examples=20, deadline=None)
@given(cases_2d, modes, st.integers(0, 2**32 - 1))
def test_newton_2d_warm_start_same_limit(case, mode, seed):
    # warm-start from the dual of a nearby input, as the stepper does
    v, lam = _case_2d(*case)
    jitter = 0.01 * np.random.default_rng(seed).normal(size=v.grid.shape)
    nearby = _newton(HeightField(v.grid, v.values + jitter), lam, mode)
    warm = _newton(v, lam, mode, warm_dual=nearby.dual)
    cold = _newton(v, lam, mode)
    # each result is within its certified error of the projection
    cert = _certified(warm, v) + _certified(cold, v)
    np.testing.assert_allclose(warm.u.values, cold.u.values, rtol=0.0, atol=cert)


@pytest.fixture
def pdhg_budgets(monkeypatch):
    """The ``max_iter`` of every call project hands over to PDHG."""
    budgets = []

    def counting(*args, **kwargs):
        budgets.append(kwargs["max_iter"])
        return project_pdhg(*args, **kwargs)

    monkeypatch.setattr(projection, "project_pdhg", counting)
    return budgets


def _hump_2d(n, height):
    g = make_grid(2, (1.0, 1.0), (n, n))
    X, Y = g.meshgrid()
    r2 = ((X - 0.45) ** 2 + (Y - 0.5) ** 2) / 0.3**2
    return HeightField(g, height * np.clip(1.0 - r2, 0.0, None) ** 2)


@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_newton_settles_on_a_hump(mode, pdhg_budgets):
    # a hump a little steeper than the cone: Newton certifies on its own
    # and lands within both certified errors of the PDHG projection
    v = _hump_2d(16, 0.23)
    res = project(v, 1.0, mode=mode)
    assert pdhg_budgets == []
    assert res.converged and 1 <= res.iterations <= NEWTON_MAX_STEPS
    oracle = project_pdhg(v, 1.0, mode=mode)
    cert = _certified(res, v) + _certified(oracle, v)
    assert np.max(np.abs(res.u.values - oracle.u.values)) <= cert


@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_newton_singular_block_falls_back_to_pdhg(mode, pdhg_budgets):
    # cold white noise: nearly every edge is active, and loops of active
    # edges carry divergence-free duals, so the first active block is
    # exactly singular; the factorization error must not escape
    g = make_grid(2, (1.0, 1.0), (8, 8))
    v = HeightField(g, np.random.default_rng(4).normal(size=(8, 8)))
    geom = _ConeGeometry(g, mode)
    u, q, solves = projection._grid_newton(
        geom, v.values, 1.0, geom.zeros(), NEWTON_MAX_STEPS, lambda u, q: False
    )
    assert u is None and q is None and solves == 0
    res = project(v, 1.0, mode=mode)
    assert pdhg_budgets == [projection.DEFAULT_MAX_ITER]
    assert res.converged
    np.testing.assert_array_equal(res.u.values, project_pdhg(v, 1.0, mode=mode).u.values)


def test_newton_step_cap_falls_back_to_pdhg(monkeypatch, pdhg_budgets):
    # the hump takes more than one solve, so a cap of one exhausts Newton;
    # PDHG takes over with the rest of the budget and still converges
    v = _hump_2d(16, 0.23)
    monkeypatch.setattr(projection, "NEWTON_MAX_STEPS", 1)
    res = project(v, 1.0, max_iter=5000)
    assert pdhg_budgets == [4999]
    assert res.converged and res.iterations > 1
    oracle = project_pdhg(v, 1.0)
    cert = _certified(res, v) + _certified(oracle, v)
    assert np.max(np.abs(res.u.values - oracle.u.values)) <= cert


def test_pdhg_budget_exhaustion_reports_the_returned_pairs_certificate():
    # PDHG checks its certificate every 16 iterations, so a budget that runs
    # out between two checks returns a pair no check has seen.  Its
    # converged flag is that pair's certificate, not the exhausted budget.
    g = make_grid(1, 1.0, 15)
    v = HeightField(g, 0.3 * np.random.default_rng(0).normal(size=15))
    full = project_pdhg(v, 1.0)
    assert full.converged
    passes = max(projection.DEFAULT_TOL, math.sqrt(2.0 * _gap_floor(v.values)))
    flagged = []
    for budget in range(full.iterations - 15, full.iterations):
        res = project_pdhg(v, 1.0, max_iter=budget)
        assert res.iterations == budget
        assert res.converged == (res.primal_dual_gap <= passes)
        if res.converged:
            flagged.append(budget)
            cert = _certified(res, v) + _certified(full, v)
            assert np.max(np.abs(res.u.values - full.u.values)) <= cert
    # the full run stops at the gap's rounding floor, which the last few
    # exhausted budgets already reach
    assert flagged
    assert not project_pdhg(v, 1.0, max_iter=3).converged


def _edge_slices(dim, a):
    """Where axis a's edges sit in its slice of the dual lattice."""
    return tuple(slice(None) if b == a else slice(1, None) for b in range(dim))


def _dense_slopes(grid):
    """D as a dense matrix, built by applying edge_slopes to unit vectors;
    its rows run over the dual lattice, axis first, each axis in C order,
    with a zero row at every structural zero."""
    shape = (grid.dim,) + tuple(m + 1 for m in grid.counts)
    rows = []
    for u in np.eye(grid.node_count).reshape((-1,) + grid.shape):
        lattice = np.zeros(shape)
        for a, e in enumerate(edge_slopes(grid, u)):
            lattice[a][_edge_slices(grid.dim, a)] = e
        rows.append(lattice.ravel())
    return np.array(rows).T


def _unband(band):
    """The full symmetric matrix whose upper band (diagonal last) is ``band``."""
    bw, n = band.shape[0] - 1, band.shape[1]
    full = np.zeros((n, n))
    for d in range(bw + 1):
        i = np.arange(n - d)
        full[i, i + d] = full[i + d, i] = band[bw - d, d:]
    return full


def _random_newton_state(grid, mode, seed, lam):
    """A dual point z whose active set mixes active and inactive pairs
    and boundary edges, with everything _newton_band takes."""
    geom = _ConeGeometry(grid, mode)
    c = 2.0 / geom.op_norm**2
    t = c * lam
    rng = np.random.default_rng(seed)
    edges = [1.2 * t * rng.normal(size=e.shape) for e in edge_slopes(grid, np.zeros(grid.shape))]
    for a, za in enumerate(edges):  # one steep edge across each wall, off the corners
        za[(1,) * a + (0,)] = 2.0 * t
        za[(1,) * a + (-1,)] = -2.0 * t
    z = geom.lattice(edges)
    mag = geom.group_norm(z)
    return geom, c, t, z, mag, mag > t


@pytest.mark.parametrize("delta", [0.0, 0.37])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
@pytest.mark.parametrize("counts", [(4, 5), (6, 6)])
def test_newton_band_matches_dense_block(counts, mode, seed, delta):
    # (M_A^-1 - I) / c + D_A D_A^T + delta I built densely, with M the
    # Jacobian of shrink: (1 - a) I + a zh zh^T on an active pair,
    # a = t / |z_g|, and 1 on an active scalar
    g = make_grid(2, (1.0, 1.3), counts)
    lam = 1.3
    geom, c, t, z, mag, active = _random_newton_state(g, mode, seed, lam)
    band, flat, zh = projection._newton_band(geom, z, mag, active, lam, t, delta)
    nx, ny = counts
    edges = geom.edges(active)
    sel = np.concatenate([m.ravel() for m in edges])
    assert 0 < sel.sum() < sel.size
    # boundary edges among the active ones, first and last of each axis
    assert edges[0][0].any() and edges[0][-1].any()
    assert edges[1][:, 0].any() and edges[1][:, -1].any()

    cells = (nx + 1) * (ny + 1)
    minv = np.zeros((2 * cells, 2 * cells))
    pairs = 0
    if mode == "isotropic":
        for i, j in itertools.product(range(nx), range(ny)):
            # node (i, j) hosts the pair of cell (i + 1, j + 1)
            ix = (i + 1) * (ny + 1) + j + 1
            iy = cells + ix
            zg = z[:, i + 1, j + 1]
            norm = np.linalg.norm(zg)
            if norm > t:
                pairs += 1
                a, zh_g = t / norm, zg / norm
                jac = (1.0 - a) * np.eye(2) + a * np.outer(zh_g, zh_g)
                minv[np.ix_([ix, iy], [ix, iy])] = np.linalg.inv(jac) - np.eye(2)
        assert 0 < pairs < nx * ny
    act = np.flatnonzero(active)
    dense = _dense_slopes(g)[act]
    want = minv[np.ix_(act, act)] / c + dense @ dense.T + delta * np.eye(act.size)

    # the numbered entries are the active ones, each once
    assert np.array_equal(np.sort(flat), act)
    np.testing.assert_array_equal(zh, z.take(flat) / mag.take(flat))
    # numbering cell by cell keeps the band within two grid lines
    assert band.shape[0] - 1 <= 2 * (ny + 1)
    number = np.argsort(flat)  # the band row of each active entry, in lattice order
    got = _unband(band)[np.ix_(number, number)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_newton_band_1d_is_path_block(seed):
    # in 1D the block is _path_newton's tridiagonal one over dx^2: 2 on the
    # diagonal (1 on the boundary edges 0 and n), -1 between adjacent edges
    g = make_grid(1, 1.0, 9)
    lam = 0.8
    geom, c, t, z, mag, active = _random_newton_state(g, "isotropic", seed, lam)
    band, flat, _ = projection._newton_band(geom, z, mag, active, lam, t)
    idx = np.flatnonzero(active)
    assert 1 < idx.size < active.size
    diag = np.where((idx == 0) | (idx == g.counts[0]), 1.0, 2.0)
    adjacent = np.diff(idx) == 1
    want = np.diag(diag) - np.diag(adjacent * 1.0, 1) - np.diag(adjacent * 1.0, -1)
    # the active edges are numbered in their order along the path
    assert np.array_equal(flat, idx)
    got = _unband(band) * g.spacing[0] ** 2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "dim, counts, offsets", [(1, (9,), [1]), (2, (5, 7), [1, 2, 3, 13, 15, 16])]
)
def test_stencil_is_dense_d_dt(dim, counts, offsets):
    # D D^T over the whole lattice, at positions
    # p = dim * ravel(cell) + (dim - 1 - axis): the diagonal, and each
    # nonzero entry above it once, at one of the offsets 1, 2, 3, 2W - 3,
    # 2W - 1, 2W (W = ny + 1) in 2D
    g = make_grid(dim, 1.0, counts)
    st = projection._stencil(g)
    assert st.offsets.tolist() == offsets
    d = _dense_slopes(g)
    dense = d @ d.T
    size = d.shape[0]
    axis, cell = np.divmod(np.arange(size), size // dim)  # rows of d: the lattice, axis first
    pos = dim * cell + (dim - 1 - axis)
    lattice = np.zeros((size, size))
    lattice[np.ix_(pos, pos)] = dense
    np.testing.assert_allclose(np.diag(lattice), st.diag, rtol=1e-14, atol=0.0)
    built = np.zeros_like(lattice)
    for k, product in enumerate(st.products):
        rows = np.flatnonzero(st.partners[:, k] < size)
        assert np.all(st.partners[rows, k] == rows + st.offsets[k])
        built[rows, rows + st.offsets[k]] += product
    np.testing.assert_allclose(built, np.triu(lattice, 1), rtol=1e-14, atol=0.0)


# The dual lattice on 1D and on a 5x7 grid whose spacings differ, so that
# the implied corner constraints depend on which spacing is smaller.
LATTICE_CASES = [
    pytest.param(1, 1.0, (9,), "isotropic", id="1d"),
    pytest.param(2, (1.0, 1.3), (5, 7), "isotropic", id="5x7-isotropic"),
    pytest.param(2, (1.0, 1.3), (5, 7), "componentwise", id="5x7-componentwise"),
]


def _random_edges(grid, rng):
    return tuple(rng.normal(size=e.shape) for e in edge_slopes(grid, np.zeros(grid.shape)))


@pytest.mark.parametrize("dim, extents, counts, mode", LATTICE_CASES)
def test_lattice_operators_are_edge_slopes_and_adjoint(dim, extents, counts, mode):
    g = make_grid(dim, extents, counts)
    geom = _ConeGeometry(g, mode)
    rng = np.random.default_rng(3)
    structural = geom.lattice(tuple(np.ones_like(e) for e in _random_edges(g, rng))) == 0.0
    assert structural.sum() == (dim - 1) * (sum(counts) + dim)
    for _ in range(3):
        u = rng.normal(size=g.shape)
        du = geom.slopes(u)
        assert du.shape == (dim,) + tuple(m + 1 for m in counts)
        for got, want in zip(geom.edges(du), edge_slopes(g, u)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.all(du[structural] == 0.0)
        edges = _random_edges(g, rng)
        q = geom.lattice(edges)
        assert geom.adjoint(q).tobytes() == edge_slopes_adjoint(g, edges).tobytes()
        np.testing.assert_allclose(np.vdot(du, q), np.vdot(u, geom.adjoint(q)), rtol=1e-12)
        # a structural entry lies on no interior node, so D^T does not see it
        noisy = q + structural * rng.normal(size=q.shape)
        assert geom.adjoint(noisy).tobytes() == geom.adjoint(q).tobytes()


@pytest.mark.parametrize("dim, extents, counts, mode", LATTICE_CASES)
def test_lattice_round_trips_warm_dual(dim, extents, counts, mode):
    g = make_grid(dim, extents, counts)
    geom = _ConeGeometry(g, mode)
    rng = np.random.default_rng(5)
    edges = _random_edges(g, rng)
    q = geom.lattice(edges)
    back = geom.edges(q)
    assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(back, edges))
    assert np.array_equal(geom.lattice(back), q)
    # a projection result hands out its dual and slopes as per-axis tuples,
    # and its dual goes back into the lattice unchanged
    v = HeightField(g, 3.0 * rng.normal(size=g.shape))
    res = project_pdhg(v, 1.0, mode=mode)
    assert [d.shape for d in res.dual] == [e.shape for e in edges]
    assert [s.shape for s in res.slopes] == [e.shape for e in edges]
    back = geom.edges(geom.lattice(res.dual))
    assert all(np.array_equal(a, b) for a, b in zip(back, res.dual))


def _per_constraint(grid, mode, edges):
    """Per-axis arrays shaped like edges: at every entry, the magnitude of
    the constraint the entry belongs to, from the definitions: in 2D
    isotropic mode node (i, j) pairs ex[i + 1, j] with ey[i, j + 1], and
    the first edge of each axis stays scalar."""
    out = [np.abs(e) for e in edges]
    if mode == "isotropic" and grid.dim == 2:
        ex, ey = edges
        pair = np.sqrt(ex[1:, :] ** 2 + ey[:, 1:] ** 2)
        out[0][1:, :] = pair
        out[1][:, 1:] = pair
    return out


def _hosted(e, a):
    """The entries of axis a's edges that interior nodes host."""
    return e[(slice(None),) * a + (slice(1, None),)]


@pytest.mark.parametrize("dim, extents, counts, mode", LATTICE_CASES)
def test_lattice_norms_match_per_constraint_definitions(dim, extents, counts, mode):
    g = make_grid(dim, extents, counts)
    geom = _ConeGeometry(g, mode)
    assert geom.implied or dim == 1  # the corners are covered in 2D
    lam, t = 0.7, 0.9
    isotropic_2d = mode == "isotropic" and dim == 2
    rng = np.random.default_rng(7)
    for _ in range(3):
        edges = _random_edges(g, rng)
        q = geom.lattice(edges)
        mag = _per_constraint(g, mode, edges)
        # max_norm and dual_l1 count every constraint once, implied ones too
        assert geom.max_norm(q) == max(m.max() for m in mag)
        if isotropic_2d:  # each pair once, and the first edge of each axis
            want_l1 = mag[0][1:, :].sum() + mag[0][0].sum() + mag[1][:, 0].sum()
        else:
            want_l1 = sum(m.sum() for m in mag)
        np.testing.assert_allclose(geom.dual_l1(q), want_l1, rtol=1e-13)
        # the multiplier reads the constraint each node hosts
        hosted = [_hosted(m, a) for a, m in enumerate(mag)]
        want_m = (hosted[0] if isotropic_2d else sum(hosted)) / lam
        np.testing.assert_allclose(geom.multiplier(q, lam), want_m, rtol=1e-15, atol=0.0)
        # group_norm and shrink zero the implied corners
        for a, ix in geom.implied:
            mag[a][ix] = 0.0
        for got, want in zip(geom.edges(geom.group_norm(q)), mag):
            np.testing.assert_array_equal(got, want)
        shrunk = geom.shrink(q, t)
        for got, e, m in zip(geom.edges(shrunk), edges, mag):
            want = np.where(m > t, e * (1.0 - t / np.maximum(m, t)), 0.0)
            np.testing.assert_array_equal(got, want)
        # and both keep every structural zero at zero
        assert np.array_equal(geom.lattice(geom.edges(shrunk)), shrunk)
        norms = geom.group_norm(q)
        assert np.array_equal(geom.lattice(geom.edges(norms)), norms)


def test_banded_solve_cholesky_and_pivoted_fallback():
    # [[2, -1, 0], [-1, 2, -1], [0, -1, 2]] is positive definite;
    # [[1, 2], [2, 1]] is not, and only the pivoted solve accepts it
    spd = np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0]])
    rhs = np.array([1.0, 0.0, 1.0])
    np.testing.assert_allclose(projection._banded_solve(spd, rhs), [1.0, 1.0, 1.0], rtol=1e-14)
    indefinite = np.array([[0.0, 2.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        projection._banded_solve(indefinite, np.array([3.0, 3.0]))
    got = projection._banded_solve(indefinite, np.array([3.0, 3.0]), pivot=True)
    np.testing.assert_allclose(got, [1.0, 1.0], rtol=1e-14)
    np.testing.assert_array_equal(projection._banded_solve(np.array([[4.0]]), np.array([2.0])), [0.5])
    with pytest.raises(np.linalg.LinAlgError):
        projection._banded_solve(np.array([[0.0]]), np.array([2.0]))
    # a 1x1 system keeps the pivoted contract: only an exactly singular
    # pivot raises
    with pytest.raises(np.linalg.LinAlgError):
        projection._banded_solve(np.array([[-2.0]]), np.array([2.0]))
    got = projection._banded_solve(np.array([[-2.0]]), np.array([2.0]), pivot=True)
    np.testing.assert_array_equal(got, [-1.0])
    with pytest.raises(np.linalg.LinAlgError):
        projection._banded_solve(np.array([[0.0]]), np.array([2.0]), pivot=True)
    # LAPACK called directly returns solveh_banded's results bit for bit, on
    # tridiagonal bands (its ?ptsv route) and wider ones (?pbsv); the
    # diagonal outweighs each row's off-diagonal entries, so every band is
    # positive definite
    rng = np.random.default_rng(11)
    for rows in (2, 4):
        for n in (2, 5, 30):
            band = rng.uniform(-1.0, 1.0, (rows, n))
            band[-1] = 2.0 * rows + rng.uniform(0.0, 1.0, n)
            rhs = rng.normal(size=n)
            got = projection._banded_solve(band, rhs)
            assert got.tobytes() == solveh_banded(band, rhs).tobytes()
    # [[1, 0, 3], [0, 1, 0], [3, 0, 1]] (eigenvalues 4, 1, -2) in a band of
    # three rows: Cholesky fails, pivoted LU solves it
    indefinite = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        projection._banded_solve(indefinite, np.array([4.0, 1.0, 4.0]))
    got = projection._banded_solve(indefinite, np.array([4.0, 1.0, 4.0]), pivot=True)
    np.testing.assert_allclose(got, [1.0, 1.0, 1.0], rtol=1e-14)


@pytest.mark.parametrize("mode", ["isotropic", "componentwise"])
def test_newton_loop_certificate_matches_a_fresh_one(mode, monkeypatch):
    # The Newton loop hands certify the edge slopes of u and D^T q that it
    # has computed already; at every solve the certificate built from them
    # must equal the one certify computes on its own, bit for bit.
    checked = []
    make = projection._certifier

    def checking(*args):
        certify = make(*args)

        def shared(x, q, dx=None, aq=None):
            cert = certify(x, q, dx, aq)
            fresh = certify(x, q)
            assert dx is not None and aq is not None
            assert cert.xf.tobytes() == fresh.xf.tobytes()
            got = (cert.viol, cert.gap, cert.err, cert.ok)
            assert got == (fresh.viol, fresh.gap, fresh.err, fresh.ok)
            checked.append(cert.ok)
            return cert

        return shared

    monkeypatch.setattr(projection, "_certifier", checking)
    v = _hump_2d(24, 0.23)  # 2 to 5 solves cold, and warm from there
    cold = project(v, 1.0, mode=mode)
    assert cold.converged and checked == [False] * (cold.iterations - 1) + [True]
    assert cold.iterations >= 2
    nearby = HeightField(v.grid, 1.05 * v.values)
    checked.clear()
    warm = project(nearby, 1.0, mode=mode, warm_dual=cold.dual)
    assert warm.converged and len(checked) == warm.iterations >= 2


@pytest.mark.parametrize("tol", [math.inf, -1e-9, math.nan])
@pytest.mark.parametrize("solver", [project, project_pdhg])
def test_projection_rejects_a_tolerance_that_certifies_nothing(solver, tol):
    # an infinite tolerance would pass every certificate whose slope
    # violation is small, whatever its error
    v = _hump_2d(8, 0.3)
    with pytest.raises(ValueError, match="tol"):
        solver(v, 1.0, tol=tol)

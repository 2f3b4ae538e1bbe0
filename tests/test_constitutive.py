import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from barchan.constitutive import (
    GammaProfile,
    HProfile,
    gamma_eval,
    gamma_sup_on,
    h_eval,
    h_sup,
    lipschitz_bound,
)


def h_quadrature(eps: float, r: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, err = quad(lambda z: math.exp(-z * z), -1.0 / eps, -r / math.sqrt(eps))
    assert err < 1e-8
    return 1.0 - val / math.sqrt(math.pi)


def test_smooth_ramp_values():
    p = HProfile.smooth_ramp()
    assert h_eval(p, 0.0) == 0.0
    assert h_eval(p, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_smooth_ramp_vanishes_on_lee_side():
    p = HProfile.smooth_ramp()
    r = np.linspace(-10.0, 0.0, 101)
    np.testing.assert_array_equal(h_eval(p, r), 0.0)


def test_smooth_ramp_saturates_on_slopes_whose_square_overflows():
    # r * r overflows above about 1.3e154, which gave 0 and, at inf, NaN
    p = HProfile.smooth_ramp()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = h_eval(p, np.array([1e150, 1e200, np.inf, -1e200]))
        assert h_eval(p, math.inf) == 1.0
    np.testing.assert_array_equal(got, [1.0, 1.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "eps,r",
    [(0.01, 3.0), (0.01, -3.0), (0.1, 0.5), (0.25, -0.2), (0.25, 1), (0.5, np.array(-0.4))],
)
def test_erf_smoothed_matches_quadrature(eps, r):
    # a Python int and a 0-d array are scalars too: they give a float
    p = HProfile.erf_smoothed(eps)
    assert type(h_eval(p, r)) is float
    assert h_eval(p, r) == pytest.approx(h_quadrature(eps, float(r)), abs=1e-6)


def test_erf_smoothed_asymptotes():
    p = HProfile.erf_smoothed(0.01)
    assert h_eval(p, 3.0) == pytest.approx(1.0, abs=1e-6)
    assert h_eval(p, -3.0) == pytest.approx(0.0, abs=1e-6)


def erf_formula(eps: float, r, erf_fn) -> np.ndarray:
    """The written expression of ``erf_smoothed``, clipped as ``h_eval`` clips."""
    p = HProfile.erf_smoothed(eps)
    return (1.0 - 0.5 * (erf_fn(-r / math.sqrt(eps)) - erf_fn(-1.0 / eps))).clip(0.0, h_sup(p))


def math_erf(x):
    """``math.erf`` one element at a time, on a scalar or an array."""
    return np.vectorize(math.erf, otypes=[float])(x)


def erf_draws() -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.concatenate([rng.normal(scale=s, size=3000) for s in (0.1, 1.0, 10.0)])


@pytest.mark.parametrize("eps", [0.01, 0.25, 0.9])
def test_erf_smoothed_in_place_is_bitwise_the_formula(eps):
    # h_eval works in place; it must give the written expression's bits
    p = HProfile.erf_smoothed(eps)
    r = erf_draws()
    want = erf_formula(eps, r, math_erf)
    np.testing.assert_array_equal(h_eval(p, r), want)
    np.testing.assert_array_equal(h_eval(p, r.reshape(90, 100)), want.reshape(90, 100))
    assert [h_eval(p, float(x)) for x in r[:20]] == want[:20].tolist()
    # a list, and the empty shapes the flat evaluation must rebuild
    assert h_eval(p, r[:20].tolist()).tolist() == want[:20].tolist()
    for empty in (r[:0], r[:0].reshape(0, 3)):
        assert h_eval(p, empty).shape == empty.shape
    # NaN stays NaN; the infinities give the clipped limits
    specials = [math.nan, math.inf, -math.inf]
    ends = h_eval(p, specials)
    np.testing.assert_array_equal(ends, erf_formula(eps, np.array(specials), math_erf))
    assert math.isnan(ends[0]) and ends[1] == h_sup(p)
    assert ends[2] == pytest.approx(0.5 * math.erfc(1.0 / eps), abs=np.spacing(1.0))


@pytest.mark.parametrize("eps", [0.01, 0.25, 0.9])
def test_erf_smoothed_within_ulps_of_scipy_erf(eps):
    # math.erf and scipy's erf differ by at most one ulp
    r = erf_draws()
    want = erf_formula(eps, r, erf)
    got = h_eval(HProfile.erf_smoothed(eps), r)
    np.testing.assert_allclose(got, want, rtol=0, atol=2 * np.spacing(1.0))


@pytest.mark.parametrize("eps", [0.01, 0.25])
def test_erf_smoothed_monotone_and_bounded(eps):
    p = HProfile.erf_smoothed(eps)
    r = np.linspace(-20.0, 20.0, 2001)
    vals = h_eval(p, r)
    assert np.all(np.diff(vals) >= -1e-14)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0 + 1e-8)


@pytest.mark.parametrize(
    "profile",
    [
        HProfile.smooth_ramp(),
        HProfile.erf_smoothed(0.01),
        HProfile.erf_smoothed(0.3),
        HProfile.constant(2.0),
        HProfile.zero(),
    ],
)
def test_h_lipschitz_bound_holds_on_samples(profile):
    rng = np.random.default_rng(7)
    a = rng.uniform(-5.0, 5.0, size=10_000)
    b = rng.uniform(-5.0, 5.0, size=10_000)
    bound = lipschitz_bound(profile)
    lhs = np.abs(h_eval(profile, a) - h_eval(profile, b))
    assert np.all(lhs <= bound * np.abs(a - b) + 1e-12)


def test_smooth_ramp_lipschitz_is_tight():
    # empirical slopes approach 1 from below as r -> 0+
    p = HProfile.smooth_ramp()
    r = np.linspace(0.0, 0.01, 1000)
    slopes = np.diff(h_eval(p, r)) / np.diff(r)
    assert np.max(slopes) <= 1.0 + 1e-12
    assert np.max(slopes) >= 0.999


def test_lipschitz_bound_values():
    assert lipschitz_bound(HProfile.constant(3.0)) == 0.0
    assert lipschitz_bound(HProfile.zero()) == 0.0
    assert lipschitz_bound(HProfile.smooth_ramp()) == 1.0
    assert lipschitz_bound(GammaProfile.identity()) == 1.0
    assert lipschitz_bound(GammaProfile.scaled_identity(2.5)) == 2.5


def test_h_nonnegative_everywhere():
    r = np.linspace(-50.0, 50.0, 501)
    for p in (HProfile.smooth_ramp(), HProfile.erf_smoothed(0.05), HProfile.constant(1.0)):
        assert np.all(h_eval(p, r) >= 0.0)


def test_h_sup():
    assert h_sup(HProfile.zero()) == 0.0
    assert h_sup(HProfile.constant(0.7)) == 0.7
    assert h_sup(HProfile.smooth_ramp()) == 1.0
    eps = 0.25
    assert h_sup(HProfile.erf_smoothed(eps)) == pytest.approx(
        1.0 + 0.5 * math.erfc(1.0 / eps)
    )


def test_gamma_identity():
    p = GammaProfile.identity()
    assert gamma_eval(p, 0.0) == 0.0
    assert gamma_eval(p, 0.37) == pytest.approx(0.37)


def test_gamma_saturating_hand_formula():
    # gamma(u) = a u / (1 + u / b); at a=1, b=2, u=2 this is 2 / 2 = 1
    p = GammaProfile.saturating(1.0, 2.0)
    assert gamma_eval(p, 2.0) == pytest.approx(1.0)
    assert gamma_eval(p, 0.5) == pytest.approx(0.5 / 1.25)


@pytest.mark.parametrize(
    "profile",
    [
        GammaProfile.identity(),
        GammaProfile.scaled_identity(1.7),
        GammaProfile.saturating(2.0, 0.5),
        GammaProfile.zero(),
    ],
)
def test_gamma_zero_at_zero_and_negative(profile):
    assert gamma_eval(profile, 0.0) == 0.0
    assert gamma_eval(profile, -1.3) == 0.0
    u = np.linspace(-2.0, 3.0, 101)
    assert np.all(gamma_eval(profile, u) >= 0.0)


@pytest.mark.parametrize(
    "profile",
    [
        GammaProfile.identity(),
        GammaProfile.scaled_identity(0.3),
        GammaProfile.saturating(1.5, 2.0),
    ],
)
def test_gamma_lipschitz_on_samples(profile):
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.0, 4.0, size=10_000)
    b = rng.uniform(-1.0, 4.0, size=10_000)
    bound = lipschitz_bound(profile)
    lhs = np.abs(gamma_eval(profile, a) - gamma_eval(profile, b))
    assert np.all(lhs <= bound * np.abs(a - b) + 1e-12)


def test_gamma_sup_on():
    assert gamma_sup_on(GammaProfile.identity(), 2.0) == 2.0
    assert gamma_sup_on(GammaProfile.saturating(1.0, 2.0), 2.0) == pytest.approx(1.0)
    assert gamma_sup_on(GammaProfile.zero(), 5.0) == 0.0


def test_profile_validation():
    with pytest.raises(ValueError):
        HProfile.erf_smoothed(1.5)
    with pytest.raises(ValueError):
        HProfile.constant(-1.0)
    with pytest.raises(ValueError):
        GammaProfile.saturating(1.0, 0.0)
    # the zero profiles are members of other kinds, and "zero" is no kind
    assert HProfile.zero() == HProfile.constant(0.0)
    assert GammaProfile.zero() == GammaProfile.scaled_identity(0.0)
    for bad in ("steps", "zero"):
        with pytest.raises(ValueError, match=f"unknown H profile '{bad}'"):
            HProfile(bad)
    with pytest.raises(ValueError, match="unknown gamma profile 'zero'"):
        GammaProfile("zero")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="value"):
            HProfile.constant(bad)
    with pytest.raises(ValueError, match="a="):
        GammaProfile.scaled_identity(math.nan)
    with pytest.raises(ValueError, match="a="):
        GammaProfile.saturating(math.nan, 1.0)
    with pytest.raises(ValueError, match="b="):
        GammaProfile.saturating(1.0, math.nan)

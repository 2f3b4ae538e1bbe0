"""Wind-response and flux-height coupling profiles.

The transport flux is ``gamma(u) * H(nonlocal slope)``.  Profiles are
closed enumerations rather than user callbacks so that their Lipschitz
constants and suprema are known analytically; the time-step bound and the
stability envelope both consume those constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

H_KINDS = ("erf_smoothed", "smooth_ramp", "constant", "zero")
GAMMA_KINDS = ("identity", "scaled_identity", "saturating", "zero")


@dataclass(frozen=True)
class HProfile:
    """Nonnegative Lipschitz wind-response function of the nonlocal slope.

    ``smooth_ramp`` is ``r+ / sqrt(1 + r^2)``: zero on the lee side and
    saturating toward 1 on steep windward slopes.  ``erf_smoothed`` is the
    shifted-erf step

        ``H(r) = 1 - (1/sqrt(pi)) * integral_{-1/eps}^{-r/sqrt(eps)} exp(-z^2) dz``

    evaluated with the finite lower limit kept exactly as written, so the
    limits are ``erfc(1/eps)/2`` at ``-inf`` and ``1 + erfc(1/eps)/2`` at
    ``+inf`` rather than exactly 0 and 1; the Gaussian tail is negligible
    for small ``eps`` but not removed.
    """

    kind: str
    eps: float = 0.0
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in H_KINDS:
            raise ValueError(f"unknown H profile {self.kind!r}")
        if self.kind == "erf_smoothed" and not (0.0 < self.eps < 1.0):
            raise ValueError(f"erf_smoothed needs eps in (0, 1), got {self.eps}")
        if self.kind == "constant" and not (0.0 <= self.value < math.inf):
            raise ValueError(f"constant H value must be finite and nonnegative, got {self.value}")

    @classmethod
    def erf_smoothed(cls, eps: float) -> "HProfile":
        return cls("erf_smoothed", eps=eps)

    @classmethod
    def smooth_ramp(cls) -> "HProfile":
        return cls("smooth_ramp")

    @classmethod
    def constant(cls, value: float) -> "HProfile":
        return cls("constant", value=value)

    @classmethod
    def zero(cls) -> "HProfile":
        return cls("zero")


@dataclass(frozen=True)
class GammaProfile:
    """Nonnegative Lipschitz coupling of flux to height, with gamma(0) = 0.

    Negative heights (possible transiently from discretization error)
    evaluate as gamma(0) = 0, which keeps the extension Lipschitz and the
    flux nonnegative.
    """

    kind: str
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in GAMMA_KINDS:
            raise ValueError(f"unknown gamma profile {self.kind!r}")
        if self.kind in ("scaled_identity", "saturating") and not (0.0 <= self.a < math.inf):
            raise ValueError(f"{self.kind} needs a finite a >= 0, got a={self.a}")
        if self.kind == "saturating" and not (0.0 < self.b < math.inf):
            raise ValueError(f"saturating needs a finite b > 0, got b={self.b}")

    @classmethod
    def identity(cls) -> "GammaProfile":
        return cls("identity")

    @classmethod
    def scaled_identity(cls, a: float) -> "GammaProfile":
        return cls("scaled_identity", a=a)

    @classmethod
    def saturating(cls, a: float, b: float) -> "GammaProfile":
        return cls("saturating", a=a, b=b)

    @classmethod
    def zero(cls) -> "GammaProfile":
        return cls("zero")


def h_eval(profile: HProfile, r):
    """Evaluate H pointwise; accepts scalars or arrays.

    Values are clamped to ``[0, h_sup(profile)]`` to guard rounding.
    """
    arr = np.asarray(r, dtype=float)
    if profile.kind == "zero":
        out = np.zeros_like(arr)
    elif profile.kind == "constant":
        out = np.full_like(arr, profile.value)
    elif profile.kind == "smooth_ramp":
        out = np.maximum(arr, 0.0) / np.sqrt(1.0 + arr * arr)
    else:
        eps = profile.eps
        out = 1.0 - 0.5 * (erf(-arr / math.sqrt(eps)) - erf(-1.0 / eps))
    out = out.clip(0.0, h_sup(profile))  # np.clip's own method, without its wrapper
    return float(out) if np.ndim(r) == 0 else out


def gamma_eval(profile: GammaProfile, u):
    """Evaluate gamma pointwise; negative heights map to gamma(0) = 0."""
    up = np.maximum(np.asarray(u, dtype=float), 0.0)
    if profile.kind == "zero":
        out = np.zeros_like(up)
    elif profile.kind == "identity":
        out = up
    elif profile.kind == "scaled_identity":
        out = profile.a * up
    else:
        out = profile.a * up / (1.0 + up / profile.b)
    return float(out) if np.ndim(u) == 0 else out


def lipschitz_bound(profile: HProfile | GammaProfile) -> float:
    """Analytic upper bound on the profile's Lipschitz constant.

    smooth_ramp: the derivative is ``(1 + r^2)^(-3/2)`` for r > 0, maximal
    at r = 0+ with value 1.  erf_smoothed: the derivative is
    ``exp(-r^2/eps) / sqrt(pi * eps)``, maximal at r = 0.
    """
    if isinstance(profile, HProfile):
        if profile.kind in ("zero", "constant"):
            return 0.0
        if profile.kind == "smooth_ramp":
            return 1.0
        return 1.0 / math.sqrt(math.pi * profile.eps)
    if profile.kind == "zero":
        return 0.0
    if profile.kind == "identity":
        return 1.0
    return profile.a


def h_sup(profile: HProfile) -> float:
    """Supremum of H over the real line."""
    if profile.kind == "zero":
        return 0.0
    if profile.kind == "constant":
        return profile.value
    if profile.kind == "smooth_ramp":
        return 1.0
    return 1.0 + 0.5 * math.erfc(1.0 / profile.eps)


def gamma_sup_on(profile: GammaProfile, hi: float) -> float:
    """Supremum of gamma over [0, hi]; all profiles are nondecreasing."""
    return gamma_eval(profile, max(hi, 0.0))

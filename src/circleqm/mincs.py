"""Minimal-uncertainty coherent states on the circle.

The family psi_{alpha, l}(phi) = exp(i[l (phi - alpha) + sigma sin(phi -
alpha)]) / sqrt(I0(2s)), sigma = gamma - i s, saturates the variance
inequality for the pair (cos phi, L) at alpha = 0 and for (sin phi, L) at
alpha = pi/2.  Fourier coefficients are Bessel J of the complex squeeze
parameter sigma; all first and second moments have closed forms in the
ratios I1/I0.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from circleqm.circlespace import (CircleState, Sector, _fold, _require_index,
                                  _require_width, _rotation, _same_sector)
from circleqm.specfun import (_bessel_half_width, _bessel_window, _special,
                               bessel_j, g_ratio)

__all__ = [
    "MinUncParams",
    "MinExpectations",
    "OverlapResult",
    "min_state",
    "min_expectations",
    "saturation_gap",
    "min_overlap",
    "sum_rule_residual",
    "completeness_residual",
    "dbt_divergence",
]


@dataclass(frozen=True)
class MinUncParams:
    """Labels (alpha, l, gamma, s) of a minimal-uncertainty state.

    alpha is the classical angle (reduced mod 2 pi), l the mean angular
    momentum decomposed as n0 + delta0 with delta0 = frac(l) in [0, 1),
    and sigma = gamma - i s the complex squeeze parameter.
    """

    alpha: float
    l_tilde: float
    gamma: float
    s: float

    def __init__(self, alpha: float, l_tilde: float, gamma: float, s: float):
        d = self.__dict__
        for name, v in (("alpha", alpha), ("l_tilde", l_tilde),
                        ("gamma", gamma), ("s", s)):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            d[name] = _fold(v, 2.0 * math.pi) if name == "alpha" else v

    @property
    def sigma(self) -> complex:
        return complex(self.gamma, -self.s)

    @property
    def delta0(self) -> float:
        return _fold(self.l_tilde)

    @property
    def n0(self) -> int:
        return int(round(self.l_tilde - self.delta0))

    @property
    def sector(self) -> Sector:
        return Sector(self.delta0)


def _normalized_window(sigma: complex, half: int) -> np.ndarray:
    """J_k(sigma) / sqrt(I0(2s)), s = -Im sigma, for the orders k =
    -half..half (one `bessel_j` call, see `_bessel_window`); a window past
    the size budget (`_require_width`) raises ValueError first."""
    _require_width(2 * half + 1, "sigma")
    return _bessel_window(sigma, half) * _inv_sqrt_i0(sigma)


def _inv_sqrt_i0(sigma: complex) -> float:
    """1 / sqrt(I0(2s)), s = -Im sigma, the normalization of a window of
    J_k(sigma).

    Both J_k(sigma) and sqrt(I0(2s)) = exp(|s|) sqrt(ive(0, 2|s|)) grow like
    exp(|s|); the factor is formed as exp(-|s|) / sqrt(ive(0, 2|s|)) so
    neither exponential is formed on its own.  bessel_j raises ValueError
    once J itself overflows, past |s| of about 709.
    """
    s = abs(sigma.imag)
    return math.exp(-s) / math.sqrt(_special().ive(0, 2.0 * s))


def min_state(params: MinUncParams, window_tol: float = 1e-12) -> CircleState:
    """Coefficient window of the minimal-uncertainty state.

    c_m = exp(-i (m + delta) alpha) J_{m-n0}(sigma) / sqrt(I0(2s)) for
    |m - n0| <= h, h = `_bessel_half_width(sigma, window_tol^2)`.  That
    rule bounds |J_k(sigma)| by the smaller of the DLMF 10.14.4 bound
    |sigma/2|^|k| e^|s| / |k|! and I_|k|(|sigma|); with the sum rule
    sum_k |J_k(sigma)|^2 = I0(2s), the discarded sum_{|m-n0|>h} |c_m|^2 is
    at most window_tol^2 (so at most window_tol): the dropped part of the
    state has norm at most window_tol, which bounds what it can add to an
    inner product or a moment taken on the window.  h is the smallest order
    for which a bounded tail meets that (13 at sigma = 0.5 - i and 55 at
    sigma = 20 - 30i for window_tol = 1e-14).  At large |s| the I_k bound
    keeps the window near the state's own width, about sqrt(|sigma|) times
    a log factor: 146 orders a side at sigma = -400i for window_tol = 1e-12,
    where the DLMF bound alone needs 569.  The phases are
    `circlespace._rotation`'s: a common phase at n0 times those of the
    offsets -h..h, so that the phase between neighbours keeps its accuracy
    at large |l|.
    """
    if not 0.0 < window_tol < 1.0:
        raise ValueError("window_tol must lie in (0, 1)")
    half = _bessel_half_width(params.sigma, window_tol * window_tol)
    n_lo = params.n0 - half
    coeffs = (_normalized_window(params.sigma, half)
              * _rotation(n_lo, 2 * half + 1, params.delta0, params.alpha))
    return CircleState(params.sector, n_lo, coeffs)


@dataclass(frozen=True)
class MinExpectations:
    """Closed-form first and second moments of C, S and L.

    Every entry is a function of alpha, l, |sigma|^2 and the ratios
    r1 = I1(2s)/I0(2s), r2 = I1(2s)/(2s I0(2s)); var_c + var_s =
    1 - r1^2 independently of alpha, and var_l / var_c = |sigma|^2 at
    alpha = 0.
    """

    mean_c: float
    mean_s: float
    mean_l: float
    mean_c2: float
    mean_s2: float
    mean_l2: float
    var_c: float
    var_s: float
    var_l: float
    cov_cl: float
    cov_sl: float
    cov_cs: float


def min_expectations(params: MinUncParams) -> MinExpectations:
    """Evaluate the full closed-form moment record (the single source of
    these formulas; negative s rides on the parity of I0, I1)."""
    alpha = params.alpha
    ratios = g_ratio(2.0 * params.s)
    r1, r2 = ratios.r1, ratios.r2
    sig2 = params.gamma ** 2 + params.s ** 2
    ca, sa = math.cos(alpha), math.sin(alpha)
    c2a = math.cos(2.0 * alpha)
    return MinExpectations(
        mean_c=-sa * r1,
        mean_s=ca * r1,
        mean_l=params.l_tilde,
        mean_c2=c2a * r2 + sa * sa,
        mean_s2=-c2a * r2 + ca * ca,
        mean_l2=params.l_tilde ** 2 + sig2 * r2,
        var_c=c2a * r2 + sa * sa * (1.0 - r1 * r1),
        var_s=-c2a * r2 + ca * ca * (1.0 - r1 * r1),
        var_l=sig2 * r2,
        cov_cl=params.gamma * ca * r2,
        cov_sl=params.gamma * sa * r2,
        # bracket 2 r2 + r1^2 - 1: confirmed by the quadrature oracle and by
        # both limits (uniform density at s=0, concentrated at s=inf)
        cov_cs=0.5 * math.sin(2.0 * alpha) * (2.0 * r2 + r1 * r1 - 1.0),
    )


def saturation_gap(params: MinUncParams, pair: str = "CL"):
    """(lhs, rhs) of the variance inequality from the closed forms.

    pair "CL": lhs = var_c var_l, rhs = cov_cl^2 + <S>^2/4 (the commutator
    [C, L] = -i S); pair "SL": lhs = var_s var_l, rhs = cov_sl^2 + <C>^2/4.
    The gap vanishes identically at alpha = 0 ("CL") and alpha = pi/2
    ("SL") and is strictly positive in between.
    """
    e = min_expectations(params)
    if pair == "CL":
        return e.var_c * e.var_l, e.cov_cl ** 2 + 0.25 * e.mean_s ** 2
    if pair == "SL":
        return e.var_s * e.var_l, e.cov_sl ** 2 + 0.25 * e.mean_c ** 2
    raise ValueError("pair must be 'CL' or 'SL'")


@dataclass(frozen=True)
class OverlapResult:
    """Closed-form overlap value plus a validity flag.

    valid means the value is the exact scalar product, and it is True for
    every value `min_overlap` returns: states of distinct sectors raise
    instead.  A negative square-root argument s^2 cos^2 - gamma^2 sin^2 is
    valid: the branch-free form is entire in it.
    """

    value: complex
    valid: bool


def min_overlap(p2: MinUncParams, p1: MinUncParams) -> OverlapResult:
    """Closed-form scalar product (psi_{p2}, psi_{p1}).

    With dl = l1 - l2, num = gamma sin h - s cos h, den = gamma sin h +
    s cos h (h = (alpha1 - alpha2)/2) and r = sqrt(-num den), the product
    is phase * (num/den)^(dl/2) I_dl(2 r) / I0(2s).  It is evaluated in the
    branch-free form (-i num)^dl I_dl(2r) / r^dl (num -> den for dl < 0),
    an entire function of num and den, so no square root or fractional
    power picks a branch.  Where the power (-i num)^dl leaves double range,
    or r^dl or I_dl(2r) the normal doubles, as at large |dl| and at r = 0
    (where I_dl(2r) / r^dl is 1/dl!), the product is summed in logs
    (`_log_product`): it is then finite, with no warning, and reads 0
    where it underflows.

    Requires shared (gamma, s) and shared sector (the rule of
    `circlespace.Sector` on delta0); dl is then rounded to an exact
    integer.  Different sectors raise `ValueError`: there is no scalar
    product between the spaces.
    """
    if (p2.gamma, p2.s) != (p1.gamma, p1.s):
        raise ValueError("overlap requires shared gamma and s")
    gamma, s = p1.gamma, p1.s
    if not _same_sector(p1.delta0, p2.delta0):
        raise ValueError(
            "states with different delta live in different Hilbert spaces")
    dl = float(round(p1.l_tilde - p2.l_tilde))
    half = 0.5 * (p1.alpha - p2.alpha)
    sh, ch = math.sin(half), math.cos(half)
    num = gamma * sh - s * ch
    den = gamma * sh + s * ch
    root_arg = s * s * ch * ch - gamma * gamma * sh * sh  # = -num den
    phase = np.exp(1j * (p2.alpha - p1.alpha) * (p1.l_tilde + p2.l_tilde) / 2.0)

    order = abs(dl)
    base = -1j * (num if dl >= 0 else den)
    r = cmath.sqrt(root_arg)
    # I_n(2r) / I0(2|s|) through the scaled ive: Re r <= |s|, so the
    # exponential never exceeds 1
    ive = _special().ive
    ratio = math.exp(2.0 * r.real - 2.0 * abs(s)) / ive(0, 2.0 * abs(s))
    scaled = ive(order, 2.0 * r)
    try:
        # I_n(2r) / r^n -> 1/n! at r = 0, where ive(n, 0) = 0 takes logs
        bess = _in_range(scaled) * ratio / _in_range(r ** order)
        value = phase * _in_range(base ** order, 0.0) * bess
    except (OverflowError, ValueError):
        # a power past range, or r^n or I_n(2r) outside the normal doubles:
        # the product in logs, which reads 0 where it underflows
        value = 0j if base == 0 else phase * cmath.exp(
            _log_product(order, base, r, root_arg, scaled)
            - 2.0 * abs(s) - math.log(ive(0, 2.0 * abs(s))))
    return OverlapResult(complex(value), True)


_TINY = 2.0 ** -1022


def _in_range(x, floor: float = _TINY):
    """x, or ValueError where |x| is below floor or not finite."""
    if not floor <= abs(x) < math.inf:
        raise ValueError("min_overlap: a factor leaves double range")
    return x


def _log_product(order, base, r, z, scaled):
    """log(base^n I_n(2r) / r^n) for `min_overlap`, base != 0, n >= 1, from
    scaled = ive(n, 2r) while it is a normal double.  Where ive underflows,
    I_n(2r) / r^n is the power series sum_k z^k / (k! (n + k)!), z = r^2:
    there |z| is small beside n, |z| / n < |r|^1.5 / 53, so the terms stay
    below e^350 for |gamma|, |s| <= 700.  A series past double range (|r|
    beyond about 1100) raises ValueError."""
    if abs(scaled) >= _TINY:
        return order * cmath.log(base / r) + cmath.log(scaled) + 2.0 * r.real
    # past k (n + k) = 2|z| each term is below half the one before
    total = math.fsum(itertools.accumulate(
        range(1, int(math.sqrt(2.0 * abs(z))) + 60),
        lambda term, k: term * z / (k * (order + k)), initial=1.0))
    return (order * cmath.log(base) - math.lgamma(order + 1.0)
            + cmath.log(_in_range(total, 0.0)))


def sum_rule_residual(sigma: complex) -> float:
    """Defect of |J0(sigma)|^2 + 2 sum_{n>=1} |J_n(sigma)|^2 = I0(2s) with
    s = -Im(sigma); the tail is summed below 1e-14 of the total.

    Measured relative to I0(2s) >= 1, as the defect of the normalized
    window sum_k |J_k(sigma)|^2 / I0(2s) = 1: both sides grow like
    e^{2|s|}, so an absolute defect would saturate at the ulp of the values
    themselves (~1e-9 already at |sigma| = 10).  At small sigma, where
    I0 ~ 1, this coincides with the absolute defect.
    """
    sigma = complex(sigma)
    half = _bessel_half_width(sigma, 1e-14)
    window = _normalized_window(sigma, half)
    return abs(float(np.sum(np.abs(window) ** 2)) - 1.0)


def completeness_residual(m1: int, m2: int, s: float, gamma: float,
                          sector: Sector, n_cut: int) -> complex:
    """Defect of the resolution of identity truncated at |n| <= n_cut.

    The angle average is done analytically (it kills m1 != m2 exactly);
    the diagonal leaves (1/I0(2s)) sum_n |J_{m-n}(sigma)|^2 - 1, which
    decays to zero monotonically in n_cut.  `sector` is not read, since
    the defect does not depend on delta; positional callers still pass it.
    The 2 n_cut + 1 orders are held to the size budget (`_require_width`).
    """
    if n_cut < 0:
        raise ValueError("n_cut must be nonnegative")
    if m1 != m2:
        return 0j
    _require_width(2 * n_cut + 1, "n_cut")
    sigma = complex(gamma, -s)
    window = (bessel_j(m1 - np.arange(-n_cut, n_cut + 1), sigma)
              * _inv_sqrt_i0(sigma))
    return complex(float(np.sum(np.abs(window) ** 2)) - 1.0)


@functools.cache
def _dbt_nodes() -> tuple:
    """Gauss-Legendre nodes and weights per pi-wide panel, built on first
    use so that no start-up imports numpy.polynomial: 12 nodes (30 move
    n = 0, 5 by < 1e-14)."""
    return np.polynomial.legendre.leggauss(12)


def dbt_divergence(n: int, gamma_max: float) -> float:
    """int_0^Gamma J_n^2(x) dx by Gauss-Legendre panels of width pi.

    The integrand oscillates with period about pi and mean ~ 1/(pi x), so
    the integral grows like log(Gamma)/pi without bound: increments between
    decades approach log(10)/pi, which is the numerical demonstration that
    a flat group-average of these states cannot resolve the identity.
    n is an integer order (ValueError otherwise).  The 12 nodes a panel
    are held to the size budget (`_require_width`), counted in floats so
    that an infinite or nan gamma_max is refused too.
    """
    n = _require_index(n, "n")
    if gamma_max < 0:
        raise ValueError("gamma_max must be nonnegative")
    if gamma_max == 0:
        return 0.0
    _require_width(12.0 * np.ceil(gamma_max / math.pi), "gamma_max")
    edges = np.arange(0.0, gamma_max, math.pi)
    edges = np.append(edges, gamma_max)
    x_gl, w_gl = _dbt_nodes()
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * x_gl[None, :]
    vals = _special().jv(n, pts) ** 2
    return float(np.sum(half[:, None] * w_gl[None, :] * vals))

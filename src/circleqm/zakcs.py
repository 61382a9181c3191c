"""Holomorphic coherent states on the circle via Gaussian periodization.

A line Gaussian coherent state labelled by z = theta + i*l is wrapped onto
the circle by the phase-twisted periodization sum; the result is a theta
function of (phi - z)/2.  Splitting off the non-holomorphic prefactor
leaves the entire family w_z(phi) = e^{i phi delta} theta3[(phi - z +
i eps delta)/2, e^{-eps/2}], whose basis coefficients f_{n,delta}(z) =
exp(-eps(n^2/2 + n delta)) exp(-i n z) span a reproducing-kernel space of
holomorphic functions on the cylinder.  All expectation values close in
theta ratios of the fast (small-nome) series.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from circleqm.circlespace import (_MAX_WIDTH, CircleState, Sector,
                                  _finite_array, _fold, _require_index,
                                  _require_width)
from circleqm.specfun import (ThetaNome, _extent, _Nodes, _theta_dispatch,
                              theta, theta_derivs)

__all__ = [
    "PhasePoint",
    "WZParams",
    "WZExpectations",
    "WZLeadingOrder",
    "WZCompletenessResiduals",
    "gaussian_cs",
    "zak_periodize",
    "w_state",
    "w_value",
    "w_norm_sq",
    "periodized_norm_constant",
    "w_overlap",
    "fn_basis",
    "w_expectations",
    "transition_prob",
    "density",
    "completeness_residual_wz",
]


@dataclass(frozen=True)
class PhasePoint:
    """Complexified label z = theta + i l of a coherent state (theta the
    classical angle reduced to [0, 2 pi), l the dimensionless momentum)."""

    theta: float
    l_tilde: float

    def __init__(self, theta: float, l_tilde: float):
        theta = _fold(float(theta), 2.0 * math.pi)
        if not math.isfinite(theta):
            raise ValueError("the label's angle must be finite")
        d = self.__dict__
        d["theta"] = theta
        d["l_tilde"] = float(l_tilde)

    @property
    def z(self) -> complex:
        return complex(self.theta, self.l_tilde)

    @classmethod
    def from_z(cls, z: complex) -> "PhasePoint":
        z = complex(z)
        return cls(z.real, z.imag)


_EPS_RANGE = (2.0 * math.pi * 2.0 ** -1022, 0.5 * sys.float_info.max)


@dataclass(frozen=True)
class WZParams:
    """Stiffness epsilon > 0 plus the boundary-condition sector.

    epsilon must lie in `_EPS_RANGE`, [2 pi 2^-1022, max double / 2], about
    [1.4e-307, 9e307]: the family's nomes have Im tau = eps/2 pi, 2 eps/2
    pi, pi/eps or 2 pi/eps, each a finite double >= 2^-1022 as `ThetaNome`
    requires."""

    epsilon: float
    sector: Sector

    def __post_init__(self):
        if not _EPS_RANGE[0] <= self.epsilon <= _EPS_RANGE[1]:
            raise ValueError("epsilon must lie in [2 pi 2^-1022, max double "
                             "/ 2], about [1.4e-307, 9e307]")

    @property
    def delta(self) -> float:
        return self.sector.delta


def _as_point(z) -> PhasePoint:
    return z if isinstance(z, PhasePoint) else PhasePoint.from_z(z)


_PHASE_LIMIT = 2.0 ** 52


def _require_phase(largest) -> None:
    """Refuse a time phase of 2^52 rad or more: one ulp there is >= 1 rad."""
    if not largest < _PHASE_LIMIT:
        raise ValueError("eps omega t (n+delta)^2 / 2 reaches 2^52 rad: the "
                         "phase mod 2 pi has no significant bits")


def _flow_theta(eps: float, delta: float, T: complex, angle, offset=0.0):
    """theta3[(angle - eps delta T)/2, e^{-i eps T/2}] at complex time T,
    times exp(offset) fused into the series' exponents.  angle is an array,
    or `specfun._Nodes(m)` for the m angles -2 pi j/m held exactly.

    The nome is built from tau = -eps T / 2 pi, never from its value, so
    it keeps its bits where e^{-i eps T/2} is subnormal or 0: Im tau =
    -eps Im T / 2 pi, and Re tau is -eps Re T / 2 pi reduced into (-1, 1]
    by libm's trig, the T^2 step (tau -> tau + 2) the principal log takes.
    ValueError once the phases eps Re T (n+delta)^2 / 2 reach 2^52 rad for
    n up to the direct series' `specfun._extent`, a = -eps Im T/2 and
    b = max |Im zeta|, as in `evolve.propagate`, and where the value is
    not a finite double."""
    nodes = isinstance(angle, _Nodes)
    if nodes:
        zeta = _Nodes(angle.size, -(eps * delta * T / 2.0))
    else:
        # halved term by term (the same bits as (angle - eps delta T)/2): a
        # complex division turns an infinite real angle into nan with a
        # warning
        zeta = angle / 2.0 - eps * delta * T / 2.0
    if T.real != 0:
        a = -0.5 * eps * T.imag
        # a real angle (the propagator's) leaves Im zeta constant: no pass
        b = (0.5 * abs(eps * delta * T.imag) if nodes or np.isrealobj(angle)
             else float(np.abs(np.imag(zeta)).max(initial=0.0)))
        extent = _extent(a, b) + abs(delta)
        _require_phase(0.5 * eps * abs(T.real) * extent * extent)
    tau = complex(cmath.phase(cmath.exp(-0.5j * eps * T.real)) / math.pi,
                  -eps * T.imag / (2.0 * math.pi))
    return _theta_dispatch(3, zeta, ThetaNome(tau), "auto", False, offset)


# w_z and the kernel are the flow theta; the next two its -1/tau partners.
def _w_theta(params: WZParams, z, phi, wt: float):
    """w_z evolved to omega t = wt, e^{-i eps delta^2 wt/2} e^{i phi delta}
    times the flow theta at T = wt - i and angle phi - z."""
    eps, delta = params.epsilon, params.delta
    phi = _finite_array(phi, "phi")
    vals = (cmath.exp(-0.5j * eps * delta * delta * wt)
            * np.exp(1j * phi * delta)
            * _flow_theta(eps, delta, complex(wt, -1.0), phi - _as_point(z).z))
    return vals if vals.shape else complex(vals)


def _kernel_theta(params: WZParams, z1c, z2c):
    """Reproducing kernel theta3[(conj(z1) - z2 + 2 i eps delta)/2, e^{-eps}]
    at complex labels (or arrays of them): the flow theta at T = -2i."""
    return _flow_theta(params.epsilon, params.delta, complex(0.0, -2.0),
                       z1c.conjugate() - z2c)


def _winding_theta(params: WZParams, dz):
    """theta3[i pi (dz + i eps delta)/eps, e^{-2 pi^2/eps}] at dz = phi - z,
    the winding sum's face: the flow theta at T = -i after tau -> -1/tau."""
    eps = params.epsilon
    return theta(3, 1j * math.pi * (dz + 1j * eps * params.delta) / eps,
                 ThetaNome(2j * math.pi / eps))


def _norm_arg(eps: float, delta: float, l_tilde: float):
    """Argument pi (l - eps delta)/eps and nome e^{-pi^2/eps} of the
    periodized normalizer, which also carries every expectation ratio: the
    tau -> -1/tau partner of the flow theta at T = -2i."""
    zeta = math.pi * (l_tilde - eps * delta) / eps
    return zeta, ThetaNome(1j * math.pi / eps)


@functools.lru_cache(maxsize=16)
def _normalizer(eps: float, delta: float, l_tilde: float) -> float:
    """theta3[pi (l - eps delta)/eps, e^{-pi^2/eps}], evaluated once per
    label (eps, delta, l): `transition_prob`, `density` and
    `periodized_norm_constant` read it from this small LRU cache, which
    holds the bits of the `theta` call itself (l = +0.0 and -0.0, equal
    keys, give one value: theta3 is even).  A value past double range
    raises `theta`'s ValueError, and one that underflows to 0 (eps = 1e306,
    l = 1e300) a ValueError, on every call, as nothing is cached."""
    value = theta(3, *_norm_arg(eps, delta, l_tilde)).real
    if value == 0.0:
        raise ValueError("the periodized normalizer underflows to 0")
    return value


def gaussian_cs(epsilon: float, z, xi):
    """The line coherent state (eps pi)^(-1/4) e^{-(|z|^2+z^2)/(4 eps)}
    e^{-xi^2/(2 eps) + z xi / eps}; normalized on the line, annihilated by
    Q + i eps P with eigenvalue z.  A non-finite xi raises ValueError.

    Both factors are one exponent, the completed square -(xi - theta)^2/(2
    eps) + i l (xi - theta/2)/eps, z = theta + i l, whose real part is <= 0:
    apart, the first underflowed where the second overflowed (nan at large
    l).  Against 40-digit sums of `zak_periodize`'s copies it is also the
    closer: 2.9e-14 relative against 5.3e-14 over 60 random draws."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pt = _as_point(z)
    xi = _finite_array(xi, "xi")
    d = xi - pt.theta
    vals = (epsilon * math.pi) ** -0.25 * np.exp(
        -d * d / (2.0 * epsilon)
        + 1j * pt.l_tilde * (xi - 0.5 * pt.theta) / epsilon)
    return vals if vals.shape else complex(vals)


def zak_periodize(params: WZParams, z, phi):
    """Both faces of the periodized Gaussian: the twisted sum over winding
    copies and its theta closed form.

    Returns (series, closed) evaluated on phi; the two agree identically
    through the imaginary-argument transformation of theta3.  Both are
    quasi-periodic, f(phi + 2 pi k) = e^{2 pi i delta k} f(phi); the closed
    face is evaluated at phi - theta reduced into [-pi, pi) and carries that
    phase, since further out its Gaussian underflows to 0 while the theta
    factor overflows.  A non-finite phi raises ValueError.
    """
    eps, delta = params.epsilon, params.delta
    pt = _as_point(z)
    z = pt.z
    phi = _finite_array(phi, "phi")
    # winding sum: the line state at phi + 2 pi n, phases e^{-i 2 pi n delta}
    n_max = 3 + int(math.ceil((abs(z) + math.sqrt(80.0 * eps) + np.max(np.abs(phi)))
                              / (2.0 * math.pi)))
    n = np.arange(-n_max, n_max + 1)
    series = (gaussian_cs(eps, pt, phi[..., None] + 2.0 * math.pi * n)
              @ np.exp(-2j * math.pi * n * delta))

    turns = np.floor((phi - pt.theta + math.pi) / (2.0 * math.pi))
    dz = phi - 2.0 * math.pi * turns - z
    closed = ((eps * math.pi) ** -0.25
              * np.exp(-(abs(z) ** 2 - z * z) / (4.0 * eps)
                       - dz ** 2 / (2.0 * eps))
              * _winding_theta(params, dz)
              * np.exp(2j * math.pi * delta * turns))
    if series.shape:
        return series, closed
    return complex(series), complex(closed)


def _window(eps: float, delta: float, l_tilde, tol: float) -> np.ndarray:
    """Index window of w_z at momentum l_tilde (a row per label for an
    array): centre round((l - eps delta)/eps), the magnitude peak, and
    half-width ceil(sqrt(2 ln(1/tol)/eps)) + 5 (Gaussian decay).  Windows
    past the size budget (`_require_width`) raise ValueError before any
    index is formed."""
    center = np.rint((np.asarray(l_tilde) - eps * delta) / eps)
    if not np.isfinite(center).all():
        raise ValueError("the label's momentum must be finite")
    # inf at the least eps: a half-width past the budget is refused below
    # whatever it is, so it is rounded only up to the budget
    half = math.ceil(min(math.sqrt(2.0 * math.log(1.0 / tol) / eps),
                         _MAX_WIDTH)) + 5
    _require_width(center.size * (2 * half + 1), "epsilon")
    return center.astype(np.int64)[..., None] + np.arange(-half, half + 1)


def w_state(params: WZParams, z, window_tol: float = 1e-12) -> CircleState:
    """Coefficient window of the holomorphic (unnormalized) family member:
    c_m = f_{m,delta}(z) over the window of `_window`.  A coefficient past
    double range raises `CircleState`'s ValueError, with no warning."""
    if not 0.0 < window_tol < 1.0:
        raise ValueError("window_tol must lie in (0, 1)")
    pt = _as_point(z)
    ms = _window(params.epsilon, params.delta, pt.l_tilde, window_tol)
    with np.errstate(over="ignore"):
        return CircleState(params.sector, int(ms[0]), fn_basis(params, ms, pt))


def w_value(params: WZParams, z, phi):
    """Closed form e^{i phi delta} theta3[(phi - z + i eps delta)/2,
    e^{-eps/2}]; a non-finite phi, or a value past double range, raises
    ValueError."""
    return _w_theta(params, z, phi, 0.0)


def w_norm_sq(params: WZParams, z) -> float:
    """Squared norm theta3[i(l - eps delta), e^{-eps}] = K(z, z);
    ValueError where it is past double range (about e^709: eps = 0.01,
    l = 3 gives e^900)."""
    zc = _as_point(z).z
    return _kernel_theta(params, zc, zc).real


def periodized_norm_constant(params: WZParams, z) -> float:
    """C_z = sqrt(2 pi / theta3[pi(l - eps delta)/eps, e^{-pi^2/eps}]),
    the normalizer of the periodized Gaussian itself."""
    return math.sqrt(2.0 * math.pi / _normalizer(
        params.epsilon, params.delta, _as_point(z).l_tilde))


def w_overlap(params: WZParams, z1, z2) -> complex:
    """Reproducing kernel K(z1, z2) = theta3[(conj(z1) - z2 + 2 i eps
    delta)/2, e^{-eps}] = (w_{z1}, w_{z2}); ValueError where it is past
    double range."""
    return complex(_kernel_theta(params, _as_point(z1).z, _as_point(z2).z))


def fn_basis(params: WZParams, n, z):
    """Orthonormal basis f_{n,delta}(z) = exp(-eps(n^2/2 + n delta))
    exp(-i n z) of the holomorphic-function space, the one place it is
    computed.  n is an integer or an integer array; an array of complex
    labels z (this module's callers) broadcasts against n.  A circle state
    sum c_n e_{n,delta} is represented by (psi, w_z) = sum conj(c_n)
    f_{n,delta}(z)."""
    eps, delta = params.epsilon, params.delta
    zc = z if isinstance(z, np.ndarray) else _as_point(z).z
    n = np.asarray(n, dtype=float)
    vals = np.exp(-eps * (n * n / 2.0 + n * delta) - 1j * n * zc)
    return vals if vals.shape else complex(vals)


@dataclass(frozen=True)
class WZLeadingOrder:
    """First-order small-nome approximations: the theta ratio, the momentum
    mean and the scaled momentum variance."""

    ratio43: float
    mean_l: float
    var_l_scaled: float
    corr_cl_scaled: float


@dataclass(frozen=True)
class WZExpectations:
    """Closed-form moment record of the normalized holomorphic state.

    var_l_scaled is eps^2 (Delta L)^2 and corr_cl_scaled is eps <S(C, L)>;
    leading holds the small-nome approximations for comparison.
    """

    mean_u: complex
    mean_udag: complex
    mean_c: float
    mean_s: float
    mean_l: float
    mean_c2: float
    mean_s2: float
    var_c: float
    var_s: float
    var_l_scaled: float
    corr_cl_scaled: float
    leading: WZLeadingOrder

    @property
    def var_sum(self) -> float:
        return self.var_c + self.var_s


def w_expectations(params: WZParams, z) -> WZExpectations:
    """Evaluate every closed form through ratios of the fast small-nome
    theta series at zeta = pi (l - eps delta)/eps, q = e^{-pi^2/eps}.

    theta_4 and its derivative are read off theta_3 at zeta + pi/2
    (theta_4(zeta) = theta_3(zeta + pi/2)), so two scalar `theta_derivs`
    calls of one kind, on theta's scalar lane, give every theta value the
    record needs."""
    eps = params.epsilon
    pt = _as_point(z)
    theta_ang, l_tilde = pt.theta, pt.l_tilde
    zeta, nome = _norm_arg(eps, params.delta, l_tilde)
    t3, d3, dd3 = theta_derivs(3, zeta, nome)
    t4, d4, _ = theta_derivs(3, zeta + 0.5 * math.pi, nome)
    t3, t4, d3, d4, dd3 = t3.real, t4.real, d3.real, d4.real, dd3.real
    ratio43 = t4 / t3
    ca, sa = math.cos(theta_ang), math.sin(theta_ang)
    e4 = math.exp(-eps / 4.0)
    e1 = math.exp(-eps)
    e2 = math.exp(-eps / 2.0)

    mean_c = ca * e4 * ratio43
    mean_s = sa * e4 * ratio43
    # mean momentum: delta + (1/2) d/dl log theta3[i(l - eps delta)] =
    # l/eps + (pi/2 eps) theta3'/theta3 at the transformed argument -- the
    # delta offset cancels against the Gaussian-envelope derivative
    # (confirmed by the coefficient-space oracle)
    mean_l = l_tilde / eps + (math.pi / (2.0 * eps)) * d3 / t3
    mean_c2 = 0.5 + e1 * (ca * ca - 0.5)
    mean_s2 = 0.5 + e1 * (sa * sa - 0.5)
    var_c = mean_c2 - e2 * ca * ca * ratio43 ** 2
    var_s = mean_s2 - e2 * sa * sa * ratio43 ** 2
    var_l_scaled = eps / 2.0 + (math.pi ** 2 / 4.0) * (dd3 / t3 - (d3 / t3) ** 2)
    corr_cl_scaled = (math.pi / 2.0) * e4 * ca * ratio43 * (d4 / t4 - d3 / t3)

    q = math.exp(-math.pi ** 2 / eps)
    osc = 2.0 * zeta
    leading = WZLeadingOrder(
        ratio43=1.0 - 4.0 * q * math.cos(osc),
        mean_l=l_tilde / eps
               + (math.pi / (2.0 * eps)) * (-4.0 * q * math.sin(osc)),
        var_l_scaled=eps / 2.0 - 2.0 * math.pi ** 2 * q * math.cos(osc),
        corr_cl_scaled=4.0 * math.pi * q * e4 * ca * math.sin(osc),
    )
    return WZExpectations(
        mean_u=cmath.exp(-1j * theta_ang) * e4 * ratio43,
        mean_udag=cmath.exp(1j * theta_ang) * e4 * ratio43,
        mean_c=mean_c, mean_s=mean_s, mean_l=mean_l,
        mean_c2=mean_c2, mean_s2=mean_s2,
        var_c=var_c, var_s=var_s,
        var_l_scaled=var_l_scaled, corr_cl_scaled=corr_cl_scaled,
        leading=leading,
    )


def transition_prob(m, params: WZParams, z):
    """Probability of angular momentum m + delta in the normalized state:
    sqrt(eps/pi) e^{-[l - eps(m+delta)]^2/eps} / theta3[pi(l - eps
    delta)/eps, e^{-pi^2/eps}]; peaks at l = eps(m + delta).

    m is an integer, giving a float, or an integer array, giving an array
    of probabilities shaped like m; either way the theta normalization is
    one scalar call on theta's scalar lane (`specfun._theta_dispatch`),
    made once per label (`_normalizer`).  A
    builtin or NumPy integer below 2^63 in magnitude is computed in Python
    floats, with no NumPy call; an array, or a larger integer, in NumPy.
    Non-integer m raises ValueError.
    """
    eps, delta = params.epsilon, params.delta
    l_tilde = _as_point(z).l_tilde
    if (type(m) is int or isinstance(m, np.integer)) and abs(m) < 2 ** 63:
        x = l_tilde - eps * (int(m) + delta)
        expo = x * x / eps
        if expo == math.inf:
            # x^2 overflows past |x| = 1.3e154 while x^2/eps need not (eps
            # above 2.4e305): there it is (x/sqrt(eps))^2; an inf left over
            # is an exponent past any double's, where the Gaussian is 0
            y = x / math.sqrt(eps)
            expo = y * y
        return (math.sqrt(eps / math.pi) * math.exp(-expo)
                / _normalizer(eps, delta, l_tilde))
    m = np.asarray(m)
    if m.dtype.kind not in "iu":
        raise ValueError("m must be an integer or an integer array")
    norm = _normalizer(eps, delta, l_tilde)
    with np.errstate(over="ignore"):
        x = l_tilde - eps * (m + delta)
        expo = x ** 2 / eps
        # as for a scalar m
        expo = np.where(np.isinf(expo), (x / math.sqrt(eps)) ** 2, expo)
    prob = math.sqrt(eps / math.pi) * np.exp(-expo) / norm
    return float(prob) if prob.ndim == 0 else prob


def density(params: WZParams, z, phi):
    """Angular probability density of the normalized periodized Gaussian:
    (2 pi / sqrt(eps pi)) e^{-(phi-theta)^2/eps} |theta3[i pi (phi - z +
    i eps delta)/eps, e^{-2 pi^2/eps}]|^2 / theta3[pi(l - eps delta)/eps,
    e^{-pi^2/eps}]; integrates to 1 against dphi/2pi.  It is 2 pi-periodic:
    phi - theta is reduced into [-pi, pi) first, since further out the
    Gaussian underflows to 0 while the theta factor overflows.  A
    non-finite phi raises ValueError."""
    eps = params.epsilon
    pt = _as_point(z)
    d = _finite_array(phi, "phi") - pt.theta
    d = d - 2.0 * math.pi * np.floor((d + math.pi) / (2.0 * math.pi))
    tvals = _winding_theta(params, d - 1j * pt.l_tilde)
    vals = (2.0 * math.pi / math.sqrt(eps * math.pi)
            * np.exp(-d ** 2 / eps)
            * np.abs(tvals) ** 2 / _normalizer(eps, params.delta, pt.l_tilde))
    return vals if vals.shape else float(vals)


@dataclass(frozen=True)
class WZCompletenessResiduals:
    """Identity-resolution defects of the two integral forms: the raw
    Gaussian-measure form and the theta-weighted normalized form."""

    gauss: complex
    weighted: complex


@functools.cache
def _wz_nodes() -> tuple:
    """Gauss-Legendre nodes and weights, built on first use so that no
    start-up imports numpy.polynomial or solves the 80-node eigenproblem:
    80 integrate the radial Gaussians to rounding."""
    return np.polynomial.legendre.leggauss(80)


_WZ_L_CUT = 8.0  # momentum cut in sqrt(eps): the Gaussian tail is e^-64


def completeness_residual_wz(m1: int, m2: int,
                             params: WZParams) -> WZCompletenessResiduals:
    """Resolve the identity over the family, truncating the momentum
    integral at +- 8 sqrt(eps) around the matrix element's center.

    The angle integral is done analytically (it kills m1 != m2 exactly);
    the remaining radial integrals are Gauss-Legendre.  The weighted form
    evaluates the theta weight and the state normalizer separately, so
    their cancellation is part of what is being checked.  m1 and m2 are
    integer indices (ValueError otherwise).
    """
    m1, m2 = _require_index(m1, "m1"), _require_index(m2, "m2")
    if m1 != m2:
        return WZCompletenessResiduals(0j, 0j)
    eps, delta = params.epsilon, params.delta
    x_gl, w_gl = _wz_nodes()

    center = eps * (m1 + delta)
    half_width = _WZ_L_CUT * math.sqrt(eps)
    l_nodes = center + half_width * x_gl
    wts = half_width * w_gl

    # Gaussian-measure form: integrand (1/eps) sqrt(eps/pi) e^{-[l-eps(m+d)]^2/eps}
    gauss_integrand = (math.sqrt(eps / math.pi) / eps
                       * np.exp(-(l_nodes - center) ** 2 / eps))
    gauss = float(np.sum(wts * gauss_integrand)) - 1.0

    # theta-weighted normalized form: weight e^{-y^2/eps} theta3[iy, e^-eps]
    # /sqrt(eps pi) times N_z^2 |f_m|^2 at z = i l.  The theta weight is the
    # kernel's closed-form diagonal but the normalizer the coefficient sum
    # over each node's w_state window, so their cancellation is under test.
    y = l_nodes - eps * delta
    z_nodes = 1j * l_nodes
    t3 = _kernel_theta(params, z_nodes, z_nodes).real
    rows = fn_basis(params, _window(eps, delta, l_nodes, 1e-15),
                    z_nodes[:, None])
    norm_sq = np.sum(np.abs(rows) ** 2, axis=1)
    f_m_sq = np.abs(fn_basis(params, m1, z_nodes)) ** 2
    weighted_integrand = (np.exp(-y * y / eps) / math.sqrt(eps * math.pi)
                          * t3 * f_m_sq / norm_sq)
    weighted = float(np.sum(wts * weighted_integrand)) - 1.0
    return WZCompletenessResiduals(complex(gauss), complex(weighted))

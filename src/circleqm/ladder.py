"""Ladder operators built by conjugating U = e^{-i phi} with the Gaussian
complexifier e^{-eps L^2 / 2}.

B lowers the angular-momentum index with an exponential weight,
B e_{n,delta} = e^{eps(n + delta - 1/2)} e_{n-1,delta}, and the holomorphic
family members are its eigenvectors with eigenvalue e^{-iz}.  The pair
K = B + B†, J = i(B† - B) is saturated exactly by those states, and the
rescaled operators satisfy a q-deformed oscillator algebra with
q = e^{-2 eps}.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from circleqm.circlespace import (CircleState, _centred_report,
                                  _require_same_sector, _windows)
from circleqm.zakcs import WZParams, _as_point, w_state

__all__ = [
    "LadderContext",
    "KJReport",
    "apply_B",
    "apply_Bdag",
    "apply_complexifier",
    "eigen_residual",
    "kj_report",
    "kj_matrix_elements",
    "pair_stats",
    "qdeform_residual",
]

_KJ_WINDOW_TOL = 1e-15  # w_state window of kj_matrix_elements
_LOG_MAX = math.log(sys.float_info.max)
# Largest 2l for kj_report: e^{2l} stays below max double / e^2, so the
# means' squared modulus 4 e^{2l} is finite too.
_LOG_E2L_MAX = _LOG_MAX - 2.0


@dataclass(frozen=True)
class LadderContext(WZParams):
    """Stiffness and sector (a `WZParams`), with the derived deformation
    parameter q = e^{-2 eps} and the shift (1/2 eps) ln(2 sinh eps) of N."""

    @property
    def q_def(self) -> float:
        return math.exp(-2.0 * self.epsilon)

    @property
    def shift_constant(self) -> float:
        return math.log(2.0 * math.sinh(self.epsilon)) / (2.0 * self.epsilon)


def _diagonal(ctx: LadderContext, state: CircleState, weights,
              shift: int = 0) -> CircleState:
    """c_n e_{n} -> weights(n + delta) c_n e_{n+shift}, for a state in the
    context's sector.  A weight or product past double range gives a
    non-finite coefficient, which `CircleState` refuses (ValueError) with
    no warning first."""
    _require_same_sector(state.sector, ctx.sector)
    freq = state.indices + ctx.sector.delta
    # inf * 0 is nan: both leave the refusal to CircleState
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = state.coeffs * weights(freq)
    return CircleState(state.sector, state.n_lo + shift, coeffs)


def apply_B(ctx: LadderContext, state: CircleState) -> CircleState:
    """Lowering: c_n e_{n} -> c_n e^{eps(n + delta - 1/2)} e_{n-1}."""
    return _diagonal(ctx, state, lambda f: np.exp(ctx.epsilon * (f - 0.5)), -1)


def apply_Bdag(ctx: LadderContext, state: CircleState) -> CircleState:
    """Raising: c_n e_{n} -> c_n e^{eps(n + delta + 1/2)} e_{n+1}."""
    return _diagonal(ctx, state, lambda f: np.exp(ctx.epsilon * (f + 0.5)), 1)


def apply_complexifier(ctx: LadderContext, state: CircleState,
                       inverse: bool = False) -> CircleState:
    """Diagonal Gaussian smoothing e^{-eps L^2/2} (or its inverse)."""
    sign = 1.0 if inverse else -1.0
    return _diagonal(ctx, state,
                     lambda f: np.exp(sign * ctx.epsilon * f ** 2 / 2.0))


def eigen_residual(ctx: LadderContext, z) -> float:
    """||B w_z - e^{-iz} w_z|| / ||w_z|| on `w_state`'s default window.

    The finite window necessarily breaks the eigen-relation at its two edge
    rows, which are excluded; on the interior the residual reflects only the
    coefficient recursion, not the truncation.  w_z is normalized first,
    so its norm may lie past double range.
    """
    w = w_state(ctx, z).normalized()
    eta = cmath.exp(-1j * _as_point(z).z)
    bw = apply_B(ctx, w)
    # interior indices of the union window: drop the two edge rows
    lo = w.n_lo - bw.n_lo
    bw_slice = bw.coeffs[lo:lo + w.coeffs.size - 1]
    return float(np.linalg.norm(bw_slice - eta * w.coeffs[:-1]))


@dataclass(frozen=True)
class KJReport:
    """Closed-form statistics of the quadrature pair K = B + Bdag,
    J = i(Bdag - B) on a normalized holomorphic family member.

    The pair is always saturated: var_k var_j = |<[K,J]>|^2 / 4 exactly,
    with var_k = var_j = (e^{2 eps} - 1) e^{2l}.  theta and l are recovered
    from the means.
    """

    mean_k: float
    mean_j: float
    var_k: float
    var_j: float
    covariance: float
    commutator_mean: complex
    saturated: bool
    theta_recovered: float
    l_recovered: float


def kj_report(ctx: LadderContext, z) -> KJReport:
    """Evaluate the closed forms at the phase point z = theta + i l.

    ValueError where the record leaves double range: where e^{2l}, the
    spread (e^{2 eps} - 1) e^{2l} or the squared moduli of the means and
    the commutator, 4 e^{2l} and 4 spread^2, are not finite doubles (e^{2l}
    is kept below max double / e^2)."""
    pt = _as_point(z)
    theta_ang, l_tilde = pt.theta, pt.l_tilde
    spread = math.inf
    if 2.0 * l_tilde < _LOG_E2L_MAX and 2.0 * ctx.epsilon < _LOG_MAX:
        spread = math.expm1(2.0 * ctx.epsilon) * math.exp(2.0 * l_tilde)
    if not math.isfinite(4.0 * spread * spread):
        raise ValueError("the K/J record is not a finite double here: "
                         "e^{2l} (e^{2 eps} - 1) or its square leaves "
                         "double range")
    mean_k = 2.0 * math.cos(theta_ang) * math.exp(l_tilde)
    mean_j = -2.0 * math.sin(theta_ang) * math.exp(l_tilde)
    commutator = 2j * spread
    lhs = spread * spread
    rhs = 0.25 * abs(commutator) ** 2
    theta_rec = math.atan2(-mean_j, mean_k) % (2.0 * math.pi)
    l_rec = 0.5 * math.log((mean_k ** 2 + mean_j ** 2) / 4.0)
    return KJReport(
        mean_k=mean_k, mean_j=mean_j, var_k=spread, var_j=spread,
        covariance=0.0, commutator_mean=commutator,
        saturated=abs(lhs - rhs) < 1e-12 * max(lhs, 1e-30),
        theta_recovered=theta_rec, l_recovered=l_rec,
    )


def pair_stats(ctx: LadderContext, state: CircleState) -> KJReport:
    """K/J statistics of an arbitrary normalized finite-window state from
    matrix elements.

    K psi = B psi + Bdag psi and J psi = i (Bdag psi - B psi) on one index
    range give the means and the Gram record of the centred vectors (see
    `circlespace._centred_report`); saturated within 1e-8 relative.
    ValueError, with no warning first, where a mean, a variance, the
    covariance or the commutator is not a finite double.  l is recovered
    from the means' modulus, finite where their squares leave double
    range, and -inf where both means vanish.
    """
    psi = state.normalized()
    p, b, bd = _windows(psi, apply_B(ctx, psi), apply_Bdag(ctx, psi))
    # past double range a sum or product gives inf or nan, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        rep = _centred_report(np.stack([p, b + bd, 1j * (bd - b)]), 1e-8)
    if not all(map(math.isfinite, (rep.mean_a, rep.mean_b, rep.var_a,
                                   rep.var_b, rep.covariance,
                                   rep.commutator_mean.imag))):
        raise ValueError("the K/J record is not a finite double here: a "
                         "moment leaves double range")
    theta_rec = math.atan2(-rep.mean_b, rep.mean_a) % (2.0 * math.pi)
    # fsum rounds as + does, but raises OverflowError past double range
    try:
        mag_sq = math.fsum((rep.mean_a ** 2, rep.mean_b ** 2)) / 4.0
        l_rec = 0.5 * math.log(mag_sq) if mag_sq > 0 else -math.inf
    except OverflowError:  # the halved means' modulus stays in range
        l_rec = math.log(math.hypot(rep.mean_a / 2.0, rep.mean_b / 2.0))
    return KJReport(
        mean_k=rep.mean_a, mean_j=rep.mean_b, var_k=rep.var_a,
        var_j=rep.var_b, covariance=rep.covariance,
        commutator_mean=rep.commutator_mean, saturated=rep.saturated,
        theta_recovered=theta_rec, l_recovered=l_rec,
    )


def kj_matrix_elements(ctx: LadderContext, z) -> KJReport:
    """K/J statistics of a truncated holomorphic family member -- the
    independent route for cross-checking `kj_report`'s closed forms."""
    return pair_stats(ctx, w_state(ctx, z, _KJ_WINDOW_TOL))


def qdeform_residual(ctx: LadderContext, n: int) -> float:
    """||(A Adag - q Adag A - q^{-N}) e_{n,delta}|| with A = B / sqrt(1 + q)
    and N = L + shift_constant; all three terms are diagonal on the basis."""
    from circleqm.circlespace import basis_state

    e_n = basis_state(n, ctx.sector)
    scale = 1.0 / (1.0 + ctx.q_def)
    a_adag = scale * apply_B(ctx, apply_Bdag(ctx, e_n)).coeffs[0]
    q_adag_a = ctx.q_def * scale * apply_Bdag(ctx, apply_B(ctx, e_n)).coeffs[0]
    # q^{-N} e_n = e^{2 eps (n + delta + shift)} e_n
    rhs = math.exp(2.0 * ctx.epsilon
                   * (n + ctx.sector.delta + ctx.shift_constant))
    return float(abs(a_adag - q_adag_a - rhs))

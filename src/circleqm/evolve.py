"""Time evolution generated by H = (eps/2) L^2 (units hbar omega = 1).

Spectral propagation multiplies coefficients by exp(-i eps (n+delta)^2
omega t / 2) and is the production path; the propagator kernel is a theta
function of complex nome exp(-i eps omega (t - i eta)/2) whose
regularization eta > 0 is always explicit.  The kernel has two printed
faces related by the imaginary-argument transformation -- a rapidly
convergent Gaussian-prefactor form for small times and the plain spectral
series; `kernel` evaluates neither as such, but the theta factor they
share after an SL(2, Z) reduction of its tau, and `verify` checks it
against both.  The closed-form evolution of the holomorphic coherent-state
family is provided alongside; a minimal-uncertainty state evolves by
`propagate` of its window.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from circleqm.circlespace import (CircleState, Params, Sector, _centred_gram,
                                  _evaluate, _finite_array, _operator_rows,
                                  _require_same_sector)
from circleqm.specfun import _Nodes
from circleqm.zakcs import WZParams, _flow_theta, _require_phase, _w_theta

__all__ = [
    "EvolutionSpec",
    "propagate",
    "moment_series",
    "kernel",
    "kernel_apply",
    "evolve_w",
]


@dataclass(frozen=True)
class EvolutionSpec:
    """Evolution inputs: stiffness/frequency, sector, time, and the kernel
    regularization eta (used only by kernel evaluation; must be > 0 there)."""

    params: Params
    sector: Sector
    t: float
    eta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("time must be finite")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")

    @property
    def complex_time(self) -> complex:
        """omega (t - i eta), the regularized time in frequency units."""
        return self.params.omega * complex(self.t, -self.eta)


def _phases(params: Params, t, freq: np.ndarray) -> np.ndarray:
    """exp(-i eps omega t (n+delta)^2 / 2) at the frequencies freq = n + delta.

    t is one time, or a column of times giving one row of phases each.
    Raises ValueError once the largest phase reaches 2^52 rad.
    """
    scale = 0.5 * params.epsilon * params.omega * t
    # keep this association: grouping (freq * freq) first rounds
    # differently, and at t ~ 20 the phase is ~1e4 rad, where that moves
    # results by ~3e-13
    arg = -1j * scale * freq * freq
    _require_phase(np.max(np.abs(arg.imag)))
    return np.exp(arg)


def propagate(spec: EvolutionSpec, state: CircleState) -> CircleState:
    """Diagonal spectral evolution; exactly unitary, composes additively in
    t, and conjugates cleanly for t < 0.  Raises ValueError where a phase
    reaches 2^52 rad (see `_phases`)."""
    _require_same_sector(state.sector, spec.sector)
    freq = state.indices + spec.sector.delta
    phases = _phases(spec.params, spec.t, freq)
    return CircleState(state.sector, state.n_lo, state.coeffs * phases)


def moment_series(params: Params, state: CircleState, times) -> np.ndarray:
    """The state propagated to every time in one array pass, reduced to
    moments.

    times is a 1-D sequence.  Row i holds <C>, <S>, <L>, Var C, Var S,
    Var L and the fidelity to `state` at times[i], the expectation values
    of the normalized state (`CircleState.normalized`) at any scale of its
    coefficients; the zero state raises ValueError.  The moments are those
    of `uncertainty_report`, batched over the times: the rows psi_t, C psi_t,
    S psi_t and L psi_t (`circlespace._operator_rows`, L about the window
    centre) reduced to means and the Gram matrix of the centred rows
    (`circlespace._centred_gram`).  Agrees with `propagate` and
    `apply_operator` per time to about 1e-13.  Raises ValueError for
    non-finite times or where a phase reaches 2^52 rad (see `_phases`).
    """
    t = np.asarray(times, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("time must be finite")
    unit = state.normalized()
    delta = unit.sector.delta
    # row i is the window propagated to t[i]
    psi = unit.coeffs * _phases(params, t[:, None], unit.indices + delta)
    rows, shifts = _operator_rows(psi, 1.0, "CSL", unit.n_lo, delta)
    means, gram = _centred_gram(rows)
    fid = np.abs(psi @ unit.coeffs.conj())
    return np.column_stack((means[..., 0] + shifts,
                            np.diagonal(gram, 0, -2, -1), fid))


_MIN_DAMPING = 1e-8  # least eps omega eta: there the faces agree to 4e-9


def _smooth_lengths(limit: int) -> list:
    """The lengths up to limit with no prime factor above 7, ascending."""
    lengths = [1]
    for p in (2, 3, 5, 7):
        more = []
        for x in lengths:
            while x <= limit:
                more.append(x)
                x *= p
        lengths = more
    return sorted(lengths)


# kernel_apply's node counts, FFT lengths numpy factors into radices 2 to 7
# (a large prime factor cost up to 4.6x as much: 1009 nodes against 1024),
# up to the power of two past its largest bound, 2 B + 1 at the least damping
_NODE_COUNTS = _smooth_lengths(
    1 << (2 * math.ceil(math.sqrt(80.0 / _MIN_DAMPING)) + 1).bit_length())


def _damping(spec: EvolutionSpec) -> float:
    """eps omega eta, refused with ValueError below the kernel's range."""
    damping = spec.params.epsilon * spec.params.omega * spec.eta
    if not damping >= _MIN_DAMPING:
        raise ValueError(f"the kernel needs eps omega eta >= 1e-8, got {damping:g}")
    return damping


def _kernel_theta(spec: EvolutionSpec, dphi):
    """The kernel's constant exp(-i eps delta^2 T/2) and its theta factor
    theta_3((dphi - eps delta T)/2 | exp(-i eps T/2)) at dphi, T = omega
    (t - i eta): the kernel is their product times exp(i delta dphi).  The
    theta factor, `zakcs._flow_theta` at T, is 2 pi-periodic in dphi.  It
    grows as fast as the constant's modulus exp(-eps omega eta delta^2/2)
    decays, so that modulus is fused into it and the constant returned is
    the phase exp(-i eps delta^2 Re T/2): both stay in range at any eta."""
    eps, delta = spec.params.epsilon, spec.sector.delta
    T = spec.complex_time
    return (cmath.exp(-0.5j * eps * delta * delta * T.real),
            _flow_theta(eps, delta, T, dphi,
                        0.5 * eps * delta * delta * T.imag))


def kernel(spec: EvolutionSpec, dphi):
    """Propagator kernel at angle difference dphi.

    The kernel is theta_3((dphi - eps delta T)/2 | nome exp(-i eps T/2)),
    T = omega (t - i eta), times the delta phases.  It has two printed
    faces: the spectral series, and after tau -> -1/tau a free-spreading
    Gaussian times theta_3 of the reciprocal nome (for eps omega t < 2 pi,
    exp(2 i pi^2 / (eps T))).  Both nomes near the unit circle need
    thousands of terms; `specfun.theta` instead reduces tau = -eps T / 2 pi
    to the fundamental domain and sums a handful of terms there.  `verify`'s
    `kernel-two-faces` checks this against both faces, each written out
    from theta's direct series.  dphi is taken as given: theta reduces the
    drifting argument itself.  Time phases of 2^52 rad over the series'
    terms (`zakcs._flow_theta`) raise ValueError.

    Valid range eps omega eta >= 1e-8, with no upper bound: the nome is
    built from its tau and the constant's modulus is fused into the theta
    series (`_kernel_theta`), so neither leaves double range apart from
    the other.  The theta factor stays within 5e-15 of max|theta| of
    40-digit sums over eps omega eta in [1e-8, 5e-5] (eight random draws),
    and the kernel within 1e-13 of max|K| of a 40-digit spectral sum on 16
    angles at eps = omega = 1, t = 0 and eps omega eta = 1430, 1600 and
    3000 (delta = 0.9) and 100 (delta = 0.5).  Below 1e-8 the kernel
    raises ValueError.
    """
    _damping(spec)
    dphi_arr = np.atleast_1d(np.asarray(dphi, dtype=float))
    # a scalar reaches theta as a number, which takes theta's scalar lane
    const, theta_vals = _kernel_theta(
        spec, dphi_arr if np.ndim(dphi) else dphi_arr[0])
    vals = const * np.exp(1j * spec.sector.delta * dphi_arr) * theta_vals
    return complex(vals[0]) if np.ndim(dphi) == 0 else vals


def kernel_apply(spec: EvolutionSpec, state: CircleState, phi_out):
    """Apply the kernel to a band-limited state by trapezoidal quadrature.

    Output i is (1/m) sum_j K(phi_i - phi_j) psi(phi_j) over the m nodes
    phi_j = phi_i + 2 pi j/m, the grid rotated to put node 0 at the output
    angle, and carries the eta-bias exp(-eps omega eta (n+delta)^2 / 2) on
    each coefficient relative to `propagate`.  Below eps omega eta = 1e-8
    it raises ValueError, and for a non-finite phi_out.

    Node count.  The kernel is sum_n a_n exp(i (n+delta) dphi) with |a_n| =
    exp(-eps omega eta (n+delta)^2 / 2), below exp(-40) once |n+delta| >
    B = sqrt(80/(eps omega eta)).  The trapezoid rule on any m equispaced
    nodes, rotated or not, is exact for exp(i (k - n) phi) unless k - n is
    a nonzero multiple of m, so state index k picks up only the alias
    partners n = k + s m, s != 0, each with |n + delta| >= m - |k + delta|.
    With R = max(|n_lo + delta|, |n_hi + delta|), m is the least length
    with no prime factor above 7 (an FFT length numpy factors into small
    radices) at or above

        ceil(B) + min(ceil(R), ceil(B)) + 1,

    which puts every alias partner of every window index with |k + delta|
    <= ceil(B) past B, where the kernel has damped it by exp(-40); a larger
    m only moves the partners further out.  The indices past ceil(B), in a
    window far from n = 0, take Theta_k = 0: their own a_k is already below
    exp(-40).  So m is at most 2 ceil(B) + 1 rounded up to such a length,
    however far the window sits.  `_NODE_COUNTS` stops at 262,144, below
    the size budget (`circlespace._require_width`), so no budget check is
    needed here.

    One convolution.  K(dphi) = C exp(i delta dphi) Theta(dphi), Theta the
    2 pi-periodic theta factor of `_kernel_theta`, and psi(phi) = sum_k c_k
    exp(i (k+delta) phi).  On the rotated grid every output needs Theta at
    the same m differences -2 pi j/m, and the delta phases of K and psi
    cancel to exp(i delta phi_i), so

        out_i = C sum_k c_k Theta_k exp(i (k+delta) phi_i),
        Theta_k = (1/m) sum_j Theta(-2 pi j/m) exp(2 pi i k j/m),

    Theta_k one inverse FFT of the m samples, read at k mod m: the outputs
    are `CircleState.evaluate` of the window C c_k Theta_k.  Theta is
    sampled once per call, on m points, so the theta function stays the
    operator being integrated.  The cost is one m-point theta evaluation
    plus O(m log m + outputs x width), where a quadrature sampling K on the
    (output x node) grid pays outputs x m points of theta series work.
    The theta evaluation takes `specfun.theta`'s reduced route: after the
    SL(2, Z) move of tau, a handful of terms a point by Horner's rule,
    where the series at tau or at -1/tau took 250-650 terms a point once
    eps omega eta is near 1e-4.  The nodes are passed as `specfun._Nodes`,
    which the route takes at their exact angles -2 pi j/m; rounding them to
    doubles first moved Theta_k by ~1e-13 at eps omega eta = 1e-6, about
    30 times the quadrature's error at the exact nodes.
    """
    _require_same_sector(state.sector, spec.sector)
    phi = np.atleast_1d(_finite_array(phi_out, "phi_out"))
    band = int(math.ceil(math.sqrt(80.0 / _damping(spec))))
    delta = spec.sector.delta
    reach = int(math.ceil(max(abs(state.n_lo + delta),
                              abs(state.n_hi + delta))))
    m = _NODE_COUNTS[bisect.bisect_left(_NODE_COUNTS,
                                        band + min(reach, band) + 1)]
    const, samples = _kernel_theta(spec, _Nodes(m))
    indices = state.indices
    freq = indices + delta
    theta_k = np.fft.ifft(samples)[indices % m]
    if reach > band:
        theta_k[np.abs(freq) > band] = 0.0
    vals = _evaluate(phi, freq, const * state.coeffs * theta_k, delta)
    return complex(vals[0]) if np.ndim(phi_out) == 0 else vals


def evolve_w(spec: EvolutionSpec, z):
    """Closed-form evolution of the holomorphic family (the nome turns by
    e^{-i eps omega t/2}, the theta argument drifts by eps delta omega t):
    a callable on phi, refusing time phases of 2^52 rad as `propagate`."""
    params = WZParams(spec.params.epsilon, spec.sector)
    wt = spec.params.omega * spec.t
    return lambda phi: _w_theta(params, z, phi, wt)


"""Fractional-sector Hilbert spaces over the circle.

A sector delta in [0, 1) labels the quasi-periodic boundary condition
psi(phi + 2 pi) = exp(i 2 pi delta) psi(phi).  States live in a finite
window of Fourier coefficients over the twisted basis
e_{n,delta}(phi) = exp(i (n + delta) phi); the basic self-adjoint
observables are C = cos phi, S = sin phi and the dimensionless angular
momentum L with eigenvalues n + delta.  hbar = 1 and unit radius
throughout.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from circleqm.specfun import _bessel_half_width, _bessel_window

__all__ = [
    "Sector",
    "RepLabel",
    "Params",
    "CircleState",
    "UncertaintyReport",
    "basis_state",
    "apply_operator",
    "inner",
    "uncertainty_report",
    "rep_apply",
    "energy",
    "ground_state",
    "delta_from_flux",
    "time_reversal",
    "parity",
    "fidelity",
]


@dataclass(frozen=True)
class Sector:
    """Boundary-condition label delta in [0, 1).  Labels with |delta1 -
    delta2| < 1e-9 are one Hilbert space (frac(l) of momenta an integer
    apart differs by up to 9.3e-10 at |l| = 1e7); there is no wrap-around,
    as labels near 1 and near 0 index their windows one apart.  Every
    function that pairs two sectors raises ValueError for any other pair."""

    delta: float

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


def _finite_array(values, name: str) -> np.ndarray:
    """values as a float array, ValueError naming `name` if any is not
    finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _require_index(n, name: str) -> int:
    """n as an int: ValueError naming `name` unless n is a builtin or NumPy
    integer, not a boolean, with |n| < 2^53, so that every n + delta is
    formed from an exact n."""
    if (type(n) is not int
            and (isinstance(n, bool) or not isinstance(n, (int, np.integer)))
            or not abs(int(n)) < 2 ** 53):
        raise ValueError(f"{name} must be an integer with |{name}| < 2^53, "
                         f"got {n!r}")
    return int(n)


# The one size budget: no builder allocates a window, or an array of windows,
# of more coefficients than this (2^22, 64 MB of complex doubles).
_MAX_WIDTH = 2 ** 22


def _require_width(n, what: str) -> None:
    """ValueError naming `what`, the parameter that set the width, unless
    n coefficients are within `_MAX_WIDTH`; called before they are
    allocated."""
    if not n <= _MAX_WIDTH:
        raise ValueError(f"{what} asks for a window of more than "
                         f"{_MAX_WIDTH} coefficients")


# Sector labels closer than this name one Hilbert space (see `Sector`).
_SECTOR_TOL = 1e-9


def _fold(x: float, period: float = 1.0) -> float:
    """x mod period in [0, period), taking the rounding case x % period ==
    period (tiny negative x) to 0."""
    f = x % period
    return 0.0 if f == period else f


def _same_sector(delta1: float, delta2: float) -> bool:
    return abs(delta1 - delta2) < _SECTOR_TOL


def _require_same_sector(sector1: Sector, sector2: Sector) -> None:
    if not _same_sector(sector1.delta, sector2.delta):
        raise ValueError(f"delta = {sector1.delta!r} and {sector2.delta!r} "
                         "label different Hilbert spaces")


@dataclass(frozen=True)
class RepLabel:
    """Label (rho, sector) of an irreducible representation; rho scales the
    translation generators."""

    rho: float
    sector: Sector

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")


@dataclass(frozen=True)
class Params:
    """Dimensionless stiffness epsilon = hbar/(m omega r^2) and the frequency
    omega used only by time evolution."""

    epsilon: float
    omega: float = 1.0

    def __post_init__(self):
        if not (0 < self.epsilon < math.inf and math.isfinite(self.omega)):
            raise ValueError("epsilon must be positive and finite, omega finite")


# Where max |c| lies in [2^-500, 2^500], the largest |c_n|^2 is a normal
# double, each smaller square that underflows loses less than 2^-74 of the
# sum, and a sum of fewer than 2^23 squares is finite.
_SAFE_RANGE = (2.0 ** -500, 2.0 ** 500)


def _scaled(c: np.ndarray):
    """(m, c / m, ||c / m||^2) for a nonempty window c: the one norm rule,
    read by every norm of a state.

    m = 1 where max |c| is 0 or in `_SAFE_RANGE`, so that c / m is c itself
    and the sum is the plain one, sum |c_n|^2 by pairwise addition;
    elsewhere m = max |c|, so that ||c / m||^2 lies in about [1, c.size]
    (the scaling of LAPACK's dnrm2: Blue, ACM TOMS 4, 15 (1978)).  No
    warning is raised at any scale.
    """
    mod = np.abs(c)
    # the first largest modulus, without the cost of a ufunc reduction
    m = float(mod[mod.argmax()])
    if 0.0 < m < _SAFE_RANGE[0] or m > _SAFE_RANGE[1]:
        # max |c / m| is 1 up to rounding: the plain sum of c / m.  A
        # modulus past the largest double (m = inf) scales c / 2 instead.
        return (m,) + _scaled(c / (m if m < math.inf else 2.0))[1:]
    return 1.0, c, float(np.add.reduce(mod * mod))


@dataclass(frozen=True)
class CircleState:
    """Quasi-periodic wavefunction as a coefficient window over e_{n,delta}.

    coeffs[j] multiplies e_{n_lo + j, delta}; n_lo is an integer (not a
    boolean) with |n_lo| < 2^53, so that every n + delta is formed from an
    exact n.  Evaluation reduces phi modulo 2 pi first and reattaches the
    winding phase exp(i 2 pi delta k), so the boundary condition holds
    exactly by construction.
    """

    sector: Sector
    n_lo: int
    coeffs: np.ndarray = field(repr=False)

    def __init__(self, sector: Sector, n_lo: int, coeffs: np.ndarray):
        n_lo = _require_index(n_lo, "n_lo")
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient window must be a nonempty 1-d array")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        d = self.__dict__
        d["sector"] = sector
        d["n_lo"] = n_lo
        d["coeffs"] = c

    @property
    def n_hi(self) -> int:
        return self.n_lo + self.coeffs.size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_lo, self.n_hi + 1)

    def norm_sq(self) -> float:
        """||c||^2 (`_scaled`): inf past double range, with no warning."""
        scale, _, norm_sq = _scaled(self.coeffs)
        return norm_sq * scale * scale

    def norm(self) -> float:
        scale, _, norm_sq = _scaled(self.coeffs)
        return scale * math.sqrt(norm_sq)

    def normalized(self) -> "CircleState":
        """The state over its norm, at any scale (`_scaled`); ValueError for
        the zero state."""
        _, c, norm_sq = _scaled(self.coeffs)
        if norm_sq == 0.0:
            raise ValueError("the zero state has no norm to divide out")
        return CircleState(self.sector, self.n_lo, c / math.sqrt(norm_sq))

    def evaluate(self, phi):
        """psi(phi) = sum_n c_n exp(i (n + delta) phi), winding-exact.
        Summed by einsum, whose bits for an output do not depend on the
        call's other angles (a matmul's do): a scalar call gives the bits
        of the same angle in a batch.  Raises ValueError for a non-finite
        phi."""
        vals = _evaluate(_finite_array(phi, "phi"),
                         self.indices + self.sector.delta, self.coeffs,
                         self.sector.delta)
        return vals if vals.shape else complex(vals)

    def to_json(self) -> str:
        return json.dumps({
            "delta": self.sector.delta,
            "n_lo": self.n_lo,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        })

    @classmethod
    def from_json(cls, text: str) -> "CircleState":
        """The state of `to_json`'s text, read by `from_doc`."""
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_doc(cls, doc: dict) -> "CircleState":
        """The state of `to_json`'s document, already parsed; n_lo may be
        written as an integral float (3.0), and anything else non-integral
        is refused.  Keys other than delta, n_lo and coeffs are ignored."""
        coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
        n_lo = doc["n_lo"]
        if isinstance(n_lo, float) and n_lo.is_integer():
            n_lo = int(n_lo)
        return cls(Sector(float(doc["delta"])), n_lo, coeffs)


def _evaluate(phi: np.ndarray, freq: np.ndarray, coeffs: np.ndarray,
              delta: float) -> np.ndarray:
    """sum_j coeffs[j] exp(i freq[j] phi) at finite angles phi, freq = n +
    delta over a window: `CircleState.evaluate` without the checks, shaped
    like phi."""
    k = np.floor(phi / (2.0 * math.pi))
    phi0 = phi - 2.0 * math.pi * k
    # a scalar angle is summed as a row too: einsum reduces a lone vector
    # in another order
    waves = np.exp(1j * (np.atleast_1d(phi0)[..., None] * freq))
    vals = np.einsum("...j,j->...", waves, coeffs).reshape(phi.shape)
    return vals * np.exp(1j * 2.0 * math.pi * delta * k)


def basis_state(n: int, sector: Sector) -> CircleState:
    """The basis element e_{n,delta}: a single unit coefficient.  n is an
    integer index (ValueError otherwise, as for `CircleState`'s n_lo)."""
    return CircleState(sector, _require_index(n, "n"), np.array([1.0 + 0j]))


_OPERATOR_TAGS = ("C", "S", "L", "L2")


def _operator_into(which: str, coeffs: np.ndarray, freq, out):
    """C, S, L or L^2 on coefficient windows along the last axis of coeffs,
    written in place into `out`.

    C and S write a window one index wider on each side, c_n -> (c_{n-1} +
    c_{n+1})/2 and (c_{n-1} - c_{n+1})/(2i), into a zeroed `out` two
    indices wider than coeffs (freq is not read); L and L^2 multiply by the
    eigenvalues freq = n + delta and freq^2 into an `out` as wide (or None,
    for a new array).
    """
    if which not in _OPERATOR_TAGS:
        raise ValueError(f"operator must be one of {_OPERATOR_TAGS}")
    if which in ("C", "S"):
        # 0.5 c (C) or c/2i (S): c_{n-1} adds at index n through out[2:],
        # c_{n+1} (negated for S) through out[:-2]; a complex 0.5 spares
        # the cast and keeps the bits of 0.5 * c
        half = coeffs * (0.5 + 0j) if which == "C" else coeffs / 2j
        out[..., 2:] += half
        if which == "C":
            out[..., :-2] += half
        else:
            out[..., :-2] -= half
        return out
    out = np.multiply(coeffs, freq, out=out)
    if which == "L2":
        out *= freq
    return out


def apply_operator(which: str, state: CircleState) -> CircleState:
    """Apply C = cos phi, S = sin phi, L or L^2 in coefficient space (see
    `_operator_into`); C and S widen the window by one index a side."""
    wide = which in ("C", "S")
    out = np.zeros(state.coeffs.size + 2, dtype=complex) if wide else None
    out = _operator_into(which, state.coeffs,
                         state.indices + state.sector.delta, out)
    return CircleState(state.sector, state.n_lo - int(wide), out)


def _operator_rows(c: np.ndarray, norm: float, tags, n_lo: int,
                   delta: float):
    """The normalized window psi = c / norm and its images under the
    operator tags as the rows of one array, with the shifts their means
    leave out.

    c is a window over n_lo, n_lo + 1, ..., batched over its leading axes.
    The rows, psi, X_1 psi, ..., X_k psi for the k tags, are written into
    one zeroed complex array of shape c.shape[:-1] + (1 + k, n), padded by
    one index a side where a tag is C or S, with `_operator_into`'s
    arithmetic.  L is applied as n - n_c about the window centre n_c, so
    that a large <L> does not cancel in its centred row; the shifts, n_c +
    delta for an L and 0.0 for any other tag, are returned alongside, to be
    added to the means only (the centred rows of L - s and of L are the
    same vector).
    """
    size, k = c.shape[-1], len(tags)
    pad = 1 if "C" in tags or "S" in tags else 0
    rows = np.zeros(c.shape[:-1] + (1 + k, size + 2 * pad), dtype=complex)
    psi = np.divide(c, norm, out=rows[..., 0, pad:pad + size])
    n_c = n_lo + (size - 1) // 2
    shifts = [0.0] * k
    for i, which in enumerate(tags):
        if which in ("C", "S"):
            _operator_into(which, psi, None, rows[..., i + 1, :])
            continue
        if which == "L":
            freq = np.arange(n_lo - n_c, n_lo - n_c + size, dtype=complex)
            shifts[i] = n_c + delta
        else:
            freq = np.arange(n_lo, n_lo + size) + delta
        _operator_into(which, psi, freq, rows[..., i + 1, pad:pad + size])
    return rows, shifts


def _centred_gram(rows: np.ndarray):
    """The means and the centred Gram matrix of `_operator_rows`' rows.

    rows is a C-contiguous complex array of rows psi, X_1 psi, ..., X_k psi
    (psi normalized, each X_i self-adjoint), batched over leading axes.
    Returns the means <X_i> = Re (psi, X_i psi) as a column, shaped (..., k,
    1), and the real Gram matrix Re (dX_i psi, dX_j psi) of the centred rows
    dX_i psi = (X_i - <X_i>) psi, shaped (..., k, k), whose diagonal holds
    the variances; the centred rows overwrite the operator rows.

    Two products on the rows' float views, where Re (u, v) = sum Re u Re v +
    Im u Im v is a real dot: a matrix-vector product for the means and a
    matrix product for the Gram matrix, by np.dot for one window (matmul's
    ufunc machinery cost about 0.4 us a product there, with the same bits)
    and by np.matmul over a batch.  No complex matrix product is taken:
    OpenBLAS's zgemm returns with the upper halves of the vector registers
    dirty, and the Python float code after it ran about 3x slower (a
    40-term cmath loop, 12 us -> 33 us) until the next library call that
    cleared them.  Nothing is formed as <X^2> - <X>^2, so the Gram matrix
    is positive semi-definite to rounding.
    """
    product = np.dot if rows.ndim == 2 else np.matmul
    flat = rows.view(float)
    ops = flat[..., 1:, :]
    means = product(ops, flat[..., 0, :, None])
    ops -= means * flat[..., :1, :]
    return means, product(ops, ops.swapaxes(-1, -2))


def _windows(*states: CircleState) -> np.ndarray:
    """The coefficient windows of `states` as the rows of one array over
    their common index range, zero-padded."""
    lo = min(s.n_lo for s in states)
    rows = np.zeros((len(states), max(s.n_hi for s in states) - lo + 1),
                    dtype=complex)
    for row, s in zip(rows, states):
        row[s.n_lo - lo:s.n_hi - lo + 1] = s.coeffs
    return rows


def inner(state2: CircleState, state1: CircleState) -> complex:
    """Scalar product (psi2, psi1) = sum_n conj(c2_n) c1_n."""
    _require_same_sector(state2.sector, state1.sector)
    a, b = _windows(state2, state1)
    return complex(np.vdot(a, b))


def fidelity(state2: CircleState, state1: CircleState) -> float:
    """|<psi2, psi1>| / (||psi2|| ||psi1||), at any scale (`_scaled`);
    ValueError where either is the zero state."""
    (_, c2, q2), (_, c1, q1) = _scaled(state2.coeffs), _scaled(state1.coeffs)
    if q2 == 0.0 or q1 == 0.0:
        raise ValueError("the fidelity needs two nonzero states")
    overlap = inner(CircleState(state2.sector, state2.n_lo, c2),
                    CircleState(state1.sector, state1.n_lo, c1))
    return abs(overlap) / (math.sqrt(q2) * math.sqrt(q1))


@dataclass(frozen=True)
class UncertaintyReport:
    """All the ingredients of the variance inequality for a pair (A, B).

    lhs = (Delta A)^2 (Delta B)^2, rhs = |<S(A,B)>|^2 + |<[A,B]>|^2 / 4,
    where S(A,B) = (AB + BA)/2 - <A><B>.  When the inequality is saturated,
    sigma = gamma - i s solves (B - <B>) psi = sigma (A - <A>) psi.
    """

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    covariance: float
    commutator_mean: complex
    lhs: float
    rhs: float
    saturated: bool
    sigma: Optional[complex]

    def __init__(self, mean_a, mean_b, var_a, var_b, covariance,
                 commutator_mean, lhs, rhs, saturated, sigma):
        # every field written once into the instance dict, as the
        # validated records do: the generated frozen __init__ makes a call
        # per field
        self.__dict__.update(
            mean_a=mean_a, mean_b=mean_b, var_a=var_a, var_b=var_b,
            covariance=covariance, commutator_mean=commutator_mean,
            lhs=lhs, rhs=rhs, saturated=saturated, sigma=sigma)


def _centred_report(rows: np.ndarray, tol: float,
                    shifts=None) -> UncertaintyReport:
    """The variance inequality of a pair (A, B) from the coefficient rows
    psi, A' psi, B' psi of a C-contiguous complex (3, n) array on one index
    range, psi normalized, A' = A - a0 and B' = B - b0 self-adjoint and
    (a0, b0) = shifts (none by default); saturated means |lhs - rhs| < tol
    * lhs.  The rows are overwritten.

    `_centred_gram` gives both means and the real 2x2 Gram matrix of dA psi
    = (A' - <A'>) psi and dB psi: both variances and the covariance Re (dA
    psi, dB psi).  One complex dot adds Im (dA psi, dB psi), half of <[A,
    B]>/i.  lhs >= rhs is then the Cauchy-Schwarz inequality of the Gram
    matrix and holds to rounding.  The shifts are added back to the means
    only: the centred rows of A' and A are the same vector.  The fields are
    Python floats, a complex and a bool.
    """
    means, gram = _centred_gram(rows)
    (var_a, covariance), (_, var_b) = gram.tolist()
    im_ab = float(np.vdot(rows[1], rows[2]).imag)
    (mean_a,), (mean_b,) = means.tolist()
    if shifts is not None:
        mean_a, mean_b = mean_a + shifts[0], mean_b + shifts[1]
    commutator_mean = complex(0.0, 2.0 * im_ab)  # <AB> - <BA>
    lhs = var_a * var_b
    rhs = covariance * covariance + im_ab * im_ab
    saturated = abs(lhs - rhs) < tol * max(lhs, 1e-30)
    sigma = None
    if saturated and var_a > 0:
        sigma = complex(covariance / var_a, im_ab / var_a)
    return UncertaintyReport(mean_a, mean_b, var_a, var_b, covariance,
                             commutator_mean, lhs, rhs, saturated, sigma)


def uncertainty_report(a: str, b: str, state: CircleState) -> UncertaintyReport:
    """Evaluate the variance inequality for operators a, b on the normalized
    window psi = c / ||c|| of `state`, from the centred vectors (see
    `_centred_report`); saturated within 1e-10 relative.  The norm is
    `_scaled`'s, so the report is that of c / max |c| where max |c| is
    outside [2^-500, 2^500]; only the zero state raises ValueError, and no
    warning is raised at any scale.

    psi, A psi and B psi are the rows of `_operator_rows`, which
    `evolve.moment_series` builds too, batched over times; psi has the bits
    of `CircleState.normalized`, and L is applied about the window centre
    so that a large <L> does not cancel in its centred row.
    """
    _, c, norm_sq = _scaled(state.coeffs)
    if norm_sq == 0.0:
        raise ValueError("the uncertainty report needs a nonzero state")
    rows, shifts = _operator_rows(c, math.sqrt(norm_sq), (a, b), state.n_lo,
                                  state.sector.delta)
    return _centred_report(rows, 1e-10, shifts)


def _rotation(n_lo: int, size: int, delta: float, alpha: float) -> np.ndarray:
    """exp(-i (n + delta) alpha) over the window n = n_lo, ..., n_lo + size -
    1, formed as the common phase exp(-i (n_c + delta) alpha) at the window
    centre n_c = n_lo + (size - 1) // 2 times exp(-i k alpha) over the
    offsets k = n - n_c.

    Rounding each (n + delta) alpha on its own put an error of about u |n
    alpha| into the phase between neighbours, which moved <C> of a 20-wide
    window by up to 7e-11 at n_lo = 1e7.  Here a large n + delta rounds in the
    common phase only, which no moment, |inner product| or fidelity sees,
    and the offsets are smallest where a centred state's weight lies.
    """
    n_c = n_lo + (size - 1) // 2
    return (cmath.rect(1.0, -(n_c + delta) * alpha)
            * np.exp(-1j * alpha * np.arange(n_lo - n_c, n_lo - n_c + size)))


# The translation taps are cut where the dropped |J_k(R)|^2, bounded by
# `_bessel_half_width`, sum to at most this (sum_k J_k(R)^2 = 1), so that
# the dropped part of the image has norm at most 1e-16 ||psi||.
_TAP_TAIL = 1e-32
# (-i)^k by k mod 4, exact
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def rep_apply(alpha: float, a: float, b: float, rep: RepLabel,
              state: CircleState) -> CircleState:
    """Act with the group element (alpha, t = a + i b) in the representation
    labelled by rep.

    The rotation is diagonal, c_n -> exp(-i (n + delta) alpha) c_n, with
    the phases of `_rotation`.  The translation multiplies pointwise by
    exp(-i rho (a cos phi + b sin phi)) = exp(-i R cos(phi - beta)) with
    R e^{i beta} = rho (a + i b); by
    Jacobi-Anger (DLMF 10.12) that is the convolution of the coefficients
    with the taps (-i)^k J_k(R) e^{-i k beta}, |k| <= h, J taken over 0..h
    and mirrored (`specfun._bessel_window`).  h is
    `_bessel_half_width(R, _TAP_TAIL)`: the dropped taps carry at most
    _TAP_TAIL of sum_k J_k(R)^2 = 1 by the DLMF 10.14.4 bound, so the image
    is exact up to a part of norm at most 1e-16 ||psi||, and the window
    grows by h (8 to 96 for R from 0.1 to 50) on each side.  An image past
    the size budget (`_require_width`, h above about 2.1 million, R above
    about 1.5 million) raises ValueError before any tap is formed.
    """
    _require_same_sector(rep.sector, state.sector)
    coeffs = state.coeffs
    if alpha != 0.0:
        coeffs = coeffs * _rotation(state.n_lo, coeffs.size,
                                    state.sector.delta, alpha)
    radius = rep.rho * math.hypot(a, b)
    if radius == 0.0:
        return CircleState(state.sector, state.n_lo, coeffs)
    half = _bessel_half_width(radius, _TAP_TAIL)
    _require_width(coeffs.size + 2 * half, "rho |t|")
    k = np.arange(-half, half + 1)
    taps = (_MINUS_I_POWERS[k % 4] * _bessel_window(radius, half)
            * np.exp(-1j * k * math.atan2(b, a)))
    return CircleState(state.sector, state.n_lo - half, np.convolve(coeffs, taps))


def energy(n: int, params: Params, sector: Sector) -> float:
    """Spectrum E_n = (1/2) epsilon (n + delta)^2 in units hbar omega = 1.
    n is an integer index (ValueError otherwise, as for `basis_state`)."""
    return 0.5 * params.epsilon * (_require_index(n, "n") + sector.delta) ** 2


def ground_state(params: Params, sector: Sector):
    """Lowest level: n* = 0 for delta < 1/2, n* = -1 for delta > 1/2.

    Returns (n_star, energy, degenerate); at delta = 1/2 the two candidates
    coincide in energy and the flag is set (n_star reported as 0).
    """
    e0 = energy(0, params, sector)
    e1 = energy(-1, params, sector)
    if abs(e0 - e1) < 1e-15 * max(abs(e0), 1.0):
        return 0, e0, True
    return (0, e0, False) if e0 < e1 else (-1, e1, False)


def delta_from_flux(charge: float, flux: float):
    """Sector and interference shift of a threaded flux line (hbar = 1):
    delta = frac(q Phi / 2 pi), Delta theta = q Phi."""
    shift = charge * flux
    return _fold(shift / (2.0 * math.pi)), shift


def _reflected(state: CircleState, coeffs: np.ndarray) -> CircleState:
    """The reversed window coeffs in the conjugate sector delta' = (1 -
    delta) mod 1: index n goes to -n - k, k = delta + delta' (1, or 0 where
    delta' = 0), so that -(n + delta) = (-n - k) + delta'."""
    sector = Sector(_fold(1.0 - state.sector.delta))
    k = round(state.sector.delta + sector.delta)
    return CircleState(sector, -state.n_hi - k, coeffs)


def time_reversal(state: CircleState) -> CircleState:
    """Complex conjugation: conj(e_{n,delta}) = e_{-n-1, 1-delta} for
    delta != 0 and e_{-n, 0} at delta = 0 (see `_reflected`)."""
    return _reflected(state, np.conj(state.coeffs[::-1]))


def parity(state: CircleState) -> CircleState:
    """Reflection: eigenvalues (n + delta) -> -(n + delta), same relabeling
    as time reversal but without conjugation."""
    return _reflected(state, state.coeffs[::-1].copy())

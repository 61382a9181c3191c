"""Special-function kernel.

Jacobi theta functions (kinds 2, 3, 4) evaluated after an SL(2, Z)
reduction of tau to the fundamental domain, a validated wrapper of scipy's
Bessel functions J_n of integer order and complex argument, a
Jacobi-elliptic evaluation suite, and the I1/I0 ratio functions that
control the circular minimal-uncertainty family.

Conventions: theta_3(zeta, q) = sum_n q^(n^2) exp(2 i n zeta) with nome
q = exp(i pi tau), Im(tau) > 0, and analogously for kinds 2 and 4.  All
fractional powers of the nome are taken through tau, so they are branch-free.

Theta's "auto" route walks tau into the fundamental domain in S and T,
exactly in integers, as Labrande ("Computing Jacobi's theta in quasi-linear
time", Math. Comp. 87, 2018) and FLINT's acb_modular_theta do: there
|q| <= exp(-pi sqrt(3)/2) = 0.066, so a handful of terms suffice however
close the given nome is to the unit circle.  The walk (`_reduce_tau`) is
the one rule of that route: a tau already in the domain keeps its direct
series, and on the imaginary axis S alone reaches Im tau' >= 1.  Every
move, S included, takes one rule: its large phases are cancelled exactly,
in integers, before anything is rounded (see `_theta_route`), so no
double-double arithmetic is needed, and its terms sum to at most 1.239
times the direct series' in absolute value, so it cancels no more than
the direct series does.  A move's lattice shift zeta -> c zeta - k pi,
theta's quasi-periodicity in zeta, reduces the argument on every move;
only the direct series reduces it by the period first.  The input alone
picks the lane: a number, and every derivative, sums in Python complex
arithmetic (`_theta_lane`), on any route; the values of an array sum their
series in `_theta_sum`, which picks plain terms or Horner's rule, except
under a move that leaves Im tau' above 16, which sums one square per term
(`_theta_squares`).  A value or derivative past double range raises
ValueError.
`theta(method="direct")` forces the series at the given tau: the
reference the modular route is checked against.

scipy.special is reached only through the cached accessor `_special`,
which imports it on the first Bessel, elliptic or I1/I0 ratio call (here
or in `mincs`): importing circleqm or its CLI loads no scipy, and theta
and the holomorphic family never do.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ThetaNome",
    "EllipticRecord",
    "GRatio",
    "theta",
    "theta_derivs",
    "bessel_j",
    "elliptic_suite",
    "g_ratio",
]

# Truncation margin in natural-log units: terms below exp(-_LOG_MARGIN) times
# the largest term cannot move the sum at double precision.
_LOG_MARGIN = 40.0
_MAX_TERMS = 200_000
# _theta_sum takes Horner's rule from this many (term, point) pairs on, for
# at most _HORNER_TERMS indices m >= 0; below it the plain series is faster
# (measured: equal at 16 points of 7 terms, 3-5x slower at 300).
_HORNER_WORK = 256
_HORNER_TERMS = 24
# Bound on the log magnitude of exp(offset) and of the powers of
# exp(+-2i zeta) on Horner's route.
_HORNER_MAX_LOG = 300.0
# Cap, in elements, on each temporary of the plain series (1 MiB complex).
_CHUNK = 1 << 16
# |Re zeta| / period from which theta refuses its argument.
_TURN_LIMIT = 2.0 ** 52


@dataclass(frozen=True)
class ThetaNome:
    """A nome held as its half-period ratio tau, q = exp(i pi tau).

    Requires a finite tau with Im tau >= 2^-1022, a normal double, so that
    Im gamma tau <= 1/Im tau is finite for every modular move gamma.  The
    nome is its tau: powers q^w are evaluated as exp(w * i*pi*tau), which
    fixes the branch of fractional powers, and tau keeps its bits where q
    underflows.  The library builds its nomes from tau; `from_q` is the one
    conversion from a nome value.
    """

    tau: complex

    def __init__(self, tau: complex):
        tau = complex(tau)
        if not (tau.imag >= 2.0 ** -1022 and cmath.isfinite(tau)):
            raise ValueError("Im(tau) must be at least 2^-1022, and Re(tau) "
                             "and Im(tau) finite")
        self.__dict__["tau"] = tau

    @classmethod
    def from_q(cls, q) -> "ThetaNome":
        """The nome of a value q, 0 < |q| < 1, through the principal log."""
        q = complex(q)
        if not 0.0 < abs(q) < 1.0:
            raise ValueError(f"the nome must be finite with 0 < |q| < 1, "
                             f"got {q}")
        return cls(cmath.log(q) / (1j * math.pi))

    @property
    def log_q(self) -> complex:
        """Principal log of the nome, i*pi*tau: finite even once q
        underflows to 0."""
        return 1j * math.pi * self.tau

    @property
    def q(self) -> complex:
        """The nome value exp(i pi tau); 0 once it underflows."""
        return cmath.exp(self.log_q)


def _extent(a: float, b: float) -> float:
    """Index b/a + sqrt(margin/a) past which |q|^(n^2) exp(2 n b) is
    negligible.

    a = -Re(log q) > 0, b = max |Im zeta|.  Terms peak at n ~ b/a with log
    magnitude b^2/a; everything beyond this extent is at least
    exp(-margin) below the peak.
    """
    return b / a + math.sqrt(_LOG_MARGIN / a)


def _n_cutoff(a: float, b: float) -> int:
    """Term count of the series: `_extent` rounded up, plus two.  Past the
    term budget, and for the non-finite b of a non-finite Im zeta,
    ValueError."""
    extent = _extent(a, b)
    if not extent <= _MAX_TERMS - 2:
        raise ValueError("theta series truncation exceeds term budget; "
                         "zeta not finite or nome too close to the unit "
                         "circle")
    return int(math.ceil(extent)) + 2


def _theta_sum(kind: int, zeta: np.ndarray, tau: complex, offset=0.0):
    """Series for exp(offset) * theta over an array of points.

    The terms are s_m exp(offset + m^2 lq + 2 i m zeta), lq = i pi tau, m
    over the integers (kinds 3, 4; s_m = (-1)^m for kind 4) or the
    half-integers (kind 2), |m| up to the `_n_cutoff` bound.  `offset`
    (scalar or shaped like zeta) is fused into the exponents, so a
    prefactor that decays as fast as the series grows never overflows
    separately from it: the modular route passes its Gaussian that way.

    The route is picked from the work, (term count) x (points), the term
    count taken as the nmax + 1 indices m >= 0:

    * below `_HORNER_WORK` and past `_HORNER_TERMS` terms, one exp per
      (signed term, point), the plain series (`_theta_terms`).  What tau
      leaves alone, the indices, their squares, 2i m and the signs, is the
      `_term_plan` of (kind, nmax); a call forms only m^2 lq, its phases
      reduced past `_HORNER_TERMS` (`_reduced_square_exponents`);
    * otherwise Horner's rule in w = exp(2i zeta) and 1/w (`_theta_horner`):
      two exps and O(terms) products a point.  It takes exp(offset) apart
      from the series, so it is used only while |Re offset| and the powers'
      log growth 2 (nmax + 1) max|Im zeta| stay below `_HORNER_MAX_LOG`.
    """
    z = zeta.reshape(-1)
    off = offset.reshape(-1) if isinstance(offset, np.ndarray) else offset
    lq = 1j * math.pi * tau
    a = -lq.real
    b = float(_peak(zeta.imag))
    nmax = _n_cutoff(a, b)
    if ((nmax + 1) * z.size >= _HORNER_WORK and nmax < _HORNER_TERMS
            and 2 * (nmax + 1) * b <= _HORNER_MAX_LOG
            and _peak(off.real) < _HORNER_MAX_LOG):
        # Horner's route needs no margin past the extent: nothing else is
        # summed there
        v = _theta_horner(kind, math.ceil(_extent(a, b)), z, off, lq)
    else:
        plan = (_term_plan if nmax <= _PLAN_TERMS
                else _term_plan.__wrapped__)(kind, nmax)
        sq = plan.m2 * lq
        if nmax >= _HORNER_TERMS and tau.real != 0.0:
            sq = _reduced_square_exponents(plan.m, sq, tau)
        v = _theta_terms(plan, sq, z, off)
    return v.reshape(zeta.shape)


def _peak(x):
    """max |x| over an array or scalar, 0 if it is empty."""
    return np.maximum.reduce(abs(x), axis=None, initial=0.0)


class _Plan(NamedTuple):
    """The tau-free arrays of the plain series at one kind and nmax, all
    read-only: the signed indices m, m^2 and 2i m as columns, and the
    signs s_m."""

    m: np.ndarray
    m2: np.ndarray
    two_im: np.ndarray
    sign: np.ndarray


# Plans are cached up to this nmax, so a long series never stays in
# memory: 3 kinds x 33 term counts of at most 6 KiB each.
_PLAN_TERMS = 32


@functools.lru_cache(maxsize=3 * (_PLAN_TERMS + 1))
def _term_plan(kind: int, nmax: int) -> _Plan:
    """The `_Plan` of m over -nmax..nmax, or the half-integers from
    -nmax - 1/2 to nmax + 1/2 for kind 2 (see `_theta_sum`)."""
    m = np.arange(-nmax - (0.5 if kind == 2 else 0.0), nmax + 1)
    s = (-1.0 if kind == 4 else 1.0) ** m
    # cast to complex once, as the series' products would on each call
    plan = _Plan(m, (m * m).astype(complex)[:, None], (2j * m)[:, None],
                 s.astype(complex))
    for x in plan:
        x.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=3 * (_PLAN_TERMS + 1))
def _lane_plan(kind: int, nmax: int) -> tuple:
    """The plan of the scalar lane, in Python numbers and the order of
    `_term_plan`: a row per signed index m, (m^2, 2i m, pi m, s_m,
    2i m s_m, -4 m^2 s_m).  Cached up to `_PLAN_TERMS`, as `_term_plan`
    is."""
    half = 0.5 if kind == 2 else 0.0
    ms = [i - nmax - half for i in range(2 * nmax + (2 if kind == 2 else 1))]
    signs = [(-1.0 if kind == 4 else 1.0) ** m for m in ms]
    return tuple((complex(m * m), 2j * m, math.pi * m, complex(s), 2j * m * s,
                  complex(-4.0 * m * m * s)) for m, s in zip(ms, signs))


def _reduced_square_exponents(m: np.ndarray, sq: np.ndarray,
                              tau: complex) -> np.ndarray:
    """The exponents sq = m^2 i pi tau, a column, with their phases
    m^2 pi Re tau reduced mod 2 pi before they are rounded.

    Past `_HORNER_TERMS` terms the phases reach far beyond 2 pi, and one
    rounding of the product moves them by up to ~4e-9 rad (m ~ 3000,
    |q| = 0.9999).  (2m)^2 is an integer below 2^38 and Re tau / 4 is
    taken in four pieces of at most 15 bits, so each product with (2m)^2
    and its remainder mod 2 are exact."""
    m4 = 4.0 * m * m
    rest = tau.real / 4.0
    turns = np.zeros(m.size)
    for _ in range(3):
        e = math.frexp(rest)[1]
        head = math.ldexp(math.floor(math.ldexp(rest, 14 - e)), e - 14)
        turns += np.fmod(m4 * head, 2.0)
        rest -= head
    turns += np.fmod(m4 * rest, 2.0)
    return sq.real + 1j * (math.pi * np.fmod(turns, 2.0))[:, None]


def _theta_terms(plan: _Plan, sq, z, off):
    """Plain route of `_theta_sum` (see there): one exp per (term, point)
    over the plan's signed indices, with exponents m^2 lq = sq (a column),
    the point axis split so that no temporary holds more than `_CHUNK`
    elements.  Flat like z."""
    chunk = max(1, _CHUNK // plan.m.size)
    if z.size > chunk:
        off = np.broadcast_to(off, z.shape)
        return np.concatenate([
            _theta_terms(plan, sq, z[i:i + chunk], off[i:i + chunk])
            for i in range(0, z.size, chunk)])
    # the dot method: the BLAS product of `@`, at half its call cost
    return plan.sign.dot(np.exp(sq + off + plan.two_im * z))


def _theta_horner(kind, nmax, z, off, lq):
    """Horner route of `_theta_sum` (see there), flat like z.

    With m = m0 + j <= nmax + m0, m0 = 0 (1/2 for kind 2), and
    h = exp(2i m0 zeta), w = exp(2i zeta), the series is exp(offset) *
    (h P(w) + P(1/w) / h), P(x) = sum_j c_j x^j, c_j = s_m exp(m^2 lq)
    (halved at m = 0, which is its own +- partner)."""
    half = 0.5 if kind == 2 else 0.0
    c = [cmath.exp((half + j) ** 2 * lq) for j in range(int(nmax - half) + 1)]
    if kind == 4:
        c[1::2] = [-cj for cj in c[1::2]]
    if kind != 2:
        c[0] = 0.5
    n = z.size
    # w and 1/w side by side, each written in place
    x = np.empty(2 * n, dtype=complex)
    if kind == 2:
        h = np.exp(1j * z)
        np.multiply(h, h, out=x[:n])
    else:
        np.exp(2j * z, out=x[:n])
    np.divide(1.0, x[:n], out=x[n:])
    p = c[-1] * x + c[-2] if len(c) > 1 else np.full(x.shape, c[0])
    for cj in c[-3::-1]:
        p *= x
        p += cj
    if kind == 2:
        return np.exp(off) * (h * p[:n] + p[n:] / h)
    return np.exp(off) * (p[:n] + p[n:])


# Under tau -> -1/tau kind 3 maps to itself and kinds 2 and 4 swap.
_MODULAR_PARTNER = {2: 4, 3: 3, 4: 2}
_S = (0, -1, 1, 0)  # tau -> -1/tau
# Largest Im tau' at which a move sums its series by `_theta_sum`, with the
# Gaussian fused into the exponents; past it each term is one square
# (`_theta_squares`).
_SEPARATE_IM = 16.0
# Largest c the reduction takes: its integer phases stay exact in doubles.
_MAX_C = 2 ** 25
# pi - math.pi, the tail of pi past the double
_PI_TAIL = 1.2246467991473532e-16


class _Modular(NamedTuple):
    """A move gamma = (a b; c d) in SL(2, Z), c >= 1, at one tau and kind:

        theta_kind(zeta | tau) = exp(i pi eighth/4) w^(-1/2)
            * exp(-i c zeta^2 / (pi w)) * theta_partner(zeta/w | tau_red),

    w = c tau + d, tau_red = gamma tau, w^(-1/2) on the principal branch
    (Im w > 0) and `eighth` an integer mod 8 that `_reduce_tau` counts.
    w, c w and tau_red are correctly rounded from the double tau.  The
    factors that depend on tau alone follow (`_move`): ct = 1/(i pi c w),
    pref = exp(i pi eighth/4) w^(-1/2), and pi/c as a 24-bit head and a
    tail (`_shifted`)."""

    gamma: tuple
    w: complex
    cw: complex
    tau: complex
    partner: int
    ct: complex
    pref: complex
    pi_head: float
    pi_tail: float


def _move(tau: complex, gamma: tuple, w: complex, cw: complex,
          tau_red: complex, partner: int, eighth: int) -> _Modular:
    """The `_Modular` record of gamma at tau, its factors formed once."""
    # (-i w)^(-1/2) = exp(i pi/4) w^(-1/2)
    pref = (-1j * w) ** (-0.5)
    if eighth != 1:
        pref = pref * cmath.exp(0.25j * math.pi * (eighth - 1))
    c = gamma[2]
    head = float(np.float32(math.pi / c))
    return _Modular(gamma, w, cw, tau_red, partner,
                    1.0 / (1j * math.pi * cw), pref, head,
                    (math.pi - c * head + _PI_TAIL) / c)


@functools.lru_cache(maxsize=256)
def _reduce_tau(tau: complex, kind: int) -> _Modular | None:
    """The move that takes tau into the fundamental domain, |Re tau'| <= 1/2
    and |tau'| >= 1, where |q'| <= exp(-pi sqrt(3)/2) = 0.066; None where
    a translation alone gets there, which leaves |q| as it is.

    The walk is exact.  tau = (X + iY)/M with integers X, Y and M a power
    of two, so M u and M v, u = a tau + b and v = c tau + d, have integer
    parts.  The walk subtracts from tau' = u/v the integer n nearest Re
    tau' (T^-n) and, while |u| < |v|, takes (u, v) to (-v, u) (S).  T^n
    turns theta_2 by exp(i pi n/4) and for odd n swaps theta_3 and
    theta_4; S swaps theta_2 and theta_4 and brings (-i tau')^(-1/2) =
    exp(i pi/4) |tau'|^(-1/2) exp(-i arg(tau')/2).  Each S turns v = M (c
    tau + d) counterclockwise by arg tau' in (0, pi), from v = M, so the
    args sum to arg v in [0, 2 pi) plus 2 pi for each S that passes the
    positive real axis, from Im v = c Y < 0 to Im u = a Y >= 0; against
    the principal w^(-1/2) that count and the sign of the last c fix
    `eighth`, in integers.  ValueError where c would pass 2^25 (Im tau
    below about 1e-15).

    A tau in the domain takes no S and gives None.  At Re tau = 0 below
    |tau| = 1 the walk is S alone, gamma = (0 -1; 1 0): w = c w = tau and
    tau' = i/Im tau correctly rounded, the same double as -1.0 / tau.

    The walk carries only |u|^2, |v|^2 and u.v, two big-integer products a
    step: T^-n takes them to |u|^2 - n (2 u.v - n |v|^2), |v|^2 and u.v -
    n |v|^2, and S to |v|^2, |u|^2 and -u.v.  v = c M tau + d M is formed
    once, from the last gamma."""
    x_num, x_den = tau.real.as_integer_ratio()
    y_num, y_den = tau.imag.as_integer_ratio()
    scale = max(x_den, y_den)
    x, y = x_num * (scale // x_den), y_num * (scale // y_den)
    im_uv = scale * y  # Im(u conj v) = M^2 Im tau, as det gamma = 1
    uu, vv, uv = x * x + y * y, scale * scale, x * scale
    a, b, c, d = 1, 0, 0, 1
    eighth = 0
    while True:
        n = (2 * uv + vv) // (2 * vv)
        if n:
            n_vv = n * vv
            uu -= n * (2 * uv - n_vv)
            uv -= n_vv
            a, b = a - n * c, b - n * d
            if kind == 2:
                eighth += n
            elif n % 2:
                kind = 7 - kind
        if uu >= vv:
            break
        # S brings exp(i pi/4); past the positive real axis also exp(-i pi)
        eighth += 5 if c < 0 <= a else 1
        uu, vv, uv = vv, uu, -uv
        a, b, c, d = -c, -d, a, b
        kind = _MODULAR_PARTNER[kind]
    if c == 0:
        return None
    if c < 0:
        a, b, c, d = -a, -b, -c, -d
        eighth += 6  # w = -v: arg w = arg v - pi, a factor exp(-i pi/2)
    if c > _MAX_C:
        raise ValueError("theta needs the modular move of a tau this close "
                         "to the real axis; nome too close to the unit circle")
    vx, vy = c * x + d * scale, c * y
    return _move(tau, (a, b, c, d), complex(vx / scale, vy / scale),
                 complex(c * vx / scale, c * vy / scale),
                 complex(uv / vv, im_uv / vv), kind, eighth % 8)


class _Nodes(NamedTuple):
    """The points zeta0 - pi j/size, j = 0..size-1, with pi j/size held
    exactly: half the kernel's quadrature angles -2 pi j/size, shifted.
    `np.ndim` reads their ndim, 1, with no conversion to an array."""

    size: int
    zeta0: complex = 0.0
    ndim = 1

    def points(self) -> np.ndarray:
        angles = np.arange(self.size) * (-2.0 * math.pi / self.size)
        return angles / 2.0 + self.zeta0


def _shifted(zeta, mod: _Modular):
    """k mod 2c, as int64 in [-2c, 2c), and s = c zeta - k pi, k = rint(c
    Re zeta / pi), for an array or `_Nodes`, c that of the move `mod`.

    Re s is within about an ulp of pi/2 of its exact value where |k| <
    2^29: pi/c is split into a 24-bit head, whose products with such k are
    exact, and a tail (`_Modular`), and c Re zeta - k pi = c ((Re zeta - k
    head) - k tail).  Past it k head rounds, by about an ulp of Re zeta,
    and past |k| = 2^52 the rounded c Re zeta / pi can miss the nearest
    integer, so |Re s| can pass pi/2 by some c ulps of Re zeta: either way
    the value is that at zeta moved by about an ulp.  k reaches about 2^52
    c below theta's turn limit, so it is taken mod 2c in floats, exactly,
    before its int64 cast.  The nodes' zeta0 takes
    that shift and their -c pi j/size the integer nearest -c j/size, so
    each point keeps its exact node."""
    c, head, tail = mod.gamma[2], mod.pi_head, mod.pi_tail
    if not isinstance(zeta, _Nodes):
        x = zeta.real
        k = np.rint(x * (c / math.pi))
        s = c * (x - k * head - k * tail) + 1j * (c * zeta.imag)
        return np.remainder(k, 2 * c).astype(np.int64), s
    x = zeta.zeta0.real
    # round() ties to even, as np.rint
    k0 = round(x * (c / math.pi))
    s0 = c * (x - k0 * head - k0 * tail)
    # c j, exact: arange forms start + j step
    cj = np.arange(0.0, c * zeta.size, c)
    kj = np.rint(cj / zeta.size)
    s = (cj - kj * zeta.size) * (-math.pi / zeta.size) + complex(
        s0, c * zeta.zeta0.imag)
    # rint(c j/size) <= c, so k stays within [-2c, 2c)
    return k0 % (2 * c) - kj.astype(np.int64), s


@np.errstate(all="ignore")
def _theta_route(kind: int, zeta, nome: ThetaNome, mod: _Modular | None,
                 offset):
    """The array lane of `_theta_dispatch`: exp(offset) * theta by the
    direct series (mod None), at tau reduced by its period (`_direct_tau`),
    or by the move `mod`: the short series at gamma tau, with `offset` and
    the Gaussian fused into its exponents, summed by `_theta_sum` (plain or
    Horner, by its own rule) wherever Im tau' <= `_SEPARATE_IM`, and as
    completed squares (`_theta_squares`) past it.  Every floating-point
    warning is off: out of range the series over- or underflows term by
    term, and the dispatch refuses the result whole.  The decorator sets
    the error state per call, so threads do not share it, and costs less
    than a `with` block.

    zeta is taken to s = c zeta - k pi, k pi/c the lattice point nearest Re
    zeta (`_shifted`).  As gamma tau + 1/(c w) = a/c, theta_partner's
    quasi-period in gamma tau then turns the large phases of the Gaussian
    into an integer one:

        theta_kind(zeta|tau) = exp(i pi eighth/4) w^(-1/2) exp(i pi p/c)
            * exp(-i s^2/(pi c w))
            * theta_partner(s/(c w) + pi (k a mod 2c)/c | gamma tau),

    p = (a k^2 + [partner = 4] c k) mod 2c.  |Re s| <= pi/2 and c w =
    1/(a/c - gamma tau), so the phases stay O(1) however small w is (the
    Gaussian's modulus and the series' terms can still each reach
    exp(+-pi Im tau'), see `_theta_squares`).  The value moves by c times
    any error in Re zeta, so s is formed from the double zeta itself, to
    within about an ulp, never from a rounded reduced argument, and
    `_Nodes` are taken at their exact nodes.  Under S, a = 0 and c = 1, so
    k a = 0 and p = k mod 2 for partner 4: theta_2's sign under zeta ->
    zeta + pi.

    A move cancels no more than the direct series does.  |pref| times the
    sum of the transformed terms' moduli, Gaussian included, is at most
    C = theta_3(0|i sqrt(3)/2) / theta_4(0|i) = 1.239 times the sum of
    the direct series' term moduli at the same zeta, because:

    1. over a continuous index both term moduli are Gaussians with the
       same peak, exp((Im zeta)^2 / (pi Im tau)) (the exponents agree
       identically);
    2. on the walk Im tau' >= sqrt(3)/2, so the transformed terms sum to
       at most theta_3(0|i Im tau') <= 1.132 times that peak, and |pref| =
       |w|^(-1/2) <= (c Im tau)^(-1/2);
    3. a move is taken only where Im tau < 1, and there, by Poisson
       summation, the direct terms sum to at least theta_4(0|i)
       (Im tau)^(-1/2) times the peak.
    """
    if mod is None:
        return _theta_sum(kind, zeta, _direct_tau(nome.tau, kind), offset)
    a, _, c, _ = mod.gamma
    k, s = _shifted(zeta, mod)
    # the integers j = k a and p = k j (+ c k) mod 2c, every product below
    # 2^53
    j = k * (a % (2 * c)) % (2 * c)
    p = k * (j + c if mod.partner == 4 else j) % (2 * c)
    u = s / mod.cw + (math.pi / c) * j
    off = offset + (1j * math.pi / c) * p
    if mod.tau.imag > _SEPARATE_IM:
        return _theta_squares(mod, s, u, j, off)
    # the Gaussian exp(ct s^2) is fused into the series' exponents: apart
    # they under- and overflow together once |Im u| grows
    return mod.pref * _theta_sum(mod.partner, u, mod.tau,
                                 offset=mod.ct * s * s + off)


def _theta_squares(mod: _Modular, s, u, j, off):
    """`_theta_route`'s move past Im tau' = `_SEPARATE_IM`: pref exp(off)
    exp(-i s^2/(pi c w)) theta_partner(u | gamma tau), u = s/(c w) + pi
    j/c.

    As gamma tau = a/c - 1/(c w), term m of the product is s_m exp(off -
    i (s - pi m)^2/(pi c w) + i pi (a m^2 + 2 m j)/c): one square and an
    integer phase, summed one exp per term and point, in chunks of
    `_CHUNK` elements, over the indices and signs of the partner's
    `_term_plan`.  Apart, the Gaussian and the term's m^2 lq and 2 i m u
    each reach about pi Im tau' and cancel to O(1) in the largest terms,
    which near a revival (Im tau' = 6e4 at eps omega t = 2 pi, eps omega
    eta = 1e-4) cost 8e-12; up to `_SEPARATE_IM` they stay below ~16 pi,
    and `_theta_sum` takes the series with the Gaussian in its offset."""
    a, c, partner = mod.gamma[0], mod.gamma[2], mod.partner
    shape = u.shape
    s, u, j, off = s.reshape(-1), u.reshape(-1), j.reshape(-1), off.reshape(-1)
    b = float(_peak(u.imag))
    # the extent, in the term budget
    n = _n_cutoff(math.pi * mod.tau.imag, b) - 2
    plan = (_term_plan if n <= _PLAN_TERMS
            else _term_plan.__wrapped__)(partner, n)
    if a != 0:
        twice = (2 * plan.m).astype(np.int64)
        # the phases' numerators a (2m)^2 + 4 (2m) j over 4c, exact mod
        # 8c; under S, a = 0 and so j = 0, and every phase is 0
        quad = (a % (8 * c)) * twice * twice % (8 * c)
    alpha = -1j / (math.pi * mod.cw)
    chunk = max(1, _CHUNK // plan.m.size)
    out = np.empty(u.size, dtype=complex)
    for i in range(0, u.size, chunk):
        part = slice(i, i + chunk)
        d = s[part] - math.pi * plan.m[:, None]
        expo = alpha * d ** 2
        if a != 0:
            num = (quad[:, None]
                   + 4 * np.multiply.outer(twice, j[part])) % (8 * c)
            expo = expo + (1j * math.pi / (4 * c)) * num
        out[part] = plan.sign.dot(np.exp(expo + off[part]))
    return mod.pref * out.reshape(shape)


def _theta_dispatch(kind: int, zeta, nome: ThetaNome, method: str,
                    want_derivs: bool, offset=0.0):
    """`theta` or `theta_derivs` times exp(offset), a scalar fused into the
    series' exponents (`_theta_sum`); zeta may be `_Nodes` for values.  The one owner
    of the route (`_reduce_tau` under "auto") and of the range refusal: a
    value or derivative that is not a finite double raises ValueError.

    The input alone picks the lane.  A number (a Python or NumPy scalar,
    or a 0-d array) runs in Python complex arithmetic from here to its sum,
    with no NumPy call, on whatever route the walk picks (`_theta_lane`):
    most calls take a scalar, and there NumPy's fixed cost per call
    outweighs the series.  Derivatives are taken of a number only: an
    array raises ValueError.  The values of an array or of `_Nodes` take
    the array lane, which keeps its own fixed cost low: each peak (of |Re
    zeta| / period here, of |Im zeta| in the series) is one reduction, the
    series runs under one floating-point state set per call
    (`_theta_route`), and what depends on tau alone comes cached, with the
    move (`_Modular`) or the terms' plan (`_term_plan`).  The lanes share the route and the lattice shift;
    their sums differ by rounding only."""
    if kind not in (2, 3, 4):
        raise ValueError(f"theta kind must be 2, 3 or 4, got {kind}")
    if not isinstance(nome, ThetaNome):
        nome = ThetaNome.from_q(nome)
    if method not in ("auto", "direct"):
        raise ValueError(f"unknown method {method!r}")
    mod = _reduce_tau(nome.tau, kind) if method == "auto" else None
    # theta_3 and theta_4 have period pi, theta_2 2 pi (theta_2(zeta + pi) =
    # -theta_2(zeta)); a reduced argument keeps every route's terms small
    period = 2.0 * math.pi if kind == 2 else math.pi
    if isinstance(zeta, (complex, float, int)) or np.ndim(zeta) == 0:
        return _theta_lane(kind, nome.tau, mod, period, want_derivs, offset,
                           complex(zeta))
    if want_derivs:
        raise ValueError("theta_derivs takes a number, not an array")
    nodes = isinstance(zeta, _Nodes)
    # the largest |Re zeta| / period, nan or inf past the range; the nodes
    # reach a period below zeta0.  `_n_cutoff` refuses a non-finite Im zeta
    if nodes:
        peak = abs(zeta.zeta0.real) / period + 1.0
    else:
        zeta = np.asarray(zeta, dtype=complex)
        turns = zeta.real / period
        peak = _peak(turns)
    if not peak < _TURN_LIMIT:
        raise ValueError(_TURN_REFUSAL)
    # a move's lattice shift reduces the argument itself (`_shifted`); the
    # direct series takes it reduced by its period
    if mod is None:
        if nodes:
            zeta = zeta.points()
            turns = zeta.real / period
        zeta = zeta - period * np.rint(turns)
    v = _theta_route(kind, zeta, nome, mod, offset)
    if not np.isfinite(v).all():
        raise ValueError(_RANGE_REFUSAL)
    return v


_TURN_REFUSAL = ("zeta must be finite, with |Re zeta| below 2^52 periods "
                 "(one ulp is a period or more there)")
_RANGE_REFUSAL = ("theta is not a finite double here: its value or a "
                  "derivative leaves double range")


def _theta_lane(kind: int, tau: complex, mod: _Modular | None,
                period: float, want_derivs: bool, offset, z: complex):
    """The scalar lane of `_theta_dispatch` (see there): theta at the number
    z, or its value and first two zeta-derivatives, on the direct route
    (mod None) or under the move `mod`.

    On the direct route z is first reduced by the period, as the array
    lane reduces it, and each term is exp(m^2 lq + offset + 2i m z).
    Under a move the lattice shift alone reduces z: it is taken to s = c z
    - k pi as `_shifted` takes it, k a Python integer, and with
    the integers j and p of `_theta_route` each term is one square, as
    `_theta_squares` forms it, at every Im tau': s_m exp(ct (s - pi m)^2 +
    offset + i pi p/c), ct = 1/(i pi c w), times the exact phase exp(i pi
    ((a (2m)^2 + 4 (2m) j) mod 8c)/(4c)) where a != 0.  Such a term carries
    its own zeta-derivatives, e = 2 c ct (s - pi m) and e^2 + 2 c^2 ct
    times the term: the chain rule through the Gaussian and the series
    apart cancelled from ~1/Im tau to the derivative's scale.  Past
    `_HORNER_TERMS` on the direct route the phases m^2 pi Re tau reach far
    beyond 2 pi, so each is reduced mod 2 pi exactly, in integers, before
    it is rounded: with Re tau = X/D, D a power of two, it is pi ((2m)^2 X
    mod 8D)/(4D).  An exact phase multiplies its term's weights
    (`_phased`), so the loop over the terms is the same on every route.

    The series is summed term by term with `cmath.exp`, over the rows of
    the `_lane_plan`: one exp per signed term, no BLAS `dot`, so the bits
    depend on no thread count.  An exponent past double range raises
    OverflowError in `cmath.exp`, refused here with the array lane's
    ValueError."""
    turns = z.real / period
    if not -_TURN_LIMIT < turns < _TURN_LIMIT:
        raise ValueError(_TURN_REFUSAL)
    # term m's exact phase, where wrap > 0: 2 pi ((qa 2m + qb) 2m mod
    # wrap)/wrap
    wrap = 0
    if mod is None:
        z -= period * round(turns)
        tau, u = _direct_tau(tau, kind), z
    else:
        a, _, c, _ = mod.gamma
        k = round(z.real * (c / math.pi))
        s = complex((z.real - mod.pi_head * k - mod.pi_tail * k) * c,
                    z.imag * c)
        j = k * a % (2 * c)
        p = k * (j + c if mod.partner == 4 else j) % (2 * c)
        if p:
            offset += (1j * math.pi / c) * p
        if a:
            qa, qb, wrap = a, 4 * j, 8 * c
        u, ct, pref = s / mod.cw, mod.ct, mod.pref
        if want_derivs:
            slope, curve = ct * (2 * c), ct * (2 * c * c)
        tau, kind = mod.tau, mod.partner
    lq = 1j * math.pi * tau
    # `_n_cutoff` refuses a non-finite Im u
    nmax = _n_cutoff(-lq.real, abs(u.imag))
    if mod is None and nmax >= _HORNER_TERMS and tau.real != 0.0:
        qa, den = tau.real.as_integer_ratio()
        qb, wrap = 0, 8 * den
        lq = complex(lq.real, 0.0)
    plan = (_lane_plan if nmax <= _PLAN_TERMS
            else _lane_plan.__wrapped__)(kind, nmax)
    if wrap:
        plan = _phased(plan, qa, qb, wrap)
    exp = cmath.exp
    g = g1 = g2 = 0j
    try:
        for m2, two_im, pi_m, sign, w1, w2 in plan:
            if mod is None:
                t = exp(m2 * lq + offset + two_im * u)
            else:
                d = s - pi_m
                t = exp(ct * (d * d) + offset)
                if want_derivs:
                    e = slope * d
                    w1, w2 = sign * e, sign * (e * e + curve)
            g += sign * t
            if want_derivs:
                g1 += w1 * t
                g2 += w2 * t
        if mod is not None:
            g, g1, g2 = pref * g, pref * g1, pref * g2
        out = (g, g1, g2) if want_derivs else (g,)
        if not all(map(cmath.isfinite, out)):
            raise OverflowError  # a sum past range, as an exponent
    except OverflowError:
        raise ValueError(_RANGE_REFUSAL) from None
    return out if want_derivs else g


def _phased(plan, qa: int, qb: int, wrap: int) -> list:
    """The rows of a `_lane_plan`, each weight s_m, 2i m s_m and -4 m^2 s_m
    times its term's exact phase exp(2 pi i ((qa 2m + qb) 2m mod wrap) /
    wrap), 2m = Im 2i m."""
    turns = [cmath.exp(2j * math.pi * ((qa * m + qb) * m % wrap / wrap))
             for m in (int(row[1].imag) for row in plan)]
    return [(m2, two_im, pi_m, sign * t, w1 * t, w2 * t)
            for (m2, two_im, pi_m, sign, w1, w2), t in zip(plan, turns)]


def _direct_tau(tau: complex, kind: int) -> complex:
    """tau reduced, exactly, by theta's period in tau, 2 (8 for kind 2), so
    that the direct series' m^2 pi Re tau is not rounded at large |Re tau|;
    a tau within half a period keeps its bits."""
    half = 4.0 if kind == 2 else 1.0
    if not -half <= tau.real <= half:
        tau = complex(math.remainder(tau.real, 2.0 * half), tau.imag)
    return tau


def theta(kind: int, zeta, nome, method: str = "auto"):
    """Jacobi theta function of the given kind (2, 3 or 4).

    Parameters
    ----------
    kind : int
        2, 3 or 4.
    zeta : complex or ndarray
        Argument(s), finite, with |Re zeta| below 2^52 periods (else
        ValueError).  The direct series first reduces Re zeta by the
        period, pi (2 pi for kind 2: theta_2(zeta + pi) = -theta_2(zeta)),
        in double precision: the value is that at an argument moved by up
        to ~2e-16 |Re zeta|; one within half a period keeps its bits.  The
        reduced route below reduces the double zeta itself on every move,
        by its lattice shift: exactly while c |Re zeta| < pi 2^29, and to
        about an ulp of Re zeta past that.
    nome : ThetaNome or complex
        The nome, held as its tau; a bare complex q, |q| < 1, is wrapped
        by `ThetaNome.from_q` (the principal log).
    method : {"auto", "direct"}
        "auto" reduces tau to the fundamental domain |Re tau'| <= 1/2,
        |tau'| >= 1, where |q'| <= 0.066 and a few terms suffice: a walk
        in S (tau -> -1/tau) and T (tau -> tau + 1), exact in integers,
        yields gamma = (a b; c d) in SL(2, Z), and theta is evaluated as
        an eighth root of unity times w^(-1/2) exp(-i c zeta^2/(pi w))
        theta'(zeta/w | gamma tau), w = c tau + d correctly rounded from
        the double tau and zeta first moved to the lattice point k pi/c
        nearest it (see `_theta_route`).  Against sums to 40 digits and
        more at the same double (zeta, tau), on the propagator kernel's
        arguments, this is within 4.0e-15 of max|theta| for eps omega eta
        in [5e-5, 2e-2] (60 random draws of three points) and 3.2e-15
        down to 1e-8 (8 draws).  The walk alone picks the move: for a tau
        already in the domain, or one a translation takes there, it leaves
        the direct series, and at Re tau = 0 below Im tau = 1 it is S
        alone, the tau -> -1/tau series.  "direct" forces the series at
        tau, the reference the modular route is checked against.  The
        direct series is summed at Re tau reduced, exactly, by theta's
        period in tau, 2 (8 for kind 2), so a large |Re tau| costs no
        precision.  Any other method raises ValueError.

    A number is summed in Python complex arithmetic, on every route, with
    no NumPy call and no BLAS `dot`; an array is summed over NumPy arrays.
    The two lanes agree to rounding: within 4 u (1 + E) of the function's
    scale, E the size of the largest exponent that counts (a hypothesis
    test).  A number stays within 8 u (1 + kappa) of the sum of the direct
    series' term moduli, kappa the condition number of the point in zeta
    and tau, and so does an array, except on its fused series of a move,
    Im tau' <= 16, where it stays within 32 u (1 + kappa) (a hypothesis
    test against 40-digit values, Im tau from 1e-13 to 1e3).

    Returns
    -------
    complex or ndarray
        Finite doubles: a value past double range raises ValueError.
    """
    return _theta_dispatch(kind, zeta, nome, method, False)


def theta_derivs(kind: int, zeta, nome):
    """Theta value and first two derivatives with respect to zeta.

    The term-wise differentiated series on the "auto" route of `theta`,
    summed in Python complex arithmetic: on the direct series each term
    times 2i m and -4 m^2, under a move each completed square times its
    own zeta-derivatives (`_theta_lane`).  zeta is a number (a Python or
    NumPy scalar, or a 0-d array); an array raises ValueError.  Returns
    (value, d/dzeta, d2/dzeta2); ValueError where one of them is not a
    finite double.
    """
    return _theta_dispatch(kind, zeta, nome, "auto", True)


# ---------------------------------------------------------------------------
# Bessel functions (scipy's Amos routines, validated)


@functools.cache
def _special():
    """scipy.special, imported on the first call: its import is about half
    the start-up of `import circleqm.cli`.  A cached call costs about 65 ns
    more than a module global, where an import statement in the function
    body would cost about 0.8 us more."""
    from scipy import special
    return special


def _bessel_half_width(z: complex, tol: float) -> int:
    """Half-width h of the order window k = -h..h of J_k(z): the one rule
    that sizes every Bessel window in the package.

    h is the smallest order whose discarded tail 2 sum_{k>h} |J_k(z)|^2
    (|J_-k| = |J_k|) is bounded by tol I0(2s), s = |Im z|.  As sum_k
    |J_k(z)|^2 = I0(2s), the window then drops at most tol of that sum.  Two
    bounds on |J_k(z)| size the tail, and h is the smaller of their
    half-widths:

    * DLMF 10.14.4, |J_k(z)| <= b_k = a^k e^s / k!, a = |z|/2.  From the
      order max(0, floor(a) - 1) on, b_{k+1}^2 / b_k^2 = (a/(k+1))^2 is
      below 1 and falls, so the tail is at most 2 b_{h+1}^2 / (1 - r),
      r = (a/(h+2))^2.  Tight where |Re z| dominates: it is the only bound
      that counts for a real argument.
    * |J_k(z)| <= I_k(x), x = |z|, term by term from the power series.
      Amos (Math. Comp. 28, 1974) bounds the ratio I_{j+1}(x)/I_j(x) by
      R_j = x / (j + 1/2 + sqrt((j + 1/2)^2 + x^2)) = exp(-g(j + 1/2)),
      g(t) = asinh(t/x), falling in j.  Hence the tail is at most
      2 I_{h+1}(x)^2 / (1 - R_{h+1}^2), and as g is concave its midpoint
      values exceed its cell means, so log(I_{h+1}(x)/I0(x)) <= -sum_{j<=h}
      g(j + 1/2) <= -F(h+1), F(v) = v g(v) - sqrt(v^2 + x^2) + x.  Tight
      where |Im z| dominates: there I_k(x) falls like a Gaussian of width
      sqrt(x), whereas b_k passes below tol only far beyond it.

    Each test is made in logs, where e^{2s} cancels against I0(2s) = e^{2s}
    i0e(2s) and I0(x) = e^x i0e(x).  Both are monotone in h: h is found by
    bisection for the DLMF bound (about log2(e^2 a) steps), then, only if
    the I_k bound already holds one order lower, by bisection below it.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("a Bessel window needs a finite argument")
    x = abs(z)
    a = 0.5 * x
    if a == 0.0:
        return 0
    s = abs(z.imag)
    log_a = math.log(a)
    log_floor = math.log(0.5 * tol * _special().i0e(2.0 * s))
    # the two bisections are written out: closures cost a call a step
    lo = max(0, math.floor(a) - 1)
    # upper end: by Stirling, k! > (k/e)^k, so at k = h + 1 >= e^2 a the
    # scaled term a^k / k! is below e^{-k} and r < 1/2; the test holds
    # once also 2k >= log 2 - log_floor
    hi = max(lo, math.ceil(math.e ** 2 * a),
             math.ceil(0.5 * (math.log(2.0) - log_floor)))
    while lo < hi:  # is the DLMF bound's window too wide at h = mid?
        mid = (lo + hi) // 2
        k = mid + 1
        if (2.0 * (k * log_a - math.lgamma(k + 1.0))
                - math.log1p(-(a / (k + 1)) ** 2) > log_floor):
            lo = mid + 1
        else:
            hi = mid
    if lo == 0:
        return 0
    # log(I0(x) / e^s), with x - s formed without cancellation
    log_i0 = z.real * z.real / (x + s) + math.log(_special().i0e(x))
    # h - 1 is tested first, then [0, h - 1] bisected if the I_k bound
    # holds there
    hi, lo, mid = lo, 0, lo - 1
    while lo < hi:  # is the I_k bound's window too wide at h = mid?
        v = mid + 1.0
        # F(v), with sqrt(v^2 + x^2) - x written as v^2 / (hypot + x)
        f = v * math.asinh(v / x) - v * v / (math.hypot(v, x) + x)
        if (2.0 * (log_i0 - f)
                - math.log(-math.expm1(-2.0 * math.asinh((v + 0.5) / x)))
                > log_floor):
            lo = mid + 1
        else:
            hi = mid
        mid = (lo + hi) // 2
    return lo


def bessel_j(n, z):
    """Bessel function J_n(z), integer order, complex argument.

    scipy's `jv` (Amos, ACM TOMS 644).  n may be an integer or an array of
    integers; the result is a complex scalar or an array shaped like n.
    Raises ValueError where a value is not a finite double (|Im z| beyond
    about 709 overflows).
    """
    order = np.asarray(n, dtype=float)
    if not np.isfinite(order).all() or (order % 1.0).any():
        raise ValueError("bessel_j takes an integer order")
    val = _jv(order, z)
    return complex(val) if order.ndim == 0 else val


def _jv(order: np.ndarray, z) -> np.ndarray:
    """`bessel_j` at float orders known to be integers: the argument and
    value checks without the order checks."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("bessel_j requires a finite argument")
    val = _special().jv(order, z)
    if not np.isfinite(val).all():
        raise ValueError(f"J_n(z) at z = {z} is not a finite double")
    return val


def _bessel_window(z: complex, half: int) -> np.ndarray:
    """J_k(z) for the orders k = -half..half from one `bessel_j` call over
    0..half (`_jv`: its own integer orders need no check), the negative
    orders mirrored by J_{-k}(z) = (-1)^k J_k(z) (DLMF 10.4.1).  scipy's
    `jv` reflects a negative integer order by the same negation, so the
    values are those of `bessel_j` over the whole window."""
    out = np.empty(2 * half + 1, dtype=complex)
    out[half:] = _jv(np.arange(half + 1.0), z)
    out[:half] = out[:half:-1]
    odd = out[(half + 1) % 2:half:2]
    np.negative(odd, out=odd)
    return out


# ---------------------------------------------------------------------------
# Elliptic suite


@dataclass(frozen=True)
class EllipticRecord:
    """Jacobi elliptic data attached to a real nome and real argument.

    sn, cn, dn are evaluated by scipy's Landen/AGM machinery and are therefore
    independent of the theta series above -- the theta-ratio identities
    relating the two routes make genuine cross-checks.  Z is Jacobi's Zeta,
    E_u the incomplete second integral int_0^u dn^2, K and E the complete
    integrals, u = (2K/pi) * zeta.
    """

    sn: float
    cn: float
    dn: float
    Z: float
    k: float
    kprime: float
    K: float
    E: float
    u: float


def elliptic_suite(zeta: float, nome: ThetaNome) -> EllipticRecord:
    """Evaluate the elliptic-function record for real zeta and real nome.

    The moduli come from the theta null values, k = theta2^2/theta3^2 (0, q)
    and k' = theta4^2/theta3^2 (0, q), with 2K/pi = theta3^2(0, q); E_u is
    the incomplete integral E(am(u), m) at the amplitude am(u) = ph that
    `ellipj` returns (DLMF 22.16.14).
    """
    if not isinstance(nome, ThetaNome):
        nome = ThetaNome.from_q(nome)
    q = nome.q
    if abs(q.imag) > 1e-14 or not (0.0 < q.real < 1.0):
        raise ValueError("elliptic_suite requires a real nome in (0, 1)")
    u_zeta = float(zeta)

    t2 = theta(2, 0.0, nome).real
    t3 = theta(3, 0.0, nome).real
    t4 = theta(4, 0.0, nome).real
    k = (t2 / t3) ** 2
    kprime = (t4 / t3) ** 2
    K = 0.5 * math.pi * t3 * t3
    u = t3 * t3 * u_zeta
    m = k * k

    special = _special()
    sn, cn, dn, ph = special.ellipj(u, m)
    E = float(special.ellipe(m))
    E_u = float(special.ellipeinc(ph, m))
    Z = E_u - u * E / K
    return EllipticRecord(sn=float(sn), cn=float(cn), dn=float(dn), Z=Z,
                          k=k, kprime=kprime, K=K, E=E, u=u)


# ---------------------------------------------------------------------------
# I1/I0 ratio functions


@dataclass(frozen=True)
class GRatio:
    """r1 = I1(x)/I0(x), r2 = I1(x)/(x I0(x)), g = 1 - r1^2 - r2; floats
    for a scalar x, arrays shaped like x otherwise."""

    r1: float
    r2: float
    g: float


def g_ratio(x) -> GRatio:
    """Ratio functions of the modified Bessel pair I1, I0, for a scalar or
    an array x.

    r1 = i1e(x)/i0e(x): the exponentially scaled pair shares its
    prefactor, so the ratios never overflow.  Below |x| = 1e-8, r1 = x/2
    and r2 = 1/2 to double precision (the next terms are x^2/16 relative),
    which keeps r2 exact at x = 0 and at subnormal x.  r2 lies in (0, 1/2]
    for every finite x and g is even with g(x) -> 1/(2 x^2) as
    |x| -> infinity.  An array gives the bits of the scalar calls.
    """
    if not isinstance(x, (float, int)) and np.ndim(x):
        return _g_ratio_array(np.asarray(x, dtype=float))
    # the scalar route stays in floats: np.where on a 0-d array costs about
    # ten times the whole scalar call
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("g_ratio requires a finite argument")
    if abs(x) < 1e-8:
        r1, r2 = 0.5 * x, 0.5
    else:
        special = _special()
        r1 = float(special.i1e(x) / special.i0e(x))
        r2 = r1 / x
    return GRatio(r1=r1, r2=r2, g=1.0 - r1 * r1 - r2)


def _g_ratio_array(x: np.ndarray) -> GRatio:
    """`g_ratio` elementwise, the |x| < 1e-8 branch through np.where."""
    if not np.isfinite(x).all():
        raise ValueError("g_ratio requires a finite argument")
    tiny = np.abs(x) < 1e-8
    special = _special()
    r1 = np.where(tiny, 0.5 * x, special.i1e(x) / special.i0e(x))
    r2 = np.where(tiny, 0.5, r1 / np.where(tiny, 1.0, x))
    return GRatio(r1=r1, r2=r2, g=1.0 - r1 * r1 - r2)

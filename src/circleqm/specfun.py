"""Special-function kernel.

Jacobi theta functions (kinds 2, 3, 4) with automatic modular acceleration,
validated wrappers of scipy's modified Bessel functions I_nu of real order
and Bessel functions J_n of integer order and complex argument, a
Jacobi-elliptic evaluation suite, and the I1/I0 ratio functions that control
the circular minimal-uncertainty family.

Conventions: theta_3(zeta, q) = sum_n q^(n^2) exp(2 i n zeta) with nome
q = exp(i pi tau), Im(tau) > 0, and analogously for kinds 2 and 4.  All
fractional powers of the nome are taken through tau, so they are branch-free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "ThetaNome",
    "EllipticRecord",
    "GRatio",
    "theta",
    "theta_derivs",
    "bessel_i",
    "bessel_j",
    "elliptic_suite",
    "g_ratio",
]

# Truncation margin in natural-log units: terms below exp(-_LOG_MARGIN) times
# the largest term cannot move the sum at double precision.
_LOG_MARGIN = 40.0
_MAX_TERMS = 200_000
# _theta_sum takes the blocked route from this many (term, point) pairs on;
# below it the blocked route's fixed set-up costs more than the exps it
# saves (measured crossover: 800-1,100 pairs for 10 to 636 terms).
_BLOCK_WORK = 1024
# Cap, in elements, on each temporary of the blocked route (1 MiB complex).
_BLOCK_CHUNK = 1 << 16
# Bound on the log magnitude of the blocked route's powers of exp(+-2i zeta).
_BLOCK_MAX_GROWTH = 300.0
# |Re zeta| / period from which theta refuses its argument.
_TURN_LIMIT = 2.0 ** 52


@dataclass(frozen=True)
class ThetaNome:
    """A nome held as its half-period ratio tau, q = exp(i pi tau).

    Requires Im tau > 0 and a finite Re tau; tau = i inf stands for q = 0.
    The nome is its tau: powers q^w are evaluated as exp(w * i*pi*tau),
    which fixes the branch of fractional powers, and tau keeps its bits
    where q underflows.  The library builds its nomes from tau; `from_q`
    is the one conversion from a nome value.
    """

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        if not (tau.imag > 0.0 and math.isfinite(tau.real)):
            raise ValueError("Im(tau) must be positive and Re(tau) finite")
        object.__setattr__(self, "tau", tau)

    @classmethod
    def from_q(cls, q) -> "ThetaNome":
        """The nome of a value q, |q| < 1, through the principal log."""
        q = complex(q)
        if not abs(q) < 1.0:
            raise ValueError(f"the nome must be finite with |q| < 1, got {q}")
        if q == 0:
            return cls(complex(0.0, math.inf))
        return cls(cmath.log(q) / (1j * math.pi))

    @property
    def log_q(self) -> complex:
        """Principal log of the nome, i*pi*tau: finite wherever tau is, even
        once q underflows to 0; -inf only at tau = i inf (`from_q(0)`)."""
        if math.isinf(self.tau.imag):
            return complex(-math.inf, 0.0)
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
    """Term count of the series: `_extent` rounded up, plus two."""
    n = int(math.ceil(_extent(a, b))) + 2
    if n > _MAX_TERMS:
        raise ValueError("theta series truncation exceeds term budget; "
                         "nome too close to the unit circle")
    return n


def _theta_sum(kind: int, zeta: np.ndarray, lq: complex, want_derivs: bool,
               offset=0.0):
    """Series for exp(offset) * theta and (optionally) its first two
    zeta-derivatives, which always take the plain series.

    The terms are s_m exp(offset + m^2 lq + 2 i m zeta), m over the
    integers (kinds 3, 4; s_m = (-1)^m for kind 4) or the half-integers
    (kind 2), |m| up to the `_n_cutoff` bound.  `offset` (scalar or shaped
    like zeta) is fused into the exponents, so a prefactor that decays as
    fast as the series grows never overflows separately from it.

    The route is picked from the work, (term count) x (points), the term
    count taken as the nmax + 1 indices m >= 0:

    * below `_BLOCK_WORK` (every scalar call, and small arrays), and for
      the derivatives, one exp per (signed term, point), the plain series
      (`_theta_terms`);
    * from `_BLOCK_WORK` on, the terms m >= 0 go in blocks of R ~ sqrt(terms)
      consecutive indices, m = m_first + R b + k (see `_theta_blocks`),
      each with its partner -m.
      With w = exp(+-2i zeta), each term is
      exp(offset + m_first^2 lq +- 2i m_first zeta) * c_m * w^(R b) * w^k,
      c_m = s_m exp((m^2 - m_first^2) lq) a scalar with |c_m| <= 1, so the
      sum over k is one (block x k) @ (k x point) matmul and each point and
      sign costs two exps and O(R) products instead of O(terms) exps.  The
      powers of w grow to at most exp(4 (nmax + 1) b), b = max |Im zeta|;
      past `_BLOCK_MAX_GROWTH` the plain series is used instead.  A result
      below about exp(-745 + _BLOCK_MAX_GROWTH) can flush to zero on this
      route.  The point axis is chunked so that no temporary holds more
      than `_BLOCK_CHUNK` elements.
    """
    z = zeta.reshape(-1)
    off = offset.reshape(-1) if isinstance(offset, np.ndarray) else offset

    if lq.real == -math.inf:  # tau = i inf: only the leading term survives
        v = np.zeros(zeta.shape, dtype=complex)
        if kind in (3, 4):
            v += np.exp(offset)
        if want_derivs:
            return v, np.zeros_like(v), np.zeros_like(v)
        return v, None, None

    a = -lq.real
    b = float(abs(z.imag).max()) if z.size else 0.0
    nmax = _n_cutoff(a, b)
    half = 0.5 if kind == 2 else 0.0
    if (want_derivs or (nmax + 1) * z.size < _BLOCK_WORK
            or 4 * (nmax + 1) * b > _BLOCK_MAX_GROWTH):
        sums = _theta_terms(kind, np.arange(-nmax - half, nmax + 1), z, off,
                            lq, want_derivs)
    else:
        m = np.arange(half, nmax + 1)
        s = np.ones(nmax + 1)
        if kind == 4:
            s[1::2] = -1.0
        if kind != 2:
            s[0] = 0.5  # m = 0 is its own +- partner
        sums = [_theta_blocks(m, s, z, off, lq)]
    if want_derivs:
        return tuple(x.reshape(zeta.shape) for x in sums)
    return sums[0].reshape(zeta.shape), None, None


def _theta_terms(kind, m, z, off, lq, want_derivs):
    """Plain route of `_theta_sum` (see there): one exp per (term, point)
    over the signed indices m, the point axis split so that no temporary
    holds more than `_BLOCK_CHUNK` elements.  Returns [value] or [value,
    d1, d2], each flat like z."""
    chunk = max(1, _BLOCK_CHUNK // m.size)
    if z.size > chunk:
        off = np.broadcast_to(off, z.shape)
        parts = [_theta_terms(kind, m, z[i:i + chunk], off[i:i + chunk], lq,
                              want_derivs) for i in range(0, z.size, chunk)]
        return [np.concatenate(col) for col in zip(*parts)]
    s = (-1.0 if kind == 4 else 1.0) ** m
    terms = np.exp((m * m * lq)[:, None] + off + 2j * np.multiply.outer(m, z))
    if not want_derivs:
        return [s @ terms]
    return [s @ terms, (2j * m * s) @ terms, (-4.0 * m * m * s) @ terms]


def _powers(w: np.ndarray, n: int) -> np.ndarray:
    """Rows w^0, ..., w^(n-1), by doubling: about log2(n) array products."""
    out = np.empty((n, w.size), dtype=complex)
    out[0] = 1.0
    filled, step = 1, w
    while filled < n:
        take = min(filled, n - filled)
        np.multiply(out[:take], step, out=out[filled:filled + take])
        filled += take
        step = step * step
    return out


def _theta_blocks(m, s, z, off, lq):
    """Blocked route of `_theta_sum` (see there): sum_m s_m exp(off + m^2 lq
    +- 2 i m z) as a baby-step/giant-step polynomial in w = exp(+-2i z),
    flat like z."""
    n_terms = m.size
    r = math.isqrt(n_terms - 1) + 1  # ceil(sqrt(n_terms))
    nb = -(-n_terms // r)
    mm = m[0] + np.arange(nb * r, dtype=float).reshape(nb, r)
    sw = np.zeros(nb * r)
    sw[:n_terms] = s
    table = sw.reshape(nb, r) * np.exp((mm * mm - m[0] * m[0]) * lq)

    off = np.broadcast_to(off, z.shape)
    out = np.empty(z.size, dtype=complex)
    chunk = max(1, _BLOCK_CHUNK // (2 * max(nb, r)))
    for start in range(0, z.size, chunk):
        stop = min(start + chunk, z.size)
        c = stop - start
        iz = 2j * z[start:stop]
        iz = np.concatenate([iz, -iz])            # + and - terms side by side
        head = np.exp(np.tile(off[start:stop], 2) + m[0] * m[0] * lq
                      + m[0] * iz)
        baby = _powers(np.exp(iz), r)             # w^k
        giant = _powers(baby[-1] * baby[1], nb)   # w^(r b)
        both = head * np.einsum("ij,ij->j", giant, table @ baby)
        out[start:stop] = both[:c] + both[c:]
    return out


# Under tau -> -1/tau kind 3 maps to itself and kinds 2 and 4 swap.
_MODULAR_PARTNER = {2: 4, 3: 3, 4: 2}
# Most the transformed sum may cancel, in natural-log units: its rounding
# error is ~1e-16 of its largest term, kept below ~1e-10 of the value.
_LOG_MAX_CANCEL = math.log(1e6)


def _log_peak(kind: int, lq: complex, b: np.ndarray) -> np.ndarray:
    """Log of the largest |exp(m^2 lq + 2 m b)| over the series' indices m
    (integers, half-integers for kind 2), b >= 0: m nearest b/a,
    a = -Re(lq).  At most b^2/a, the peak `_n_cutoff` sizes the sum by."""
    a = -lq.real
    half = 0.5 if kind == 2 else 0.0
    m = np.floor(b / a - half + 0.5) + half
    return m * (2.0 * b - a * m)


def _theta_transformed(kind: int, zeta: np.ndarray, nome: ThetaNome,
                       want_derivs: bool, offset):
    """Modular-transformed evaluation of exp(offset) * theta: small-nome
    series at -1/tau, `offset` fused into its exponents as in `_theta_sum`.

    theta_k(zeta|tau) = (-i tau)^(-1/2) exp(zeta^2/(i pi tau))
                        * theta_k'(zeta/tau | -1/tau).

    Large Im tau with large Im zeta make the transformed terms, Gaussian
    included, exceed the value by many orders: theta_3(25 pi i | 50 i)
    came out 132.6 for 2.  Such points raise ValueError: those where the
    largest transformed term exceeds 1e6 times both |value| and the largest
    term of the direct series, the function's own scale (exceeding |value|
    alone also happens where the value is small against that scale, near a
    zero, and the direct series cancels as much there).  That takes Im tau
    above about 19.5 (or |tau| below 1e-12); below it nothing is tested.
    """
    tau = nome.tau
    tau2 = -1.0 / tau
    lq2 = 1j * math.pi * tau2
    w = zeta / tau
    c = 1.0 / (1j * math.pi * tau)
    # the Gaussian exp(c zeta^2) is fused into the series' exponents: apart
    # they under- and overflow together once |Im w| grows
    gauss = c * zeta * zeta
    partner = _MODULAR_PARTNER[kind]
    g, g1, g2 = _theta_sum(partner, w, lq2, want_derivs, offset=gauss + offset)
    pref = (-1j * tau) ** (-0.5)
    # Over a continuous index both series peak at (Im zeta)^2 / (pi Im tau)
    # in log (the exponents agree identically); the direct series' index
    # lattice lowers its peak by at most pi Im tau / 4.  So only there can
    # the transformed terms outgrow the direct ones by 1e6.
    if math.pi * tau.imag / 4.0 - 0.5 * math.log(abs(tau)) > _LOG_MAX_CANCEL:
        with np.errstate(divide="ignore"):
            log_value = np.log(np.abs(g)) - offset.real
        # logs relative to |pref| exp(offset), which scales the value and
        # terms alike
        scale = np.maximum(log_value,
                           _log_peak(kind, nome.log_q, np.abs(zeta.imag))
                           + 0.5 * math.log(abs(tau)))
        largest = gauss.real + _log_peak(partner, lq2, np.abs(w.imag))
        if np.any(largest - scale > _LOG_MAX_CANCEL):
            raise ValueError("the transformed theta series cancels by more "
                             "than 1e6 here; use method='direct'")
    v = pref * g
    if not want_derivs:
        return v, None, None
    d1 = pref * (2.0 * c * zeta * g + g1 / tau)
    d2 = pref * ((2.0 * c + 4.0 * c * c * zeta * zeta) * g
                 + 4.0 * c * zeta * g1 / tau + g2 / tau / tau)
    return v, d1, d2


def _theta_dispatch(kind: int, zeta, nome: ThetaNome, method: str,
                    want_derivs: bool, offset=0.0):
    """`theta` or `theta_derivs` times exp(offset), a scalar fused into the
    series' exponents (`_theta_sum`)."""
    if kind not in (2, 3, 4):
        raise ValueError(f"theta kind must be 2, 3 or 4, got {kind}")
    if not isinstance(nome, ThetaNome):
        nome = ThetaNome.from_q(nome)
    z = np.asarray(zeta, dtype=complex)
    # theta_3 and theta_4 have period pi, theta_2 2 pi (theta_2(zeta + pi) =
    # -theta_2(zeta)); a reduced argument keeps every route's terms small
    period = 2.0 * math.pi if kind == 2 else math.pi
    turns = z.real / period
    # one .all() and abs(): np.all, np.abs and each .all() cost microseconds
    # on a scalar
    if not (np.isfinite(z.imag) & (abs(turns) < _TURN_LIMIT)).all():
        raise ValueError("zeta must be finite, with |Re zeta| below 2^52 "
                         "periods (one ulp is a period or more there)")
    z = z - period * np.rint(turns)

    if method == "auto":
        # |tau| < 1 is |q(-1/tau)| < |q|, which also puts |q| above exp(-pi)
        method = "transform" if abs(nome.tau) < 1.0 else "direct"
    if method == "transform":
        # only tau = i inf (`from_q(0)`) has no -1/tau; an underflowed q
        # with a finite tau transforms like any other
        if math.isinf(nome.tau.imag):
            raise ValueError("modular transform undefined at tau = i inf")
        v, d1, d2 = _theta_transformed(kind, z, nome, want_derivs, offset)
    elif method == "direct":
        v, d1, d2 = _theta_sum(kind, z, nome.log_q, want_derivs, offset)
    else:
        raise ValueError(f"unknown method {method!r}")

    if z.ndim == 0:
        v = complex(v)
        if want_derivs:
            return v, complex(d1), complex(d2)
        return v
    if want_derivs:
        return v, d1, d2
    return v


def theta(kind: int, zeta, nome, method: str = "auto"):
    """Jacobi theta function of the given kind (2, 3 or 4).

    Parameters
    ----------
    kind : int
        2, 3 or 4.
    zeta : complex or ndarray
        Argument(s), finite, with |Re zeta| below 2^52 periods (else
        ValueError).  Re zeta is first reduced by the period, pi (2 pi for
        kind 2: theta_2(zeta + pi) = -theta_2(zeta)), in double precision:
        the value is that at an argument moved by up to ~2e-16 |Re zeta|;
        one within half a period keeps its bits.
    nome : ThetaNome or complex
        The nome, held as its tau; a bare complex q, |q| < 1, is wrapped
        by `ThetaNome.from_q` (the principal log).
    method : {"auto", "direct", "transform"}
        "auto" takes the tau -> -1/tau transformed series where |tau| < 1,
        that is where the transform shrinks the nome (then |q| > exp(-pi)),
        and the direct series elsewhere.  The two routes agree to ~1e-15
        relative and are exposed separately so they can be cross-checked.

    Returns
    -------
    complex or ndarray
    """
    return _theta_dispatch(kind, zeta, nome, method, want_derivs=False)


def theta_derivs(kind: int, zeta, nome, method: str = "auto"):
    """Theta value and first two derivatives with respect to zeta.

    Term-wise differentiated series (direct route) or the chain rule applied
    to the modular-transformed representation, at zeta reduced by its
    period as in `theta`.  The plain series is summed at any array size,
    one exp per term and point.  Returns (value, d/dzeta, d2/dzeta2).
    """
    return _theta_dispatch(kind, zeta, nome, method, want_derivs=True)


# ---------------------------------------------------------------------------
# Bessel functions (scipy's Amos routines, validated)


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
    log_floor = math.log(0.5 * tol * special.i0e(2.0 * s))

    def dlmf_too_wide(h: int) -> bool:
        k = h + 1
        return (2.0 * (k * log_a - math.lgamma(k + 1.0))
                - math.log1p(-(a / (k + 1)) ** 2) > log_floor)

    # log(I0(x) / e^s), with x - s formed without cancellation
    log_i0 = z.real * z.real / (x + s) + math.log(special.i0e(x))

    def ik_too_wide(h: int) -> bool:
        v = h + 1.0
        # F(v), with sqrt(v^2 + x^2) - x written as v^2 / (hypot + x)
        f = v * math.asinh(v / x) - v * v / (math.hypot(v, x) + x)
        return (2.0 * (log_i0 - f)
                - math.log(-math.expm1(-2.0 * math.asinh((v + 0.5) / x)))
                > log_floor)

    lo = max(0, math.floor(a) - 1)
    # upper end: by Stirling, k! > (k/e)^k, so at k = h + 1 >= e^2 a the
    # scaled term a^k / k! is below e^{-k} and r < 1/2; the test holds
    # once also 2k >= log 2 - log_floor
    hi = max(lo, math.ceil(math.e ** 2 * a),
             math.ceil(0.5 * (math.log(2.0) - log_floor)))
    h = _first_passing(dlmf_too_wide, lo, hi)
    if h == 0 or ik_too_wide(h - 1):
        return h
    return _first_passing(ik_too_wide, 0, h - 1)


def _first_passing(too_wide, lo: int, hi: int) -> int:
    """Smallest h in [lo, hi] with not too_wide(h), by bisection; too_wide
    is monotone and false at hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if too_wide(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def bessel_i(nu: float, x: float):
    """Modified Bessel function I_nu(x), real order, real argument.

    scipy's `iv` on |x|.  For negative x: integer orders use the parity
    relation I_n(-x) = (-1)^n I_n(x); fractional orders return the
    principal-branch continuation exp(i pi nu) I_nu(|x|), which is complex
    -- a nonzero imaginary part is the caller's signal that a branch choice
    was made.  Raises ValueError where the value is not a finite double
    (|x| beyond about 713, or x = 0 at negative fractional order).
    """
    nu = float(nu)
    x = float(x)
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError("bessel_i requires finite order and argument")
    val = float(special.iv(nu, abs(x)))
    if not math.isfinite(val):
        raise ValueError(f"I_{nu}({abs(x)}) is not a finite double")
    if x >= 0:
        return val
    if nu == int(nu):
        return val if int(nu) % 2 == 0 else -val
    return cmath.exp(1j * math.pi * nu) * val


def bessel_j(n, z):
    """Bessel function J_n(z), integer order, complex argument.

    scipy's `jv` (Amos, ACM TOMS 644).  n may be an integer or an array of
    integers; the result is a complex scalar or an array shaped like n.
    Raises ValueError where a value is not a finite double (|Im z| beyond
    about 709 overflows).
    """
    order = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(order)) or np.any(order != np.round(order)):
        raise ValueError("bessel_j takes an integer order")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("bessel_j requires a finite argument")
    val = special.jv(order, z)
    if not np.all(np.isfinite(val)):
        raise ValueError(f"J_n(z) at z = {z} is not a finite double")
    return complex(val) if order.ndim == 0 else val


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
        r1 = float(special.i1e(x) / special.i0e(x))
        r2 = r1 / x
    return GRatio(r1=r1, r2=r2, g=1.0 - r1 * r1 - r2)


def _g_ratio_array(x: np.ndarray) -> GRatio:
    """`g_ratio` elementwise, the |x| < 1e-8 branch through np.where."""
    if not np.all(np.isfinite(x)):
        raise ValueError("g_ratio requires a finite argument")
    tiny = np.abs(x) < 1e-8
    r1 = np.where(tiny, 0.5 * x, special.i1e(x) / special.i0e(x))
    r2 = np.where(tiny, 0.5, r1 / np.where(tiny, 1.0, x))
    return GRatio(r1=r1, r2=r2, g=1.0 - r1 * r1 - r2)

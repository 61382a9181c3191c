"""Classical Euclidean-group action on the cylinder phase space.

Group elements (alpha, t = a + i b) compose by rotating the translation
part; they act on points s = (phi, p_phi) symplectically and transitively.
One covering order picks the group: E(2) itself (alpha mod 2 pi), its
q-fold covers (mod 2 pi q) or the universal cover (no reduction).

The records are built the way the package's records that convert their
arguments are (`specfun.ThetaNome`, `zakcs.PhasePoint`,
`mincs.MinUncParams`, `circlespace.CircleState`): a frozen dataclass whose
hand-written `__init__` validates its arguments on one path and writes
each field once into the instance `__dict__`; the generated eq, hash,
repr and the pickle, copy and `dataclasses.replace` support are kept, and
assigning a field still raises FrozenInstanceError.  The records that
store their arguments as given (`circlespace.Sector`, `RepLabel` and
`Params`, `zakcs.WZParams`, `evolve.EvolutionSpec`) keep the generated
`__init__` and only check them, in `__post_init__`.  A builtin int
covering order (1 or any q >= 2) is recognized by `type(q) is int`, which
no bool passes; only other types go through the bool and integer tests,
and a NumPy order is stored as an int.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "GroupElement",
    "PhaseSpacePoint",
    "compose",
    "identity",
    "act",
    "solve_transporter",
    "symplectic_residual",
    "induced_fields",
    "poisson_bracket",
]


_TWO_PI = 2.0 * math.pi
# From this covering order on, 2 pi q is taken as inf without being formed:
# 2 pi 2^1023 is inf, and an int past double range raises OverflowError.
_COVER_CLAMP = 2 ** 1023


@dataclass(frozen=True)
class GroupElement:
    """Rotation parameter alpha and complex translation t = a + i b of the
    group covering E(2) cover_q times.

    cover_q = 1 is E(2) itself (alpha reduced mod 2 pi into [0, 2 pi)), an
    integer q >= 2 the q-fold cover (mod 2 pi q) and None the universal
    cover (alpha as given).  A covering order whose period 2 pi q is not a
    finite double, a non-integer one, and a non-finite alpha or t raise
    ValueError.  The fields are validated and set once, in `__init__`.
    """

    alpha: float
    t: complex
    cover_q: Optional[int] = 1

    def __init__(self, alpha: float, t: complex, cover_q: Optional[int] = 1):
        alpha, t = float(alpha), complex(t)
        if cover_q is not None:
            # a builtin int (1 or any q >= 2) skips the type tests
            if (type(cover_q) is not int
                    and (isinstance(cover_q, bool)
                         or not isinstance(cover_q, (int, np.integer)))
                    or cover_q < 1):
                raise ValueError("the covering order must be an integer "
                                 f">= 1 or None, got {cover_q!r}")
            if type(cover_q) is not int:
                # a NumPy order is stored as an int, so alpha stays a float
                cover_q = int(cover_q)
            period = _TWO_PI * cover_q if cover_q < _COVER_CLAMP else math.inf
            if not math.isfinite(period):
                raise ValueError("the covering order is too large: 2 pi q "
                                 "is not a finite double")
            alpha %= period
            # a tiny negative alpha rounds up to the period itself, the
            # excluded end (`circlespace._fold`, inline on this hot path)
            if alpha == period:
                alpha = 0.0
        if not (math.isfinite(alpha) and cmath.isfinite(t)):
            raise ValueError("alpha and t must be finite")
        d = self.__dict__
        d["alpha"] = alpha
        d["t"] = t
        d["cover_q"] = cover_q

    @property
    def a(self) -> float:
        return self.t.real

    @property
    def b(self) -> float:
        return self.t.imag


def identity() -> GroupElement:
    return GroupElement(0.0, 0j)


@dataclass(frozen=True)
class PhaseSpacePoint:
    """Point (phi mod 2 pi in [0, 2 pi), p_phi) of the cylinder; a
    non-finite phi or p_phi raises ValueError."""

    phi: float
    p_phi: float

    def __init__(self, phi: float, p_phi: float):
        phi, p_phi = float(phi) % _TWO_PI, float(p_phi)
        if phi == _TWO_PI:  # the rounding case of a tiny negative phi
            phi = 0.0
        if not (math.isfinite(phi) and math.isfinite(p_phi)):
            raise ValueError("phi and p_phi must be finite")
        d = self.__dict__
        d["phi"] = phi
        d["p_phi"] = p_phi


def compose(g2: GroupElement, g1: GroupElement) -> GroupElement:
    """g2 after g1: (alpha1 + alpha2, t2 + e^{i alpha2} t1), in the group
    both belong to; different covering orders raise ValueError."""
    if g2.cover_q != g1.cover_q:
        raise ValueError("covering orders must match")
    return GroupElement(g1.alpha + g2.alpha,
                        g2.t + cmath.exp(1j * g2.alpha) * g1.t, g2.cover_q)


def _image(g: GroupElement, phi, p, trig=math):
    """`act` before the angle is reduced mod 2 pi; with trig = cmath, phi
    and p may be complex (for the complex-step derivative)."""
    phi = phi + g.alpha
    t = g.t
    return phi, p + t.real * trig.sin(phi) - t.imag * trig.cos(phi)


def act(g: GroupElement, s: PhaseSpacePoint) -> PhaseSpacePoint:
    """(phi, p) -> (phi + alpha mod 2 pi, p + a sin(phi+alpha) - b cos(phi+alpha))."""
    return PhaseSpacePoint(*_image(g, s.phi, s.p_phi))


def solve_transporter(s1: PhaseSpacePoint, s2: PhaseSpacePoint) -> GroupElement:
    """A group element carrying s1 to s2 (transitivity witness).

    alpha = phi2 - phi1; the momentum offset is absorbed by a alone where
    |sin phi2| >= |cos phi2|, by b alone otherwise, so the translation is
    at most sqrt(2) |p2 - p1|.
    """
    alpha = (s2.phi - s1.phi) % _TWO_PI
    dp = s2.p_phi - s1.p_phi
    sin2, cos2 = math.sin(s2.phi), math.cos(s2.phi)
    if abs(sin2) >= abs(cos2):
        return GroupElement(alpha, complex(dp / sin2, 0.0))
    return GroupElement(alpha, complex(0.0, -dp / cos2))


_COMPLEX_STEP = 1e-30  # no difference is taken, so a tiny step loses nothing
_FIELD_STEP = 1e-6  # ~ eps^(1/3): central-difference truncation ~ rounding
_BRACKET_STEP = 1e-5  # as _FIELD_STEP, for the caller's two functions


def symplectic_residual(g: GroupElement, s: PhaseSpacePoint) -> float:
    """|det J - 1| of the action's Jacobian at s by complex step, Im f(x +
    i h) / h (Squire and Trapp, SIAM Rev. 40, 1998): no difference is
    taken, so J carries rounding error only."""
    h = _COMPLEX_STEP
    # the momentum step leaves the angle real: its image takes math's trig
    phi, p = _image(g, complex(s.phi, h), s.p_phi, cmath)
    dphi_dphi, dp_dphi = phi.imag / h, p.imag / h
    phi, p = _image(g, s.phi, complex(s.p_phi, h))
    dphi_dp, dp_dp = phi.imag / h, p.imag / h
    return abs(dphi_dphi * dp_dp - dphi_dp * dp_dphi - 1.0)


def induced_fields(s: PhaseSpacePoint):
    """Vector fields induced at s by the three one-parameter subgroups.

    Convention: the field pulls functions back along exp(-A gamma), so each
    component is minus the derivative of the orbit.  Returns a dict with
    entries "X1", "X2", "L", each a (d phi, d p) tuple; analytically these
    are (0, -sin phi), (0, cos phi) and (-1, 0), the Hamiltonian fields of
    cos phi, sin phi and p_phi.
    """
    out = {}
    for name, make in (("X1", lambda g: GroupElement(0.0, complex(g, 0.0))),
                       ("X2", lambda g: GroupElement(0.0, complex(0.0, g))),
                       ("L", lambda g: GroupElement(g, 0j, None))):
        plus = act(make(_FIELD_STEP), s)
        minus = act(make(-_FIELD_STEP), s)
        dphi = (((plus.phi - minus.phi) + math.pi) % (2.0 * math.pi)
                - math.pi) / (2 * _FIELD_STEP)
        dp = (plus.p_phi - minus.p_phi) / (2 * _FIELD_STEP)
        out[name] = (-dphi, -dp)
    return out


def poisson_bracket(f, g, s: PhaseSpacePoint) -> float:
    """{f, g} = d_phi f d_p g - d_p f d_phi g by central differences."""
    phi, p, step = s.phi, s.p_phi, _BRACKET_STEP
    df_dphi = (f(phi + step, p) - f(phi - step, p)) / (2 * step)
    df_dp = (f(phi, p + step) - f(phi, p - step)) / (2 * step)
    dg_dphi = (g(phi + step, p) - g(phi - step, p)) / (2 * step)
    dg_dp = (g(phi, p + step) - g(phi, p - step)) / (2 * step)
    return df_dphi * dg_dp - df_dp * dg_dphi

"""Quantum mechanics on the cylinder phase space S^1 x R.

Fractional-sector Hilbert spaces over the circle, two coherent-state
families with closed-form expectation values, the Weil-Zak periodization,
a q-deformed ladder algebra, and exact theta-function time evolution --
every closed form backed by an independent quadrature or series oracle.
"""

from circleqm.circlespace import (
    CircleState,
    Params,
    RepLabel,
    Sector,
    apply_operator,
    basis_state,
    delta_from_flux,
    energy,
    ground_state,
    inner,
    parity,
    rep_apply,
    time_reversal,
    uncertainty_report,
)
from circleqm.specfun import (
    EllipticRecord,
    GRatio,
    ThetaNome,
    bessel_i,
    bessel_j,
    elliptic_suite,
    g_ratio,
    theta,
    theta_derivs,
)

__version__ = "0.1.0"

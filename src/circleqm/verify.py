"""Invariant suites: each closed form against an independent oracle.

`run(suites)` evaluates every check of the named suites, in `SUITES`
order within the table, and returns one `Row` per check: the suite, the
check id, the identity it tests, its residual and its tolerance.  A check
passes when its residual is below its tolerance; a nan residual never
does.  `circleqm verify` prints these rows as CSV.

The checks call the library through its module attributes
(`specfun.theta`, `mincs.saturation_gap`, ...), so a wrapper installed on
such an attribute sees every call a check makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from circleqm import circlespace, e2action, evolve, ladder, mincs, specfun, zakcs
from circleqm.circlespace import Params, Sector
from circleqm.mincs import MinUncParams
from circleqm.zakcs import PhasePoint, WZParams

__all__ = ["Row", "SUITES", "run"]


@dataclass(frozen=True)
class Row:
    """One check's outcome: it passes when residual < tolerance."""

    suite: str
    check_id: str
    identity: str
    residual: float
    tolerance: float


def _worst(residuals) -> float:
    """The largest residual, nan if any is nan."""
    return float(np.max(list(residuals)))


# ---------------------------------------------------------------------------
# specfun


def _gaussian_face(partner, z, tau):
    """(-i tau)^(-1/2) exp(z^2 / (i pi tau)) theta_partner(z / tau | -1/tau),
    the theta series summed directly: theta_kind(z | tau) after tau ->
    -1/tau, kinds 3 and 3 or 2 and 4 partners."""
    return ((-1j * tau) ** -0.5 * np.exp(z * z / (1j * math.pi * tau))
            * specfun.theta(partner, z / tau, specfun.ThetaNome(-1.0 / tau),
                            method="direct"))


def _theta_transform_residual(kind, partner, im_taus, zetas, floor):
    """Worst relative defect of theta_kind(z | tau) against its
    `_gaussian_face`, both sides summed directly, at tau = i im_tau; |lhs|
    is floored at `floor`."""
    defects = []
    for im_tau in im_taus:
        tau = 1j * im_tau
        nome = specfun.ThetaNome(tau)
        for z in zetas:
            lhs = specfun.theta(kind, z, nome, method="direct")
            rhs = _gaussian_face(partner, z, tau)
            defects.append(abs(lhs - rhs) / max(abs(lhs), floor))
    return _worst(defects)


def _check_theta_modular():
    zetas = [complex(re_z, im_z) for re_z in np.linspace(-math.pi, math.pi, 4)
             for im_z in np.linspace(-2.0, 2.0, 4)]
    return _theta_transform_residual(3, 3, (0.5, 1.0, 2.0, 5.0), zetas, 0.0)


def _check_theta_two_four():
    return _theta_transform_residual(2, 4, (0.6, 1.0, 3.0),
                                     (0.0, 0.4, 1.0 + 0.5j, -0.9 + 1.2j), 1e-3)


def _elliptic_defects(nome, zeta):
    rec = specfun.elliptic_suite(zeta, nome)
    v3, d3, dd3 = specfun.theta_derivs(3, zeta, nome)
    v4, d4, _ = specfun.theta_derivs(4, zeta, nome)
    two_k_pi = 2.0 * rec.K / math.pi
    r1 = abs((v4 / v3).real - math.sqrt(rec.kprime) / rec.dn)
    r2 = abs((d4 / v4).real - two_k_pi * rec.Z)
    rhs = (d4 / v4).real - two_k_pi * rec.k ** 2 * rec.cn * rec.sn / rec.dn
    r3 = abs((d3 / v3).real - rhs)
    second = (dd3 / v3 - (d3 / v3) ** 2).real
    ref = (4.0 * rec.K ** 2 / math.pi ** 2) * (
        rec.kprime ** 2 / rec.dn ** 2 - rec.E / rec.K)
    r4 = abs(second - ref) / max(abs(ref), 1.0)
    return r1, r2, r3, r4


def _check_elliptic_identities():
    return _worst(r for q in (0.1, math.exp(-1.0), 0.5)
                  for zeta in (0.15, 0.4, 0.9)
                  for r in _elliptic_defects(specfun.ThetaNome.from_q(q), zeta))


def _check_bessel_sum_rule():
    def defect(x):
        # orders 0..h: the bound leaves a tail below 1e-32, far under the
        # rounding this check measures
        h = specfun._bessel_half_width(x, 1e-32)
        sq = np.abs(specfun.bessel_j(np.arange(h + 1), x)) ** 2
        return abs(sq[0] + 2 * np.sum(sq[1:]) - 1.0)
    return _worst(defect(x) for x in (0.5, 1.5, 3.0, 7.0))


def _check_ratio_bound():
    r2 = specfun.g_ratio(np.array([1e-4, 0.1, 0.9, 4.0, 25.0, 300.0])).r2
    return _worst((0.0, np.max(r2) - 0.5, -np.min(r2)))


# ---------------------------------------------------------------------------
# e2


def _draw_element(rng) -> e2action.GroupElement:
    return e2action.GroupElement(rng.uniform(-6, 6),
                                 complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))


def _draw_point(rng) -> e2action.PhaseSpacePoint:
    return e2action.PhaseSpacePoint(rng.uniform(0, 2 * math.pi),
                                    rng.uniform(-5, 5))


def _gaps(a, b):
    """The wrapped angle gap and the momentum gap of two points."""
    return (abs((a.phi - b.phi + math.pi) % (2 * math.pi) - math.pi),
            abs(a.p_phi - b.p_phi))


def _check_e2_homomorphism():
    def gaps(g2, g1, s):
        return _gaps(e2action.act(e2action.compose(g2, g1), s),
                     e2action.act(g2, e2action.act(g1, s)))
    rng = np.random.default_rng(123)
    return _worst(gap for _ in range(400) for gap in gaps(
        _draw_element(rng), _draw_element(rng), _draw_point(rng)))


def _check_e2_transporter():
    def gaps(s1, s2):
        return _gaps(e2action.act(e2action.solve_transporter(s1, s2), s1), s2)
    rng = np.random.default_rng(5)
    return _worst(gap for _ in range(200)
                  for gap in gaps(_draw_point(rng), _draw_point(rng)))


def _check_e2_symplectic():
    rng = np.random.default_rng(9)
    return _worst(e2action.symplectic_residual(_draw_element(rng), _draw_point(rng))
                  for _ in range(60))


# ---------------------------------------------------------------------------
# mincs


# (s, gamma, delta) of the saturation and gap checks
_SATURATION_GRID = [(s, gamma, delta) for s in (0.3, 1.0, 3.0)
                    for gamma in (0.0, 1.0) for delta in (0.0, 0.3)]


def _check_min_saturation():
    def defect(params, pair):
        lhs, rhs = mincs.saturation_gap(params, pair)
        return abs(lhs - rhs) / max(lhs, 1e-30)
    return _worst(defect(MinUncParams(alpha, delta, gamma, s), pair)
                  for s, gamma, delta in _SATURATION_GRID
                  for alpha, pair in ((0.0, "CL"), (math.pi / 2, "SL")))


def _check_min_gap_positive():
    gaps = [lhs - rhs for lhs, rhs in (
        mincs.saturation_gap(MinUncParams(0.7, delta, gamma, s), "CL")
        for s, gamma, delta in _SATURATION_GRID)]
    return _worst((0.0, 1e-6 - np.min(gaps)))


def _check_min_vs_quadrature():
    params = MinUncParams(0.7, 1.3, 0.8, 1.2)
    e = mincs.min_expectations(params)
    psi = mincs.min_state(params, window_tol=1e-14).normalized()
    c_psi = circlespace.apply_operator("C", psi)
    l_psi = circlespace.apply_operator("L", psi)
    s_psi = circlespace.apply_operator("S", psi)
    return _worst((
        abs(circlespace.inner(psi, c_psi).real - e.mean_c),
        abs(circlespace.inner(psi, s_psi).real - e.mean_s),
        abs(circlespace.inner(psi, l_psi).real - e.mean_l),
        abs(circlespace.inner(c_psi, c_psi).real - e.mean_c2),
        abs(circlespace.inner(l_psi, l_psi).real - e.mean_l2),
    ))


def _check_min_sum_rule():
    return _worst(mincs.sum_rule_residual(sigma)
                  for sigma in (0.5 + 0j, 3.0 - 1.0j, 1.0 - 2.0j, 6.0 + 4.0j))


def _check_min_completeness():
    s, gamma, m = 1.0, 0.0, 1
    n_cut = abs(m) + math.ceil(abs(complex(gamma, -s))) + 20
    return abs(mincs.completeness_residual(m, m, s, gamma, Sector(0.0), n_cut))


def _check_divergence_slope():
    inc = mincs.dbt_divergence(0, 1e3) - mincs.dbt_divergence(0, 1e2)
    return abs(inc * math.pi / math.log(10.0) - 1.0)


# ---------------------------------------------------------------------------
# zakcs


def _check_wz_periodization():
    params = WZParams(1.0, Sector(0.25))
    phi = np.linspace(-math.pi, 3 * math.pi, 16)
    series, closed = zakcs.zak_periodize(params, 1.0 + 0.5j, phi)
    return float(np.max(np.abs(series - closed)) / np.max(np.abs(series)))


def _check_wz_norm():
    params = WZParams(1.0, Sector(0.2))
    z = PhasePoint(0.4, 1.3)
    st = zakcs.w_state(params, z, window_tol=1e-14)
    ref = zakcs.w_norm_sq(params, z)
    return abs(st.norm_sq() - ref) / ref


def _check_wz_kernel_hermitian():
    params = WZParams(0.8, Sector(0.4))
    rng = np.random.default_rng(2)

    def defect():
        z1 = PhasePoint(rng.uniform(0, 6.28), rng.uniform(-2, 2))
        z2 = PhasePoint(rng.uniform(0, 6.28), rng.uniform(-2, 2))
        k12 = zakcs.w_overlap(params, z1, z2)
        k21 = zakcs.w_overlap(params, z2, z1)
        return abs(k21 - np.conj(k12)) / max(abs(k12), 1.0)

    return _worst(defect() for _ in range(6))


def _check_wz_completeness():
    params = WZParams(1.0, Sector(0.0))
    res = zakcs.completeness_residual_wz(0, 0, params)
    return _worst((abs(res.gauss), abs(res.weighted)))


def _check_wz_variance_sum():
    params = WZParams(1.0, Sector(0.2))
    e = zakcs.w_expectations(params, PhasePoint(0.5, 0.3))
    nome = specfun.ThetaNome(1j * math.pi)
    zeta = math.pi * (0.3 - 0.2)
    ratio = (specfun.theta(4, zeta, nome) / specfun.theta(3, zeta, nome)).real
    return abs(e.var_sum - (1.0 - math.exp(-0.5) * ratio ** 2))


# ---------------------------------------------------------------------------
# ladder


def _check_ladder_eigen():
    return _worst(
        ladder.eigen_residual(ladder.LadderContext(eps, Sector(delta)),
                              PhasePoint.from_z(z))
        for eps, z in ((0.5, 0j), (0.5, 1 + 0.5j), (1.0, 2j), (1.0, 1 + 0.5j))
        for delta in (0.0, 0.4))


def _kj_defects(eps, z):
    ctx = ladder.LadderContext(eps, Sector(0.0))
    rep = ladder.kj_report(ctx, PhasePoint.from_z(z))
    lhs = rep.var_k * rep.var_j
    rhs = rep.covariance ** 2 + 0.25 * abs(rep.commutator_mean) ** 2
    mat = ladder.kj_matrix_elements(ctx, PhasePoint.from_z(z))
    scale = max(abs(rep.var_k), 1.0)
    return abs(lhs - rhs) / max(lhs, 1e-30), abs(rep.var_k - mat.var_k) / scale


def _check_ladder_kj():
    return _worst(r for eps, z in ((0.5, 0j), (1.0, 1 + 0.5j), (1.0, 2j))
                  for r in _kj_defects(eps, z))


def _check_ladder_qdeform():
    return _worst(ladder.qdeform_residual(ladder.LadderContext(eps, Sector(delta)), n)
                  for eps, delta, n in ((1.0, 0.0, 0), (0.5, 0.3, 2), (2.0, 0.7, -1)))


# ---------------------------------------------------------------------------
# evolve


def _check_evolve_revival():
    spec = evolve.EvolutionSpec(Params(1.0, 1.0), Sector(0.0), 4 * math.pi)
    rng = np.random.default_rng(1)
    c = rng.normal(size=11) + 1j * rng.normal(size=11)
    psi = circlespace.CircleState(Sector(0.0), -5, c).normalized()
    return 1.0 - circlespace.fidelity(psi, evolve.propagate(spec, psi))


def _kernel_faces(spec, dphi):
    """The kernel's two printed faces at the angles dphi, each written out
    from theta's direct series: C theta_3(zeta | tau) and C times the
    `_gaussian_face` of theta_3, with T = omega (t - i eta), tau = -eps T /
    2 pi, zeta = (dphi - eps delta T)/2 and C = exp(-i eps delta^2 T/2)
    exp(i delta dphi).  tau is taken mod 2 through the phase of exp(-i eps
    Re T/2), and zeta mod pi, theta_3's periods, so that neither face rounds
    a large phase at large t."""
    eps, delta = spec.params.epsilon, spec.sector.delta
    T = spec.complex_time
    tau = complex(np.angle(np.exp(-0.5j * eps * T.real)) / math.pi,
                  -eps * T.imag / (2.0 * math.pi))
    zeta = (dphi - eps * delta * T) / 2.0
    zeta = zeta - math.pi * np.rint(zeta.real / math.pi)
    const = np.exp(-0.5j * eps * delta * delta * T + 1j * delta * dphi)
    series = specfun.theta(3, zeta, specfun.ThetaNome(tau), method="direct")
    return const * series, const * _gaussian_face(3, zeta, tau)


def _check_evolve_kernel_faces():
    spec = evolve.EvolutionSpec(Params(1.0, 1.0), Sector(0.3), 0.7, eta=1e-6)
    dphi = np.linspace(-math.pi, math.pi, 7)
    kernel = evolve.kernel(spec, dphi)
    return float(max(np.max(np.abs(kernel - face))
                     for face in _kernel_faces(spec, dphi))
                 / np.max(np.abs(kernel)))


def _check_evolve_kernel_vs_spectral():
    sector = Sector(0.2)
    psi = circlespace.CircleState(
        sector, -1, np.array([0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j])).normalized()
    spec = evolve.EvolutionSpec(Params(1.0, 1.0), sector, 0.9, eta=1e-6)
    phi_out = np.linspace(0, 2 * math.pi, 4, endpoint=False)
    via_kernel = evolve.kernel_apply(spec, psi, phi_out)
    # the kernel's eta-bias exp(-eps omega eta (n+delta)^2 / 2) (eps = omega
    # = 1 here), folded into the reference so that the residual measures
    # the kernel alone
    bias = np.exp(-0.5 * spec.eta * (psi.indices + sector.delta) ** 2)
    damped = evolve.propagate(spec, psi).coeffs * bias
    ref = circlespace.CircleState(sector, psi.n_lo, damped).evaluate(phi_out)
    return float(np.max(np.abs(via_kernel - ref)))


# ---------------------------------------------------------------------------


# suite -> [(check id, identity, check, tolerance)]
_TABLE = {
    "specfun": [
        ("theta-imaginary-transformation", "theta3 vs transformed series",
         _check_theta_modular, 1e-12),
        ("theta-two-to-four-transformation", "theta2 vs transformed theta4",
         _check_theta_two_four, 1e-12),
        ("elliptic-identity-web", "theta ratios vs elliptic suite",
         _check_elliptic_identities, 1e-9),
        ("bessel-squared-sum", "sum of squared J equals one",
         _check_bessel_sum_rule, 1e-12),
        ("bessel-ratio-bound", "I1/(x I0) within (0, 1/2]",
         _check_ratio_bound, 1e-15),
    ],
    "e2": [
        ("group-action-homomorphism", "act respects composition",
         _check_e2_homomorphism, 1e-12),
        ("transporter-round-trip", "transitivity witness lands on target",
         _check_e2_transporter, 1e-12),
        ("symplectic-determinant", "unit Jacobian determinant",
         _check_e2_symplectic, 1e-9),
    ],
    "mincs": [
        ("saturation-both-pairs", "variance inequality saturates at the "
         "aligned angles", _check_min_saturation, 1e-10),
        ("nonminimal-gap", "strictly positive gap off the aligned angles",
         _check_min_gap_positive, 1e-12),
        ("moments-vs-quadrature", "closed moments vs coefficient quadrature",
         _check_min_vs_quadrature, 1e-8),
        ("bessel-sum-rule", "squared-J sum equals I0(2s)",
         _check_min_sum_rule, 1e-10),
        ("completeness-residual", "identity resolution at documented cutoff",
         _check_min_completeness, 1e-6),
        ("group-average-divergence", "log slope of the flat average",
         _check_divergence_slope, 0.05),
    ],
    "zakcs": [
        ("periodization-two-faces", "winding sum vs theta closed form",
         _check_wz_periodization, 1e-10),
        ("norm-vs-theta", "coefficient norm vs theta value",
         _check_wz_norm, 1e-10),
        ("kernel-hermitian", "reproducing kernel conjugate symmetry",
         _check_wz_kernel_hermitian, 1e-12),
        ("completeness-both-forms", "identity resolution, both measures",
         _check_wz_completeness, 1e-6),
        ("variance-sum-identity", "var C + var S closes in the theta ratio",
         _check_wz_variance_sum, 1e-12),
    ],
    "ladder": [
        ("eigen-residual", "holomorphic states are lowering eigenvectors",
         _check_ladder_eigen, 1e-10),
        ("quadrature-pair-saturation", "K/J product equals commutator bound",
         _check_ladder_kj, 1e-12),
        ("qdeformed-algebra", "A Adag - q Adag A = q^-N on the basis",
         _check_ladder_qdeform, 1e-12),
    ],
    "evolve": [
        ("full-revival", "fidelity restored after the revival period",
         _check_evolve_revival, 1e-12),
        ("kernel-two-faces", "kernel vs its spectral and Gaussian faces",
         _check_evolve_kernel_faces, 1e-9),
        ("kernel-vs-spectral", "kernel quadrature matches propagation",
         _check_evolve_kernel_vs_spectral, 1e-11),
    ],
}

SUITES = tuple(_TABLE)


def run(suites) -> list[Row]:
    """The rows of every check of `suites` (names from `SUITES`), suite by
    suite in the order given."""
    unknown = [s for s in suites if s not in _TABLE]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; choose from {SUITES}")
    return [Row(suite, check_id, identity, float(check()), tol)
            for suite in suites for check_id, identity, check, tol in _TABLE[suite]]

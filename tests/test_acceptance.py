"""Acceptance gate: the exit criteria, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from circleqm.circlespace import (
    CircleState,
    Params,
    Sector,
    apply_operator,
    fidelity,
    inner,
)
from circleqm.evolve import EvolutionSpec, kernel, kernel_apply, propagate
from circleqm.ladder import (
    LadderContext,
    eigen_residual,
    kj_matrix_elements,
    kj_report,
)
from circleqm.mincs import (
    MinUncParams,
    completeness_residual,
    dbt_divergence,
    min_state,
    saturation_gap,
    sum_rule_residual,
)
from circleqm.specfun import ThetaNome, elliptic_suite, g_ratio, theta, theta_derivs
from circleqm.verify import _kernel_faces
from circleqm.zakcs import PhasePoint, WZParams, completeness_residual_wz, w_expectations


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


RATIO_TABLE = [
    (0.0, 0.0, 0.5, 0.5),
    (0.1, 0.0499, 0.4994, 0.4981),
    (0.5, 0.2425, 0.4850, 0.4562),
    (1.0, 0.4464, 0.4464, 0.3543),
    (2.0, 0.6977, 0.3489, 0.1644),
    (5.0, 0.8934, 0.1787, 2.32e-2),
    (10.0, 0.9486, 9.47e-2, 5.29e-3),
    (50.0, 0.9900, 1.95e-2, 1.99e-4),
    (100.0, 0.9950, 9.95e-3, 4.60e-5),
]

SAT_GRID = [(s, gamma, delta) for s in (0.3, 1.0, 3.0)
            for gamma in (0.0, 1.0) for delta in (0.0, 0.3)]

KJ_GRID = [(eps, z) for eps in (0.5, 1.0) for z in (0j, 1.0 + 0.5j, 2.0j)]


def test_criterion_1_ratio_table():
    start = time.perf_counter()
    worst = 0.0
    for x, r1, r2, g in RATIO_TABLE:
        rec = g_ratio(x)
        worst = max(worst, abs(rec.r1 - r1), abs(rec.r2 - r2), abs(rec.g - g))
    elapsed = time.perf_counter() - start
    report(1, worst < 5e-4 and elapsed < 1.0,
           f"ratio table max deviation {worst:.2e} (tol 5e-4), "
           f"runtime {elapsed:.3f}s (< 1s)")


def test_criterion_2_shift_constant():
    value = LadderContext(1.0, Sector(0.0)).shift_constant
    report(2, abs(value - 0.427) < 5e-4,
           f"ladder shift constant at unit stiffness = {value:.6f} "
           f"(target 0.427 +- 5e-4)")


def test_criterion_3_saturation_suite():
    worst_closed = 0.0
    worst_quad = 0.0
    for s, gamma, delta in SAT_GRID:
        for alpha, pair, ops in ((0.0, "CL", ("C", "L")),
                                 (math.pi / 2, "SL", ("S", "L"))):
            params = MinUncParams(alpha, delta, gamma, s)
            lhs, rhs = saturation_gap(params, pair)
            worst_closed = max(worst_closed,
                               abs(lhs - rhs) / max(lhs, 1e-30))
            psi = min_state(params, window_tol=1e-14).normalized()
            a_psi = apply_operator(ops[0], psi)
            b_psi = apply_operator(ops[1], psi)
            var_a = inner(a_psi, a_psi).real - inner(psi, a_psi).real ** 2
            var_b = inner(b_psi, b_psi).real - inner(psi, b_psi).real ** 2
            worst_quad = max(worst_quad, abs(var_a * var_b - lhs))
    report(3, worst_closed < 1e-10 and worst_quad < 1e-8,
           f"saturation: closed-form residual {worst_closed:.2e} (tol 1e-10), "
           f"closed-vs-quadrature {worst_quad:.2e} (tol 1e-8)")


def test_criterion_4_nonminimal_gap():
    min_gap = math.inf
    for s, gamma, delta in SAT_GRID:
        lhs, rhs = saturation_gap(MinUncParams(0.7, delta, gamma, s), "CL")
        min_gap = min(min_gap, lhs - rhs)
    report(4, min_gap > 1e-6,
           f"off-angle uncertainty gap min {min_gap:.2e} (> 1e-6)")


def test_criterion_5_kj_saturation():
    worst_closed = 0.0
    worst_matrix = 0.0
    for eps, z in KJ_GRID:
        ctx = LadderContext(eps, Sector(0.0))
        rep = kj_report(ctx, PhasePoint.from_z(z))
        lhs = rep.var_k * rep.var_j
        rhs = rep.covariance ** 2 + 0.25 * abs(rep.commutator_mean) ** 2
        worst_closed = max(worst_closed, abs(lhs - rhs) / max(lhs, 1e-30))
        mat = kj_matrix_elements(ctx, PhasePoint.from_z(z))
        lhs_m = mat.var_k * mat.var_j
        rhs_m = mat.covariance ** 2 + 0.25 * abs(mat.commutator_mean) ** 2
        worst_matrix = max(worst_matrix,
                           abs(lhs_m - rhs_m) / max(lhs_m, 1e-30))
    report(5, worst_closed < 1e-12 and worst_matrix < 1e-8,
           f"K/J saturation: closed {worst_closed:.2e} (tol 1e-12), "
           f"matrix elements {worst_matrix:.2e} (tol 1e-8)")


def test_criterion_6_eigen_relation():
    worst = 0.0
    for eps, z in KJ_GRID:
        for delta in (0.0, 0.4):
            ctx = LadderContext(eps, Sector(delta))
            worst = max(worst, eigen_residual(ctx, PhasePoint.from_z(z)))
    report(6, worst < 1e-10,
           f"lowering-eigenvector residual max {worst:.2e} (tol 1e-10)")


def test_criterion_7_theta_identity_web():
    start = time.perf_counter()
    worst = 0.0
    # imaginary-argument transformation of theta3
    for im_tau in (0.5, 1.0, 2.0, 5.0):
        tau = 1j * im_tau
        nome = ThetaNome(tau)
        nome2 = ThetaNome(-1.0 / tau)
        for re_z in np.linspace(-math.pi, math.pi, 5):
            for im_z in np.linspace(-2.0, 2.0, 5):
                z = complex(re_z, im_z)
                lhs = theta(3, z, nome, method="direct")
                rhs = ((-1j * tau) ** -0.5
                       * np.exp(z * z / (1j * math.pi * tau))
                       * theta(3, z / tau, nome2, method="direct"))
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
    # the kind-2 to kind-4 partner transformation
    for im_tau in (0.6, 1.0, 3.0):
        tau = 1j * im_tau
        nome = ThetaNome(tau)
        nome2 = ThetaNome(-1.0 / tau)
        for z in (0.0, 0.4, 1.0 + 0.5j, -0.9 + 1.2j):
            lhs = theta(2, z, nome, method="direct")
            rhs = ((-1j * tau) ** -0.5
                   * np.exp(z * z / (1j * math.pi * tau))
                   * theta(4, z / tau, nome2, method="direct"))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-3))
    # elliptic identity web
    for q in (0.1, math.exp(-1.0), 0.5):
        nome = ThetaNome.from_q(q)
        for zeta in (0.15, 0.4, 0.9, 1.3):
            rec = elliptic_suite(zeta, nome)
            v3, d3, dd3 = theta_derivs(3, zeta, nome)
            v4, d4, _ = theta_derivs(4, zeta, nome)
            two_k_pi = 2.0 * rec.K / math.pi
            worst = max(worst, abs(
                (v4 / v3).real - math.sqrt(rec.kprime) / rec.dn))
            worst = max(worst, abs(
                (d4 / v4).real - two_k_pi * rec.Z) / max(abs(rec.Z), 1.0))
            rhs = (d4 / v4).real - two_k_pi * rec.k ** 2 * rec.cn * rec.sn / rec.dn
            worst = max(worst, abs((d3 / v3).real - rhs) / max(abs(rhs), 1.0))
            second = (dd3 / v3 - (d3 / v3) ** 2).real
            ref = (4.0 * rec.K ** 2 / math.pi ** 2) * (
                rec.kprime ** 2 / rec.dn ** 2 - rec.E / rec.K)
            worst = max(worst, abs(second - ref) / max(abs(ref), 1.0))
    elapsed = time.perf_counter() - start
    report(7, worst < 1e-9 and elapsed < 5.0,
           f"theta identity web max residual {worst:.2e} (tol 1e-9), "
           f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_8_completeness():
    s, gamma, m = 1.0, 0.0, 1
    n_cut = abs(m) + math.ceil(abs(complex(gamma, -s))) + 20
    min_res = abs(completeness_residual(m, m, s, gamma, Sector(0.0), n_cut))
    wz = completeness_residual_wz(0, 0, WZParams(1.0, Sector(0.0)))
    rng = np.random.default_rng(10)
    worst_sum = 0.0
    for _ in range(10):
        r = rng.uniform(0, 10)
        ph = rng.uniform(0, 2 * math.pi)
        worst_sum = max(worst_sum, sum_rule_residual(
            r * complex(math.cos(ph), math.sin(ph))))
    ok = (min_res < 1e-6 and abs(wz.gauss) < 1e-6
          and abs(wz.weighted) < 1e-6 and worst_sum < 1e-10)
    report(8, ok,
           f"completeness: min-family {min_res:.2e}, holomorphic gaussian "
           f"{abs(wz.gauss):.2e} / weighted {abs(wz.weighted):.2e} "
           f"(tol 1e-6); squared-J sum rule {worst_sum:.2e} (tol 1e-10)")


def test_criterion_9_propagation():
    spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.0), 4 * math.pi)
    rng = np.random.default_rng(3)
    c = rng.normal(size=13) + 1j * rng.normal(size=13)
    psi = CircleState(Sector(0.0), -6, c).normalized()
    revival = fidelity(psi, propagate(spec, psi))

    # the kernel against its spectral and Gaussian faces, each written out
    # from theta's direct series
    kspec = EvolutionSpec(Params(1.0, 1.0), Sector(0.3), 0.7, eta=1e-6)
    dphi = np.linspace(-math.pi, math.pi, 9)
    k = kernel(kspec, dphi)
    faces = max(float(np.max(np.abs(k - face)) / np.max(np.abs(k)))
                for face in _kernel_faces(kspec, dphi))

    sector = Sector(0.2)
    narrow = CircleState(sector, -1,
                         np.array([0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j])).normalized()
    qspec = EvolutionSpec(Params(1.0, 1.0), sector, 0.9, eta=1e-6)
    phi_out = np.linspace(0, 2 * math.pi, 5, endpoint=False)
    # the reference carries the kernel's eta-bias exp(-eps omega eta
    # (n+delta)^2 / 2) on each coefficient (eps = omega = 1)
    bias = np.exp(-0.5 * qspec.eta * (narrow.indices + sector.delta) ** 2)
    damped = CircleState(sector, narrow.n_lo,
                         propagate(qspec, narrow).coeffs * bias)
    quad_err = float(np.max(np.abs(
        kernel_apply(qspec, narrow, phi_out) - damped.evaluate(phi_out))))

    ok = revival > 1 - 1e-12 and faces < 1e-9 and quad_err < 1e-11
    report(9, ok,
           f"revival fidelity 1-{1 - revival:.1e} (>= 1-1e-12); kernel faces "
           f"{faces:.2e} (tol 1e-9); kernel-vs-spectral {quad_err:.2e} (tol 1e-11)")


def test_criterion_10_divergence_slope():
    f100 = dbt_divergence(0, 1e2)
    f1000 = dbt_divergence(0, 1e3)
    f10000 = dbt_divergence(0, 1e4)
    slope_a = (f1000 - f100) / math.log(10.0)
    slope_b = (f10000 - f1000) / math.log(10.0)
    target = 1.0 / math.pi
    dev = max(abs(slope_a - target), abs(slope_b - target)) / target
    report(10, dev < 0.05,
           f"flat-average divergence log-slope within {dev:.2%} of 1/pi "
           f"(tol 5%)")


def test_criterion_11_holomorphic_nonminimality():
    # unit stiffness, cos(theta) = 0; evaluated at the oscillation node
    # l - eps delta = eps/4, where the first-order theta-correction bound
    # 4 e^{-pi^2} genuinely dominates the residual
    eps, delta = 1.0, 0.0
    params = WZParams(eps, Sector(delta))
    z = PhasePoint(math.pi / 2, eps * delta + eps / 4.0)
    e = w_expectations(params, z)
    var_l = e.var_l_scaled / eps ** 2
    cov = e.corr_cl_scaled / eps
    lhs = e.var_c * var_l
    rhs = cov ** 2 + 0.25 * e.mean_s ** 2
    gap = lhs - rhs
    target = (1.0 - math.exp(-1.0)) / 4.0 - math.exp(-0.5) / 4.0
    bound = 4.0 * math.exp(-math.pi ** 2)
    positive_everywhere = all(
        (lambda ex: ex.var_c * ex.var_l_scaled / eps ** 2
         - (ex.corr_cl_scaled / eps) ** 2 - 0.25 * ex.mean_s ** 2)(
            w_expectations(params, PhasePoint(math.pi / 2, l_t))) > 0
        for l_t in (0.0, 0.25, 0.5, 1.0))
    ok = abs(gap - target) < bound and positive_everywhere
    report(11, ok,
           f"holomorphic-family gap {gap:.6e} vs {target:.6e}, "
           f"|diff| {abs(gap - target):.2e} (bound 4e^-pi^2 = {bound:.2e}); "
           f"gap positive across the momentum grid")

"""Special-function kernel checks against independent oracles.

Theta values are cross-checked between the direct and modular-transformed
series, Bessel functions against mpmath, the integral representation, the
recurrences and the classical sum identities, and the elliptic record
against the theta-ratio identity web.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from circleqm.specfun import (
    _BLOCK_WORK,
    _bessel_half_width,
    ThetaNome,
    bessel_i,
    bessel_j,
    elliptic_suite,
    g_ratio,
    theta,
    theta_derivs,
)


class TestThetaNome:
    def test_from_q_roundtrip(self):
        nome = ThetaNome.from_q(0.3 + 0.1j)
        assert abs(nome.q - (0.3 + 0.1j)) < 1e-15

    def test_from_tau(self):
        nome = ThetaNome(2j)
        assert abs(nome.q - math.exp(-2 * math.pi)) < 1e-15

    @pytest.mark.parametrize("q", [1.0, -1.0, 1.2, 0.5 + 0.9j])
    def test_rejects_unit_disk_boundary(self, q):
        with pytest.raises(ValueError):
            ThetaNome.from_q(q)

    def test_rejects_non_finite_q_and_lower_half_plane_tau(self):
        with pytest.raises(ValueError, match="finite"):
            ThetaNome.from_q(math.nan)
        with pytest.raises(ValueError, match="Im\\(tau\\)"):
            ThetaNome(complex(0.3, -1.0))
        with pytest.raises(ValueError, match="Re\\(tau\\)"):
            ThetaNome(complex(math.inf, 1.0))

    def test_zero_q_needs_underflowing_tau(self):
        # q = 0 is tau = i inf, or a finite tau whose q underflows and
        # which the nome keeps
        assert ThetaNome.from_q(0.0).log_q == -math.inf
        nome = ThetaNome(238j)
        assert nome.q == 0 and nome.log_q == 1j * math.pi * 238j


class TestTheta:
    def test_zero_nome_leading_term(self):
        assert theta(3, 0.0, ThetaNome.from_q(0.0)) == 1.0

    @pytest.mark.parametrize("tau", [40j, 300j, 1000j, 0.3 + 300j])
    def test_transform_needs_only_a_finite_tau(self, tau):
        # from Im tau ~ 237 on q underflows to 0, but the transform reads
        # only tau; tau = i inf (from_q(0)) alone has no -1/tau
        nome = ThetaNome(tau)
        direct = theta(3, 0.1, nome, method="direct")
        assert abs(theta(3, 0.1, nome, method="transform") - direct) <= 1e-15
        with pytest.raises(ValueError, match="tau = i inf"):
            theta(3, 0.1, ThetaNome.from_q(0.0), method="transform")

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("im_tau", [100.0, 236.0, 238.0, 300.0])
    @pytest.mark.parametrize("half", [0.0, 0.5])
    def test_underflowed_nome_keeps_tau(self, kind, im_tau, half):
        # from Im tau ~ 237 on, q = e^{-pi Im tau} rounds to 0.0; the series
        # must still run on tau.  Exponents reach pi Im tau ~ 940, whose
        # rounding alone moves a term by ~1e-13 relative.
        mpmath = pytest.importorskip("mpmath")
        zeta = 1j * math.pi * im_tau * half
        val = theta(kind, zeta, ThetaNome(1j * im_tau))
        with mpmath.workdps(40):
            ms = [mpmath.mpf(m) + (mpmath.mpf(1) / 2 if kind == 2 else 0)
                  for m in range(-6, 6)]
            terms = [(-1) ** (m % 2 if kind == 4 else 0)
                     * mpmath.exp(1j * mpmath.pi * 1j * im_tau * mm ** 2
                                  + 2j * mm * mpmath.mpc(0, zeta.imag))
                     for m, mm in zip(range(-6, 6), ms)]
            ref = complex(mpmath.fsum(terms))
            largest = float(max(abs(t) for t in terms))
        assert abs(val - ref) <= 1e-12 * largest

    def test_period_pi(self):
        nome = ThetaNome.from_q(0.17)
        for z in [0.0, 0.4, 1.3 + 0.2j, -2.0 + 1j]:
            assert abs(theta(3, z + math.pi, nome) - theta(3, z, nome)) < 1e-13

    def test_direct_vs_transform_tau_2i(self):
        nome = ThetaNome(2j)
        a = theta(3, 0.3, nome, method="direct")
        b = theta(3, 0.3, nome, method="transform")
        assert abs(a - b) < 1e-12 * abs(a)

    @pytest.mark.parametrize("im_tau", [50.0, 100.0])
    def test_transform_refuses_cancellation(self, im_tau):
        # at zeta = i pi Im tau / 2 the transformed terms reach e^{~40}
        # against a value of 2: the series returned 132.6 at Im tau = 50
        nome = ThetaNome(1j * im_tau)
        zeta = 0.5j * math.pi * im_tau
        with pytest.raises(ValueError, match="cancels"):
            theta(3, zeta, nome, method="transform")
        with pytest.raises(ValueError, match="cancels"):
            theta_derivs(3, zeta, nome, method="transform")
        assert abs(theta(3, zeta, nome) - 2.0) < 1e-14

    def test_auto_takes_the_transform_inside_the_unit_tau_disk(self):
        # the rule |q| > e^{-pi} and |q(-1/tau)| < |q|, written out, picks
        # the same route as "auto" (|tau| < 1), also just off |tau| = 1 and
        # Im tau = 1
        re = np.linspace(-1.0, 1.0, 21)
        im = np.concatenate([np.linspace(0.05, 3.0, 12),
                             1.0 + np.array([-1e-9, 1e-9])])
        angles = np.linspace(0.06, math.pi - 0.06, 25)
        rim = np.outer(1.0 + np.array([-1e-9, 1e-9]), np.exp(1j * angles))
        taus = np.concatenate([(re[:, None] + 1j * im).ravel(), rim.ravel()])
        picked = set()
        for tau in taus:
            nome = ThetaNome(tau)
            q2 = cmath.exp(1j * math.pi * (-1.0 / nome.tau))
            transform = (nome.q != 0 and abs(nome.q) > math.exp(-math.pi)
                         and abs(q2) < abs(nome.q))
            method = "transform" if transform else "direct"
            picked.add(method)
            zeta = np.array([0.3, 0.7 + 0.2j])
            assert np.array_equal(theta(3, zeta, nome),
                                  theta(3, zeta, nome, method=method)), tau
        assert picked == {"direct", "transform"}

    def test_transform_keeps_small_values_of_a_cancelling_direct_series(self):
        # theta3(pi/2 | 0.05 i) = theta4(0) ~ 1.3e-6: every direct term is
        # ~1 and the largest transformed one ~e^{-16}, so this is the
        # transform's home ground, not a cancellation
        mpmath = pytest.importorskip("mpmath")
        nome = ThetaNome(0.05j)
        val = theta(3, math.pi / 2, nome, method="transform")
        ref = complex(mpmath.jtheta(3, mpmath.pi / 2, mpmath.exp(-0.05 * mpmath.pi)))
        assert abs(val - ref) < 1e-13 * abs(ref)

    def test_transform_returns_only_accurate_values(self):
        # either ValueError or agreement with the direct series to 1e-8 of
        # the function's scale, the largest direct term (|Im zeta| up to
        # pi Im tau / 2, the reduced strip)
        raised = 0
        for kind in (2, 3, 4):
            for re_tau in (0.0, 0.4):
                for im_tau in (0.05, 0.3, 1.0, 5.0, 20.0, 50.0):
                    nome = ThetaNome(complex(re_tau, im_tau))
                    for x in (0.0, 1.1):
                        for frac in (-0.5, -0.25, 0.0, 0.25, 0.5):
                            zeta = complex(x, frac * math.pi * im_tau)
                            ref = theta(kind, zeta, nome, method="direct")
                            m = np.arange(-400, 401) + (0.5 if kind == 2 else 0.0)
                            scale = np.max(np.exp(-math.pi * im_tau * m * m
                                                  - 2.0 * m * zeta.imag))
                            try:
                                val = theta(kind, zeta, nome, method="transform")
                            except ValueError:
                                raised += 1
                                continue
                            assert abs(val - ref) < 1e-8 * max(abs(ref), scale)
        assert 0 < raised < 60

    def test_theta4_small_nome_leading_terms(self):
        q = math.exp(-math.pi ** 2)
        assert abs(q - 5.2e-5) < 3e-7  # the nome driving the fast series
        val = theta(4, 0.0, ThetaNome.from_q(q))
        assert abs(val - (1.0 - 2.0 * q)) < 1e-12

    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_even_in_zeta(self, kind):
        nome = ThetaNome.from_q(0.22)
        for z in [0.7, 0.3 + 0.4j]:
            assert abs(theta(kind, z, nome) - theta(kind, -z, nome)) < 1e-14

    def test_modular_identity_grid(self):
        # theta3(z|tau) = (-i tau)^(-1/2) exp(z^2/(i pi tau)) theta3(z/tau|-1/tau)
        for im_tau in [0.5, 1.0, 2.0, 5.0]:
            tau = 1j * im_tau
            nome = ThetaNome(tau)
            nome2 = ThetaNome(-1.0 / tau)
            for re_z in np.linspace(-math.pi, math.pi, 5):
                for im_z in np.linspace(-2.0, 2.0, 5):
                    z = complex(re_z, im_z)
                    lhs = theta(3, z, nome, method="direct")
                    rhs = ((-1j * tau) ** -0.5
                           * cmath.exp(z * z / (1j * math.pi * tau))
                           * theta(3, z / tau, nome2, method="direct"))
                    assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_theta2_to_theta4_transform_grid(self):
        # theta2(z|tau) = (-i tau)^(-1/2) exp(z^2/(i pi tau)) theta4(z/tau|-1/tau)
        for im_tau in [0.6, 1.0, 3.0]:
            tau = 1j * im_tau
            nome = ThetaNome(tau)
            nome2 = ThetaNome(-1.0 / tau)
            for z in [0.0, 0.4, 1.0 + 0.5j, -0.9 + 1.2j]:
                lhs = theta(2, z, nome, method="direct")
                rhs = ((-1j * tau) ** -0.5
                       * cmath.exp(z * z / (1j * math.pi * tau))
                       * theta(4, z / tau, nome2, method="direct"))
                assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1e-3)

    def test_real_positive_on_axes_for_real_nome(self):
        nome = ThetaNome.from_q(0.4)
        for t in np.linspace(-3, 3, 13):
            v_real = theta(3, t, nome)
            v_imag = theta(3, 1j * t, nome)
            assert abs(v_real.imag) < 1e-13 * abs(v_real)
            assert v_real.real > 0
            assert abs(v_imag.imag) < 1e-12 * abs(v_imag)
            assert v_imag.real > 0

    def test_complex_nome(self):
        # against mpmath-free oracle: direct brute-force partial sum
        q = 0.3 * cmath.exp(0.7j)
        nome = ThetaNome.from_q(q)
        z = 0.4 + 0.2j
        brute = 1 + sum(q ** (n * n) * (cmath.exp(2j * n * z) + cmath.exp(-2j * n * z))
                        for n in range(1, 60))
        assert abs(theta(3, z, nome) - brute) < 1e-13 * abs(brute)

    def test_array_input(self):
        nome = ThetaNome.from_q(0.2)
        zs = np.linspace(0, 3, 7)
        vals = theta(3, zs, nome)
        assert vals.shape == zs.shape
        for z, v in zip(zs, vals):
            assert abs(v - theta(3, z, nome)) < 1e-14 * abs(v)

    def test_rejects_bad_inputs(self):
        nome = ThetaNome.from_q(0.2)
        with pytest.raises(ValueError):
            theta(1, 0.0, nome)
        with pytest.raises(ValueError):
            theta(3, math.nan, nome)
        with pytest.raises(ValueError):
            theta(3, 0.0, 1.5)

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("method", ["auto", "direct", "transform"])
    def test_rejects_argument_past_2_52_periods(self, kind, method):
        # one ulp of Re zeta is a period or more there, so the reduced
        # argument had no significant bits and the value was meaningless
        period = 2 * math.pi if kind == 2 else math.pi
        zeta = 1.5 * 2.0 ** 52 * period + 0.1j
        for nome in (ThetaNome(2j), ThetaNome(0.5j)):
            with pytest.raises(ValueError, match="2\\^52 periods"):
                theta(kind, zeta, nome, method=method)
            with pytest.raises(ValueError, match="2\\^52 periods"):
                theta(kind, np.array([0.3, -zeta]), nome, method=method)

    def test_rejects_unknown_method_and_overlong_series(self):
        nome = ThetaNome.from_q(0.2)
        with pytest.raises(ValueError, match="unknown method"):
            theta(3, 0.0, nome, method="fast")
        # a = pi 1e-12: the direct series would need ~3.6e6 terms
        with pytest.raises(ValueError, match="term budget"):
            theta(3, 0.1, ThetaNome(1e-12j), method="direct")


class TestThetaDerivs:
    def test_theta3_even_first_deriv_zero(self):
        for q in [0.05, 0.3, 0.6]:
            _, d1, _ = theta_derivs(3, 0.0, ThetaNome.from_q(q))
            assert abs(d1) < 1e-14

    def test_first_deriv_vs_finite_difference(self):
        nome = ThetaNome.from_q(math.exp(-1.0))
        z, h = 0.7, 1e-5
        _, d1, _ = theta_derivs(3, z, nome)
        fd = (theta(3, z + h, nome) - theta(3, z - h, nome)) / (2 * h)
        assert abs(d1 - fd) < 1e-8 * abs(d1)

    def test_second_deriv_vs_finite_difference(self):
        nome = ThetaNome.from_q(math.exp(-1.0))
        z, h = 0.7, 1e-4
        v, _, d2 = theta_derivs(4, z, nome)
        fd = (theta(4, z + h, nome) - 2 * v + theta(4, z - h, nome)) / h ** 2
        assert abs(d2 - fd) < 1e-6 * max(abs(d2), 1.0)

    def test_theta4_second_deriv_leading_term(self):
        q = math.exp(-math.pi ** 2)
        _, _, d2 = theta_derivs(4, 0.0, ThetaNome.from_q(q))
        assert abs(d2 - 8.0 * q) < 1e-12

    def test_transform_route_derivs(self):
        nome = ThetaNome.from_q(0.5)
        z = 0.3 + 0.1j
        va, d1a, d2a = theta_derivs(3, z, nome, method="direct")
        vb, d1b, d2b = theta_derivs(3, z, nome, method="transform")
        assert abs(va - vb) < 1e-12 * abs(va)
        assert abs(d1a - d1b) < 1e-11 * max(abs(d1a), 1.0)
        assert abs(d2a - d2b) < 1e-10 * max(abs(d2a), 1.0)


def _abs_terms(kind, z, nome, order):
    """sum_m |2m|^order |q^(m^2) e^(2imz)| over the series' lattice: the
    scale of the rounding error of any term-wise evaluation."""
    lq = nome.log_q
    a = -lq.real
    n = int(abs(z.imag) / a + math.sqrt(80.0 / a)) + 3
    m = np.arange(-n, n + 1) + (0.5 if kind == 2 else 0.0)
    return float(np.sum(np.abs(2.0 * m) ** order
                        * np.exp((m * m * lq).real - 2.0 * m * z.imag)))


class TestThetaAgainstMpmath:
    """Both summation routes (a scalar call sums term by term, the values
    of an array of _BLOCK_WORK points go through the blocked route, its
    derivatives through the plain series) against mpmath.jtheta, at a
    generic point, at the kind's zero and next to it."""

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("q", [0.3 * cmath.exp(0.4j),
                                   0.99 * cmath.exp(-1.1j),
                                   0.9999 * cmath.exp(0.7j)],
                             ids=["abs_q=0.3", "abs_q=0.99", "abs_q=0.9999"])
    def test_routes_match_jtheta(self, kind, q):
        mpmath = pytest.importorskip("mpmath")
        nome = ThetaNome.from_q(q)
        half_tau = math.pi * nome.tau / 2
        zero = {2: math.pi / 2, 3: math.pi / 2 + half_tau, 4: half_tau}[kind]
        pts = np.array([0.37 + 0.2j * half_tau.imag, zero,
                        zero + 1e-7 * (1 + 1j)])
        with mpmath.workdps(25):
            mq = mpmath.mpc(q.real, q.imag)
            refs = [[complex(mpmath.jtheta(kind, mpmath.mpc(p.real, p.imag),
                                           mq, order))
                     for order in range(3)] for p in pts]
        rng = np.random.default_rng(kind)
        big = (rng.uniform(-math.pi, math.pi, _BLOCK_WORK)
               + 0.25j * half_tau.imag * rng.uniform(-1, 1, _BLOCK_WORK))
        idx = [5, _BLOCK_WORK // 2, _BLOCK_WORK - 3]
        big[idx] = pts
        for method in ("direct", "auto"):
            big_vals = theta(kind, big, nome, method=method)
            big_derivs = theta_derivs(kind, big, nome, method=method)
            for i, p in enumerate(pts):
                scale = [_abs_terms(kind, p, nome, order) for order in range(3)]
                tol = 1e-12
                assert abs(theta(kind, p, nome, method=method)
                           - refs[i][0]) < tol * scale[0]
                assert abs(big_vals[idx[i]] - refs[i][0]) < tol * scale[0]
                for order, (small, ref) in enumerate(zip(
                        theta_derivs(kind, p, nome, method=method), refs[i])):
                    assert abs(small - ref) < tol * scale[order]
                    assert abs(big_derivs[order][idx[i]] - ref) < tol * scale[order]


class TestThetaPeriodReduction:
    """theta reduces Re zeta by its period before any route: far from the
    origin every route still matches mpmath.jtheta at the same double
    zeta and q."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.floats(-1.0, 1.0),
           st.floats(0.05, 3.0), st.sampled_from([-1.0, 1.0]),
           st.floats(-1.0, 5.0), st.floats(-0.5, 0.5))
    @example(3, 0.3, 0.05, 1.0, 5.0, 0.2)
    def test_large_real_argument_matches_jtheta(self, kind, re_tau, im_tau,
                                                sign, log_re, im_frac):
        # |Re zeta| up to 1e5, |Im zeta| up to pi Im tau / 2.  Reducing a
        # double zeta by the double pi moves it by up to ~1e-11 at 1e5,
        # which the derivative turns into at most 2.7e-11 of the scale
        # over 14,000 random draws on every route; 3e-10 leaves 10x.
        # Without the reduction the error reached 1e-5 of the scale.
        mpmath = pytest.importorskip("mpmath")
        nome = ThetaNome(complex(re_tau, im_tau))
        zeta = complex(sign * 10.0 ** log_re, im_frac * math.pi * im_tau)
        with mpmath.workdps(30):
            mz = mpmath.mpc(zeta.real, zeta.imag)
            mq = mpmath.mpc(nome.q.real, nome.q.imag)
            refs = [complex(mpmath.jtheta(kind, mz, mq, order))
                    for order in range(3)]
        scale = [_abs_terms(kind, zeta, nome, order) for order in range(3)]
        # a scalar sums term by term, the values of _BLOCK_WORK copies take
        # the blocked route and their derivatives the plain series;
        # "transform" sums the tau -> -1/tau series
        points = np.full(_BLOCK_WORK, zeta)
        for method in ("direct", "transform"):
            got = [theta(kind, zeta, nome, method=method),
                   theta(kind, points, nome, method=method)[-1]]
            derivs = [theta_derivs(kind, zeta, nome, method=method),
                      [d[-1] for d in theta_derivs(kind, points, nome,
                                                   method=method)]]
            for val in got:
                assert abs(val - refs[0]) < 3e-10 * scale[0]
            for triple in derivs:
                for order in range(3):
                    assert (abs(triple[order] - refs[order])
                            < 3e-10 * scale[order])


class TestBesselI:
    def test_at_origin(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(2, 0.0) == 0.0

    def test_table_ratio_x2(self):
        assert abs(bessel_i(1, 2.0) / bessel_i(0, 2.0) - 0.6977) < 1e-4

    def test_negative_argument_parity(self):
        assert bessel_i(1, -3.0) == -bessel_i(1, 3.0)
        assert bessel_i(0, -3.0) == bessel_i(0, 3.0)

    def test_fractional_negative_argument_principal_branch(self):
        val = bessel_i(0.5, -2.0)
        ref = cmath.exp(1j * math.pi * 0.5) * bessel_i(0.5, 2.0)
        assert abs(val - ref) < 1e-14 * abs(ref)
        assert abs(val.imag) > 0  # complex result flags the branch choice

    # bessel_i wraps scipy's iv; the test keeps its name so its ids stay
    # stable, and checks against mpmath as the independent oracle
    @pytest.mark.parametrize("nu", [0.0, 1.0, 0.5, 2.7, -0.3, 5.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 7.5, 19.0, 25.0, 60.0, 300.0])
    def test_against_scipy(self, nu, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(nu, x))
        assert bessel_i(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_ratio_bound(self):
        # 0 < I1(x)/(x I0(x)) <= 1/2, equality only as x -> 0
        for x in [1e-3, 0.1, 0.7, 3.0, 15.0, 40.0, 200.0]:
            r = bessel_i(1, x) / (x * bessel_i(0, x))
            assert 0.0 < r <= 0.5

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("x", [0.5, 2.0, 6.0])
    def test_integer_order_integral_representation(self, n, x):
        # I_n(x) = (1/2 pi) int_0^{2 pi} e^{x cos phi} cos(n phi) dphi
        val, _ = integrate.quad(
            lambda phi: math.exp(x * math.cos(phi)) * math.cos(n * phi),
            0.0, 2.0 * math.pi, limit=200)
        assert bessel_i(n, x) == pytest.approx(val / (2 * math.pi), rel=1e-11)

    @pytest.mark.parametrize("nu", [0.5, 1.3, 2.7])
    @pytest.mark.parametrize("x", [0.8, 4.0, 12.0, 30.0])
    def test_fractional_order_recurrence(self, nu, x):
        # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
        lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
        rhs = 2 * nu / x * bessel_i(nu, x)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bessel_i(0, math.inf)

    def test_overflow_raises_value_error(self):
        with pytest.raises(ValueError):
            bessel_i(0, 800.0)


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0, 0) == 1.0
        assert bessel_j(3, 0) == 0.0

    def test_negative_order_parity(self):
        for z in [0.7, 2.0 + 1.0j, 9.3]:
            assert abs(bessel_j(-3, z) - (-1) ** 3 * bessel_j(3, z)) < 1e-14

    @pytest.mark.parametrize("x", [0.5, 1.5, 3.0, 7.0])
    def test_squared_sum_identity(self, x):
        total = abs(bessel_j(0, x)) ** 2 + 2 * sum(
            abs(bessel_j(n, x)) ** 2 for n in range(1, 40))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    @pytest.mark.parametrize("z", [0.3, 4.9, 5.1, 12.0, 1.0 + 2.0j,
                                   -3.0 + 0.5j, 8.0 - 4.0j])
    def test_against_scipy(self, n, z):
        # bessel_j wraps scipy's jv; mpmath is the independent oracle (the
        # name is kept so the test ids stay stable)
        mpmath = pytest.importorskip("mpmath")
        z = complex(z)
        with mpmath.workdps(30):
            ref = complex(mpmath.besselj(n, mpmath.mpc(z.real, z.imag)))
        assert abs(bessel_j(n, z) - ref) < 1e-12 * max(abs(ref), 1e-8)

    def test_integer_order_array(self):
        z = 2.0 - 1.5j
        ns = np.arange(-4, 5)
        vals = bessel_j(ns, z)
        assert vals.shape == ns.shape
        assert all(vals[i] == bessel_j(int(n), z) for i, n in enumerate(ns))
        with pytest.raises(ValueError):
            bessel_j(np.array([0, 1.5]), z)

    def test_product_sum_identity(self):
        # sum_n J_n(z) J_{-n}(z) = J_0(2z)
        z = 1.3 - 0.4j
        total = sum(bessel_j(n, z) * bessel_j(-n, z) for n in range(-25, 26))
        assert abs(total - bessel_j(0, 2 * z)) < 1e-13

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bessel_j(0, complex(math.inf, 0))


class TestEllipticSuite:
    def test_zero_argument(self):
        rec = elliptic_suite(0.0, ThetaNome.from_q(math.exp(-1.0)))
        assert rec.sn == 0.0
        assert rec.cn == 1.0
        assert rec.dn == 1.0
        assert abs(rec.Z) < 1e-12

    def test_moduli_identity(self):
        rec = elliptic_suite(0.4, ThetaNome.from_q(math.exp(-1.0)))
        assert abs(rec.k ** 2 + rec.kprime ** 2 - 1.0) < 1e-12

    def test_sn_cn_dn_identities(self):
        rec = elliptic_suite(0.4, ThetaNome.from_q(math.exp(-1.0)))
        assert abs(rec.sn ** 2 + rec.cn ** 2 - 1.0) < 1e-12
        assert abs(rec.dn ** 2 + rec.k ** 2 * rec.sn ** 2 - 1.0) < 1e-12

    def test_theta_null_K_vs_agm(self):
        rec = elliptic_suite(0.0, ThetaNome.from_q(math.exp(-1.0)))
        assert rec.K == pytest.approx(special.ellipk(rec.k ** 2), rel=1e-13)

    @pytest.mark.parametrize("q", [0.1, math.exp(-1.0), 0.5])
    @pytest.mark.parametrize("zeta", [0.15, 0.4, 0.9, 1.4])
    def test_dn_ratio_identity(self, q, zeta):
        # theta4/theta3 (zeta) = sqrt(k') / dn(u, k)
        nome = ThetaNome.from_q(q)
        rec = elliptic_suite(zeta, nome)
        lhs = (theta(4, zeta, nome) / theta(3, zeta, nome)).real
        rhs = math.sqrt(rec.kprime) / rec.dn
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    @pytest.mark.parametrize("q", [0.1, math.exp(-1.0)])
    @pytest.mark.parametrize("zeta", [0.15, 0.4, 1.1])
    def test_log_deriv_identity(self, q, zeta):
        # theta3'/theta3 = theta4'/theta4 - (2K/pi) k^2 cn sn / dn,
        # with theta4'/theta4 = (2K/pi) Z(u)
        nome = ThetaNome.from_q(q)
        rec = elliptic_suite(zeta, nome)
        v3, d3, _ = theta_derivs(3, zeta, nome)
        v4, d4, _ = theta_derivs(4, zeta, nome)
        two_k_pi = 2.0 * rec.K / math.pi
        assert abs((d4 / v4).real - two_k_pi * rec.Z) < 1e-9 * max(abs(rec.Z), 1.0)
        rhs = (d4 / v4).real - two_k_pi * rec.k ** 2 * rec.cn * rec.sn / rec.dn
        assert abs((d3 / v3).real - rhs) < 1e-9 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("q", [0.1, math.exp(-1.0)])
    @pytest.mark.parametrize("zeta", [0.15, 0.4, 1.1])
    def test_second_log_deriv_identity(self, q, zeta):
        # d^2 log theta3 / dzeta^2 = (4K^2/pi^2) [k'^2/dn^2 - E/K]
        nome = ThetaNome.from_q(q)
        rec = elliptic_suite(zeta, nome)
        v, d1, d2 = theta_derivs(3, zeta, nome)
        lhs = (d2 / v - (d1 / v) ** 2).real
        rhs = (4.0 * rec.K ** 2 / math.pi ** 2) * (
            rec.kprime ** 2 / rec.dn ** 2 - rec.E / rec.K)
        assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)

    def test_rejects_complex_nome(self):
        with pytest.raises(ValueError):
            elliptic_suite(0.3, ThetaNome.from_q(0.3 + 0.2j))


# The I1/I0 ratio table: x, I1/I0, I1/(x I0), g = 1 - r1^2 - r2.
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


class TestGRatio:
    @pytest.mark.parametrize("x,r1,r2,g", RATIO_TABLE)
    def test_reference_table(self, x, r1, r2, g):
        rec = g_ratio(x)
        assert abs(rec.r1 - r1) < 5e-4
        assert abs(rec.r2 - r2) < 5e-4
        assert abs(rec.g - g) < 5e-4

    def test_even(self):
        for x in [0.05, 0.7, 3.0, 42.0]:
            assert g_ratio(x).g == pytest.approx(g_ratio(-x).g, rel=1e-13)

    def test_large_x_asymptote(self):
        for x in [50.0, 200.0, 1000.0]:
            assert g_ratio(x).g == pytest.approx(0.5 / x ** 2, rel=0.05)

    def test_r2_bound(self):
        for x in [0.0, 5e-324, 1e-310, 0.01, 0.5, 2.0, 20.0, 500.0, -3.0]:
            assert 0.0 < g_ratio(x).r2 <= 0.5

    def test_against_scipy(self):
        # g_ratio is built on scipy's i1e/i0e; mpmath is the independent
        # oracle (the name is kept so the test id stays stable)
        mpmath = pytest.importorskip("mpmath")
        for x in [0.3, 1.7, 12.0, 80.0]:
            rec = g_ratio(x)
            with mpmath.workdps(30):
                ref = float(mpmath.besseli(1, x) / mpmath.besseli(0, x))
            assert rec.r1 == pytest.approx(ref, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            g_ratio(math.nan)

    def test_array_gives_the_scalar_bits(self):
        xs = [0.0, 1e-9, -1e-9, 5e-324, 1e-8, 0.1, -3.0, 2.0, 20.0, 700.0]
        rec = g_ratio(np.array(xs))
        for i, x in enumerate(xs):
            one = g_ratio(x)
            assert type(one.r1) is float and type(one.g) is float
            assert (rec.r1[i], rec.r2[i], rec.g[i]) == (one.r1, one.r2, one.g)

    def test_array_keeps_shape_and_rejects_nonfinite(self):
        rec = g_ratio(np.linspace(0.0, 3.0, 6).reshape(2, 3))
        assert rec.r1.shape == rec.r2.shape == rec.g.shape == (2, 3)
        with pytest.raises(ValueError):
            g_ratio(np.array([1.0, math.inf]))


class TestBesselHalfWidth:
    """`_bessel_half_width` sizes every Bessel window from the smaller of
    the DLMF 10.14.4 and the I_k(|z|) half-widths; the true tails it leaves
    are checked against mpmath here, in test_mincs.py (min_state) and in
    test_circlespace.py (rep_apply taps)."""

    # the real arguments' half-widths as tabulated when the DLMF rule was
    # adopted, the complex ones at the I_k bound (8, 16 and 62 under the
    # DLMF bound alone); the +-2 covers the choice of h (tail past h or from
    # h), while a margin added on top of the bound fails
    @pytest.mark.parametrize("z,tol,expected", [
        (0.5 - 1j, 1e-14, 8), (3 - 4j, 1e-14, 15), (20 - 30j, 1e-14, 40),
        (0.3, 1e-32, 11), (5.0, 1e-32, 27), (50.0, 1e-32, 97)])
    def test_pinned_half_widths(self, z, tol, expected):
        assert abs(_bessel_half_width(z, tol) - expected) <= 2

    def test_conjugate_and_sign_symmetric(self):
        for z in (0.5 - 1j, 20 - 30j, 7.0, 300j):
            h = _bessel_half_width(z, 1e-20)
            assert h == _bessel_half_width(z.conjugate(), 1e-20)
            assert h == _bessel_half_width(-z, 1e-20)

    def test_true_tail_below_tol(self):
        # random arguments across both bounds' regimes: the discarded
        # 2 sum_{k>h} |J_k(z)|^2 stays below tol I0(2s)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        for _ in range(12):
            z = complex(*(rng.uniform(-1.0, 1.0, 2)
                          * 10 ** rng.uniform(-1, 2.5)))
            tol = 10.0 ** rng.uniform(-30, -6)
            h = _bessel_half_width(z, tol)
            with mpmath.workdps(30):
                zm = mpmath.mpc(z.real, z.imag)
                stop = h + int(8 * math.sqrt(abs(z))) + 60
                tail = 2 * mpmath.fsum(abs(mpmath.besselj(k, zm)) ** 2
                                       for k in range(h + 1, stop))
                assert tail <= tol * mpmath.besseli(0, 2 * abs(z.imag))

    def test_zero_argument_is_one_order(self):
        assert _bessel_half_width(0j, 1e-32) == 0

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_rejects_nonfinite(self, z):
        with pytest.raises(ValueError):
            _bessel_half_width(z, 1e-12)

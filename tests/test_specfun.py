"""Special-function kernel checks against independent oracles.

Theta values are cross-checked between the direct and modular-transformed
series, Bessel functions against mpmath, the integral representation, the
recurrences and the classical sum identities, and the elliptic record
against the theta-ratio identity web.
"""

import cmath
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from circleqm import specfun, zakcs
from circleqm.circlespace import Sector
from circleqm.specfun import (
    _PLAN_TERMS,
    _bessel_half_width,
    _bessel_window,
    _Nodes,
    _S,
    _move,
    _reduce_tau,
    _shifted,
    _term_plan,
    _theta_dispatch,
    ThetaNome,
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

    def test_im_tau_is_a_normal_double(self):
        # Im gamma tau <= 1/Im tau: a subnormal Im tau has modular images
        # past double range, so the nome refuses it
        for im in (math.nextafter(2.0 ** -1022, 0.0), 1e-309, 5e-324):
            with pytest.raises(ValueError, match="2\\^-1022"):
                ThetaNome(complex(0.0, im))
        assert ThetaNome(complex(0.5, 2.0 ** -1022)).tau.imag == 2.0 ** -1022

    def test_zero_q_needs_underflowing_tau(self):
        # q = 0 has no tau: only a finite tau whose q underflows reaches it,
        # and the nome keeps that tau
        with pytest.raises(ValueError, match="0 < \\|q\\|"):
            ThetaNome.from_q(0.0)
        with pytest.raises(ValueError, match="finite"):
            ThetaNome(complex(0.0, math.inf))
        nome = ThetaNome(238j)
        assert nome.q == 0 and nome.log_q == 1j * math.pi * 238j


def _route_nomes(route, nomes):
    """The nomes and the method of a route: "transform" is "auto" at nomes
    where the walk takes S alone; "auto" and "direct" take `nomes`."""
    if route != "transform":
        return nomes, route
    nomes = (ThetaNome(0.5j), ThetaNome(0.05j))
    assert all(_reduce_tau(n.tau, 3).gamma == _S for n in nomes)
    return nomes, "auto"


class TestTheta:
    def test_zero_nome_leading_term(self):
        # q = e^{-1000 pi} underflows to 0; each kind is its leading term
        nome = ThetaNome(1000j)
        assert nome.q == 0
        assert theta(3, 0.0, nome) == 1.0
        assert theta(4, 0.3, nome) == 1.0
        assert theta(2, 0.0, nome) == 0.0

    @pytest.mark.parametrize("tau", [40j, 300j, 1000j, 0.3 + 300j])
    def test_transform_needs_only_a_finite_tau(self, tau):
        # the walk takes S from -1/tau back to tau; from Im tau ~ 237 on q
        # underflows to 0, but the move reads only tau, which every nome
        # holds finite.  Seen within 1.7e-16 of jtheta.
        mpmath = pytest.importorskip("mpmath")
        small = -1.0 / tau
        mod = _reduce_tau(small, 3)
        assert mod.gamma == _S and mod.tau == tau
        with mpmath.workdps(40):
            ref = complex(mpmath.jtheta(3, 0.1, mpmath.exp(
                1j * mpmath.pi * mpmath.mpc(small.real, small.imag))))
        assert abs(theta(3, 0.1, ThetaNome(small)) - ref) <= 1e-15 * abs(ref)

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

    def test_direct_vs_transform_tau_2i(self):
        # at tau = 0.5 i the walk takes S, the series at -1/tau = 2 i
        nome = ThetaNome(0.5j)
        assert _reduce_tau(nome.tau, 3).tau == 2j
        a = theta(3, 0.3, nome, method="direct")
        b = theta(3, 0.3, nome)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_period_pi(self):
        nome = ThetaNome.from_q(0.17)
        for z in [0.0, 0.4, 1.3 + 0.2j, -2.0 + 1j]:
            assert abs(theta(3, z + math.pi, nome) - theta(3, z, nome)) < 1e-13

    def test_auto_reduces_tau_to_the_fundamental_domain(self):
        # "auto" sums the direct series where tau is in the fundamental
        # domain or a translation takes it there, takes S alone at Re tau =
        # 0, and otherwise the move of the walk, whose tau' has Im tau' >=
        # sqrt(3)/2 and whose value matches the direct series; also just
        # off |tau| = 1 and Im tau = 1
        re = np.linspace(-1.0, 1.0, 21)
        im = np.concatenate([np.linspace(0.05, 3.0, 12),
                             1.0 + np.array([-1e-9, 1e-9])])
        angles = np.linspace(0.06, math.pi - 0.06, 25)
        rim = np.outer(1.0 + np.array([-1e-9, 1e-9]), np.exp(1j * angles))
        taus = np.concatenate([(re[:, None] + 1j * im).ravel(), rim.ravel()])
        zeta = np.array([0.3, 0.7 + 0.2j])
        picked = set()
        for tau in taus:
            nome = ThetaNome(tau)
            auto = theta(3, zeta, nome)
            mod = _reduce_tau(complex(tau), 3)
            if tau.real == 0.0:
                method = "S" if tau.imag < 1.0 else "direct"
            elif abs(tau.real) <= 0.5 and abs(tau) >= 1.0:
                method = "direct"
            else:
                method = "direct" if mod is None else "reduced"
            picked.add(method)
            if method == "direct":
                assert mod is None and np.array_equal(
                    auto, theta(3, zeta, nome, method=method)), tau
                continue
            assert method == "reduced" or mod.gamma == _S, tau
            assert mod.tau.imag >= math.sqrt(3.0) / 2.0 - 1e-15, tau
            direct = theta(3, zeta, nome, method="direct")
            assert np.max(np.abs(auto - direct)) < 1e-13 * _abs_terms(
                3, 0.7 + 0.2j, nome, 0), tau
        assert picked == {"direct", "S", "reduced"}

    def test_transform_keeps_small_values_of_a_cancelling_direct_series(self):
        # theta3(pi/2 | 0.05 i) = theta4(0) ~ 1.3e-6: every direct term is
        # ~1 and the largest transformed one ~e^{-16}, so this is the
        # transform's home ground, not a cancellation; the walk takes S
        mpmath = pytest.importorskip("mpmath")
        nome = ThetaNome(0.05j)
        assert _reduce_tau(nome.tau, 3).gamma == _S
        val = theta(3, math.pi / 2, nome)
        ref = complex(mpmath.jtheta(3, mpmath.pi / 2, mpmath.exp(-0.05 * mpmath.pi)))
        assert abs(val - ref) < 1e-13 * abs(ref)

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
        nomes, method = _route_nomes(method, (ThetaNome(2j), ThetaNome(0.5j)))
        for nome in nomes:
            with pytest.raises(ValueError, match="2\\^52 periods"):
                theta(kind, zeta, nome, method=method)
            with pytest.raises(ValueError, match="2\\^52 periods"):
                theta(kind, np.array([0.3, -zeta]), nome, method=method)

    @pytest.mark.parametrize("method", ["auto", "direct", "transform"])
    @pytest.mark.parametrize("im", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_imaginary_argument(self, method, im):
        nomes, method = _route_nomes(method, (
            ThetaNome(2j), ThetaNome(0.5j), ThetaNome(0.3 + 0.01j)))
        for nome in nomes:
            for zeta in (complex(0.3, im), np.array([0.3, complex(0.1, im)])):
                with pytest.raises(ValueError, match="zeta not finite"):
                    theta(3, zeta, nome, method=method)
            # derivatives are taken of a number only
            with pytest.raises(ValueError, match="zeta not finite"):
                _theta_dispatch(4, complex(0.3, im), nome, method, True)

    @pytest.mark.parametrize("derivs", [False, True],
                             ids=["theta", "theta_derivs"])
    def test_value_past_double_range_refused(self, derivs):
        # theta_3(30 i | 0.01 i) ~ e^{~900}: refused, not inf with a warning
        # (both routes, "auto" by S; the values of a number and an array,
        # the derivatives of a number)
        for method in ("auto", "direct"):
            for zeta in (30j,) if derivs else (30j, np.array([0.1, 30j])):
                with pytest.raises(ValueError, match="finite double"):
                    _theta_dispatch(3, zeta, ThetaNome(0.01j), method, derivs)

    def test_rejects_unknown_method_and_overlong_series(self):
        nome = ThetaNome.from_q(0.2)
        # "transform", the forced move S, is gone: the walk picks S itself
        for method in ("fast", "transform"):
            with pytest.raises(ValueError, match="unknown method"):
                theta(3, 0.0, nome, method=method)
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
        # q = 1/2 is tau = 0.22 i, where the walk takes S
        nome = ThetaNome.from_q(0.5)
        assert _reduce_tau(nome.tau, 3).gamma == _S
        z = 0.3 + 0.1j
        va, d1a, d2a = _theta_dispatch(3, z, nome, "direct", True)
        vb, d1b, d2b = theta_derivs(3, z, nome)
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


# points of the array calls below: enough for Horner's rule wherever the
# series is short
_ARRAY = 1024


class TestThetaAgainstMpmath:
    """Every summation route (a number and every derivative sum term by
    term, the values of an array of _ARRAY points take Horner's rule where
    the series is short) against mpmath.jtheta, at a generic point, at the
    kind's zero and next to it.  The real nome exp(-0.4 pi) is tau = 0.4 i,
    where the walk takes S."""

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("q", [0.3 * cmath.exp(0.4j),
                                   0.99 * cmath.exp(-1.1j),
                                   0.9999 * cmath.exp(0.7j),
                                   cmath.exp(1j * math.pi * (0.5 + 1j / 60)),
                                   cmath.exp(1j * math.pi * (0.5 + 1j / 68)),
                                   math.exp(-0.4 * math.pi)],
                             ids=["abs_q=0.3", "abs_q=0.99", "abs_q=0.9999",
                                  "tau=1/2+i/60", "tau=1/2+i/68", "tau=0.4i"])
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
        big = (rng.uniform(-math.pi, math.pi, _ARRAY)
               + 0.25j * half_tau.imag * rng.uniform(-1, 1, _ARRAY))
        idx = [5, _ARRAY // 2, _ARRAY - 3]
        big[idx] = pts
        for method in ("direct", "auto"):
            big_vals = theta(kind, big, nome, method=method)
            for i, p in enumerate(pts):
                scale = [_abs_terms(kind, p, nome, order) for order in range(3)]
                tol = 1e-12
                assert abs(theta(kind, p, nome, method=method)
                           - refs[i][0]) < tol * scale[0]
                assert abs(big_vals[idx[i]] - refs[i][0]) < tol * scale[0]
                for order, (small, ref) in enumerate(zip(
                        _theta_dispatch(kind, p, nome, method, True), refs[i])):
                    assert abs(small - ref) < tol * scale[order]


class TestThetaPeriodReduction:
    """theta reduces Re zeta by its period before any route: far from the
    origin every route still matches mpmath.jtheta at the same double
    zeta and q."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.floats(-1.0, 1.0),
           st.floats(0.05, 3.0), st.sampled_from([-1.0, 1.0]),
           st.floats(-1.0, 5.0), st.floats(-0.5, 0.5))
    @example(3, 0.3, 0.05, 1.0, 5.0, 0.2)
    # Re tau = 0 below Im tau = 1: the walk's S, for each kind
    @example(2, 0.0, 0.3, -1.0, 4.0, 0.4)
    @example(3, 0.0, 0.05, 1.0, 5.0, -0.3)
    @example(4, 0.0, 0.7, 1.0, 2.5, 0.5)
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
        # a number and its derivatives sum term by term, the values of
        # _ARRAY copies take Horner's rule where the series is short;
        # "auto" takes the walk's move (S at Re tau = 0)
        points = np.full(_ARRAY, zeta)
        for method in ("direct", "auto"):
            got = [theta(kind, zeta, nome, method=method),
                   theta(kind, points, nome, method=method)[-1]]
            for val in got:
                assert abs(val - refs[0]) < 3e-10 * scale[0]
            triple = _theta_dispatch(kind, zeta, nome, method, True)
            for order in range(3):
                assert abs(triple[order] - refs[order]) < 3e-10 * scale[order]


    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("re_tau", [1.2e5, 1e6, 2.0 ** 40, 1e12])
    def test_large_real_tau_matches_series(self, kind, re_tau):
        # the direct series, reached by "auto" through a translation alone,
        # is summed at Re tau reduced by theta's period in tau (2, 8 for
        # kind 2); at the given tau m^2 pi Re tau was rounded: 2.8e-12 off
        # at 1.2e5 and 2.9e-5 at 1e12 for kind 3
        mpmath = pytest.importorskip("mpmath")
        zeta, tau = 0.1 + 0.2j, complex(re_tau, 1.0)
        with mpmath.workdps(60):
            lq = 1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag)
            mz = mpmath.mpc(zeta.real, zeta.imag)
            half = mpmath.mpf(1) / 2 if kind == 2 else 0
            ref = complex(mpmath.fsum(
                (-1) ** (m % 2 if kind == 4 else 0)
                * mpmath.exp((m + half) ** 2 * lq + 2j * (m + half) * mz)
                for m in range(-12, 12)))
        for method in ("auto", "direct"):
            val = theta(kind, zeta, ThetaNome(tau), method=method)
            assert abs(val - ref) < 1e-14 * abs(ref), method


# -- the modular reduction of tau -------------------------------------------

_FIXED_BITS = 160


def _mpmath():
    return pytest.importorskip("mpmath")


def _fixed(z):
    nint, scale = _mpmath().nint, 2 ** _FIXED_BITS
    return int(nint(z.real * scale)), int(nint(z.imag * scale))


def _half_series(term, step, q2):
    """sum_n t_n in fixed point, t_{n+1} = t_n u_n, u_{n+1} = u_n q2, until
    the terms fall below 2^-140 past the peak."""
    tr, ti = term
    ur, ui = step
    qr, qi = q2
    sr = si = 0
    bits, tiny, unit = _FIXED_BITS, 1 << 20, 1 << _FIXED_BITS
    while True:
        sr += tr
        si += ti
        tr, ti = (tr * ur - ti * ui) >> bits, (tr * ui + ti * ur) >> bits
        ur, ui = (ur * qr - ui * qi) >> bits, (ur * qi + ui * qr) >> bits
        if (-tiny < tr < tiny and -tiny < ti < tiny
                and abs(ur) + abs(ui) < unit):
            return sr, si


def _theta_fixed_point(kind, zeta, tau):
    """theta_kind(zeta | tau) at the double zeta and tau, every term of the
    series summed in 160-bit fixed point from 55-digit mpmath values of q^2,
    the first term and the first ratio: 40 digits and more, at any |q| < 1
    (mpmath.jtheta refuses |q| > 1 - 1e-7 and takes 0.4 s a point at
    Im tau = 8e-6)."""
    mpmath = _mpmath()
    with mpmath.workdps(55):
        lq = 1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag)
        z = mpmath.mpc(zeta.real, zeta.imag)
        q2 = _fixed(mpmath.exp(2 * lq))
        sign = -1 if kind == 4 else 1
        total = [0, 0]
        for side in (1, -1):
            # m from m0 up (side 1) or down (side -1), m0 = 1/2 for kind 2;
            # for kinds 3 and 4 the down side starts at |m| = 1
            m0 = mpmath.mpf(0.5) if kind == 2 else (0 if side == 1 else 1)
            term = (mpmath.exp(m0 * m0 * lq + 2j * side * m0 * z)
                    * (sign if m0 == 1 else 1))
            step = mpmath.exp((2 * m0 + 1) * lq + 2j * side * z) * sign
            part = _half_series(_fixed(term), _fixed(step), q2)
            total[0] += part[0]
            total[1] += part[1]
        return complex(total[0] / 2 ** _FIXED_BITS,
                       total[1] / 2 ** _FIXED_BITS)


def _gauss_multiplier(kind, gamma, nu2):
    """exp(i pi/4) G(nu) / sqrt(c), nu = nu2/2: by Poisson summation over
    the residues of the index mod c, theta_kind(zeta|tau) = (-i c w)^(-1/2)
    exp(-i c zeta^2/(pi w)) sum_nu G(nu) q'^(nu^2) exp(2 i nu zeta/w), with
    the Gauss sums G(nu) = exp(-i pi a nu^2/c) sum_r exp(i pi (-d r^2 + 2 nu
    r)/c) ((-1)^r more for kind 4; r odd up to 2c and 4c in place of c
    for kind 2).  Every phase numerator is an exact integer mod 8c."""
    a, _, c, d = gamma
    if kind == 2:
        r = np.arange(1, 2 * c, 2, dtype=np.int64)
        num = -d * r * r + 2 * nu2 * r
    else:
        r = np.arange(c, dtype=np.int64)
        num = -4 * d * r * r + 4 * nu2 * r + (4 * c * r if kind == 4 else 0)
    total = np.sum(np.exp(1j * math.pi * (num % (8 * c)) / (4 * c)))
    pre = cmath.exp(-1j * math.pi * ((a * nu2 * nu2) % (8 * c)) / (4 * c))
    return cmath.exp(0.25j * math.pi) * pre * total / math.sqrt(c)


def _walk_taus():
    """Im tau from 1.6e-9 to 1 against Re tau over (-1, 1], and tau within
    1e-9 of every p/q in (-1, 1], q <= 64 (the kernel's revival times):
    Re tau within 4e-10, Im tau 4e-10 to 9e-10."""
    rng = np.random.default_rng(18)
    taus = [complex(x, y) for y in np.geomspace(1.6e-9, 1.0, 9)
            for x in np.concatenate([rng.uniform(-1.0, 1.0, 10),
                                     [-0.5 + 1e-12, 0.5, 1.0]])]
    ims = (9e-10, 4e-10, 6e-10)
    for q in range(1, 65):
        for p in range(-q + 1, q + 1):
            if math.gcd(p, q) == 1:
                shift = (0.0, 4e-10, -4e-10)[(p + q) % 3]
                taus.append(complex(p / q + shift, ims[(p * q) % 3]))
    return taus


class TestModularReduction:
    """`_reduce_tau`'s walk in S and T and the "auto" route built on it."""

    def test_walk_lands_in_the_fundamental_domain_exactly(self):
        for tau in _walk_taus():
            mod = _reduce_tau(tau, 3)
            if mod is None:  # a translation alone: tau - n is in the domain
                n = round(tau.real)
                assert abs(tau.real - n) <= 0.5 and abs(tau - n) >= 1.0
                continue
            a, b, c, d = mod.gamma
            assert a * d - b * c == 1 and c >= 1, tau
            x, y = Fraction(tau.real), Fraction(tau.imag)
            den = (c * x + d) ** 2 + (c * y) ** 2
            re = ((a * x + b) * (c * x + d) + a * c * y * y) / den
            im = y / den
            assert abs(re) <= Fraction(1, 2) and re * re + im * im >= 1, tau
            # gamma tau, w = c tau + d and c w, each correctly rounded
            assert mod.tau == complex(float(re), float(im)), tau
            assert mod.w == complex(float(c * x + d), float(c * y)), tau
            assert mod.cw == complex(float(c * (c * x + d)),
                                     float(c * c * y)), tau

    def test_walk_answers_in_the_domain_and_on_the_imaginary_axis(self):
        # the walk answers None for a tau in the domain (its edges
        # included) and, at Re tau = 0 below Im tau = 1, takes S alone:
        # gamma = S, w = c w = tau, tau' = i/Im tau correctly rounded,
        # the S partner and the prefactor (-i tau)^(-1/2), eighth 1
        for tau in (0.5 + 1j, -0.5 + 1j, 0.3 + 0.96j, 1j, 2j, 0.1 + 5j):
            assert _reduce_tau(tau, 3) is None, tau
        for tau in (0.999j, 0.5j, 0.3j, 1e-3j, 1e-9j, 3e-15j):
            for kind, partner in ((2, 4), (3, 3), (4, 2)):
                mod = _reduce_tau(tau, kind)
                assert mod[:5] == ((0, -1, 1, 0), tau, tau,
                                   complex(0.0, 1.0 / tau.imag), partner), tau
                assert mod.pref == (-1j * tau) ** -0.5, tau
                assert mod == _move(tau, _S, tau, tau, -1.0 / tau, partner,
                                    1), tau
        # the pair straddling the completed squares' threshold
        # (`test_routes_match_jtheta`): c = 2, Im tau' = 15 and 17
        for den, im in ((60, 15.0), (68, 17.0)):
            mod = _reduce_tau(complex(0.5, 1.0 / den), 3)
            assert mod.gamma[2] == 2 and abs(mod.tau.imag - im) < 1e-12

    @pytest.mark.parametrize("im", [1e-200, 1e-300, 1e-307, 2.0 ** -1022])
    def test_walk_near_the_real_axis_past_double_range_products(self, im):
        # with Im tau < 1e-277 the walk's integer products pass double
        # range (its arg tau' once overflowed converting them); at Re tau =
        # 0 and 1/2 the move stays small, and theta_3(0 | r + i y) is its
        # Gauss sum over y^(1/2), the rest exp(-pi/(4 y)) = 0:
        # y^(-1/2) at r = 0, (1 + i)/(2 y^(1/2)) at r = 1/2
        for re, c, value in ((0.0, 1, 1.0), (0.5, 2, (1 + 1j) / 2)):
            tau = complex(re, im)
            assert _reduce_tau(tau, 3).gamma[2] == c
            got = theta(3, 0.0, ThetaNome(tau)) * math.sqrt(im)
            assert abs(got - value) <= 1e-15 * abs(value), (tau, got)

    def test_guard_tested_below_im_tau_1e_12(self):
        # the old guard's points, Im tau = 1e-13: S (w = tau) and gamma =
        # (-1 0; 2 -1) (w = 2 tau - 1).  Each value, of an array or of a
        # number, is within 2.8e-16 of the Poisson sums
        # P_h(zeta) = y^(-1/2) sum_n exp(-(zeta - (n + h) pi)^2 / (pi y)):
        # theta_2 | iy is P_0 with signs (-1)^n, theta_3 | iy = P_0, and at
        # tau = 1/2 + iy, where exp(i pi n^2 / 2) is 1 or i by parity,
        # theta_3 = ((1 + i) P_0 + (1 - i) P_1/2) / 2 and theta_4 its
        # conjugate weights
        mpmath = _mpmath()
        y = 1e-13
        root = math.sqrt(y)

        def poisson(z, half, signed=False):
            with mpmath.workdps(40):
                n0 = int(mpmath.nint(mpmath.mpf(z) / mpmath.pi))
                return complex(sum(
                    (-1) ** (n if signed else 0) * mpmath.exp(
                        -(mpmath.mpf(z) - (n + mpmath.mpf(half)) * mpmath.pi)
                        ** 2 / (mpmath.pi * y))
                    for n in range(n0 - 3, n0 + 4)) / mpmath.sqrt(y))

        cases = {(2, 0.0): lambda z: poisson(z, 0, True),
                 (3, 0.0): lambda z: poisson(z, 0),
                 (3, 0.5): lambda z: ((1 + 1j) * poisson(z, 0)
                                      + (1 - 1j) * poisson(z, 0.5)) / 2,
                 (4, 0.5): lambda z: ((1 - 1j) * poisson(z, 0)
                                      + (1 + 1j) * poisson(z, 0.5)) / 2}
        zetas = (0.0, 0.4 * root, -1.3 * root, math.pi / 2 + 0.7 * root,
                 -math.pi / 2 - 0.2 * root)
        for (kind, re), oracle in cases.items():
            nome = ThetaNome(complex(re, y))
            mod = _reduce_tau(nome.tau, kind)
            assert mod.gamma == ((0, -1, 1, 0) if re == 0.0
                                 else (-1, 0, 2, -1))
            vals = theta(kind, np.array(zetas), nome)
            for z, val in zip(zetas, vals):
                ref = oracle(z)
                # the array's fused series and the number's squares
                for got in (val, theta(kind, z, nome)):
                    assert abs(got - ref) <= 2e-15 * abs(ref), (kind, re, z)

    def test_multiplier_is_an_eighth_root_times_w_to_the_minus_half(self):
        # theta_kind(zeta|tau) = exp(i pi eighth/4) w^(-1/2) exp(-i c
        # zeta^2/(pi w)) theta_partner(zeta/w | gamma tau): the Gauss sums
        # of the Poisson form must equal exp(i pi eighth/4) times the
        # partner's signs, on the partner's lattice of nu
        for tau in _walk_taus()[::4]:
            for kind in (2, 3, 4):
                mod = _reduce_tau(tau, kind)
                if mod is None:
                    continue
                a, b, c, d = mod.gamma
                half = {3: c * d, 4: c * (d + 1), 2: d * (c + 1)}[kind] % 2
                assert (half == 1) == (mod.partner == 2), (tau, kind)
                # exp(i pi eighth/4), read off the prefactor
                unit = mod.pref * cmath.sqrt(mod.w)
                for nu2 in (half, half + 2, half - 4):
                    sign = (-1) ** (nu2 // 2) if mod.partner == 4 else 1
                    got = _gauss_multiplier(kind, mod.gamma, nu2)
                    assert abs(got - sign * unit) < 1e-9, (tau, kind, nu2)

    def test_walk_refuses_a_tau_beyond_its_integer_range(self):
        # sqrt(2) - 1 has no good rational approximations, so c passes 2^25
        # before Im tau' reaches sqrt(3)/2; 0.3 is 3/10 to 1e-17, so c = 10
        # takes tau' there at once
        with pytest.raises(ValueError, match="unit circle"):
            theta(3, 0.1, ThetaNome(complex(math.sqrt(2.0) - 1.0, 1e-20)))
        assert _reduce_tau(complex(0.3, 1e-17), 3).gamma[2] == 10

    def test_fixed_point_oracle_matches_jtheta(self):
        mpmath = _mpmath()
        for kind in (2, 3, 4):
            for tau, zeta in ((0.3 + 1e-3j, 0.7 + 0.01j),
                              (-0.41 + 2e-2j, -1.1 - 0.05j)):
                with mpmath.workdps(40):
                    ref = complex(mpmath.jtheta(
                        kind, mpmath.mpc(zeta.real, zeta.imag),
                        mpmath.exp(1j * mpmath.pi
                                   * mpmath.mpc(tau.real, tau.imag))))
                assert abs(_theta_fixed_point(kind, zeta, tau) - ref) <= (
                    1e-15 * abs(ref))

    @staticmethod
    def _auto_error(kind, log_damping, log_t, delta, eps, dphi):
        """max |auto - oracle| / max |oracle| over the kernel's theta
        arguments (dphi - eps delta T)/2 at T = t - i eta, eps eta =
        10^log_damping, tau as `zakcs._flow_theta` forms it; the samples
        are the given angles and the largest |theta| on a 512-point grid."""
        t, damping = 10.0 ** log_t, 10.0 ** log_damping
        big_t = complex(t, -damping / eps)
        tau = complex(cmath.phase(cmath.exp(-0.5j * eps * t)) / math.pi,
                      damping / (2.0 * math.pi))
        nome = ThetaNome(tau)
        grid = np.linspace(-math.pi, math.pi, 512, endpoint=False)
        peak = grid[np.argmax(np.abs(theta(
            kind, grid / 2.0 - eps * delta * big_t / 2.0, nome)))]
        zeta = np.append(dphi, peak) / 2.0 - eps * delta * big_t / 2.0
        got = theta(kind, zeta, nome)
        ref = np.array([_theta_fixed_point(kind, z, tau) for z in zeta])
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    @pytest.mark.parametrize("re_tau", [-1.0, 0.5, 2.0 / 3.0, -0.25])
    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_revival_sums_each_term_as_one_square(self, kind, re_tau):
        # tau at a rational plus 1.6e-5 i (eps omega eta = 1e-4 at a
        # revival time): Im tau' reaches 6e4, and the Gaussian and the
        # series' exponents, apart, cancelled from ~1e5 to O(1) (8e-12 at
        # tau = -1 + 1.6e-5 i); as one square, 1e-15
        tau = complex(re_tau, 1e-4 / (2.0 * math.pi))
        nome = ThetaNome(tau)
        grid = np.linspace(-math.pi, math.pi, 512, endpoint=False) / 2.0
        vals = theta(kind, grid, nome)
        idx = [int(np.argmax(np.abs(vals))), 100, 311]
        ref = np.array([_theta_fixed_point(kind, grid[i], tau) for i in idx])
        assert np.max(np.abs(vals[idx] - ref)) < 2e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t", [15.3, 17.6, 19.9])
    def test_lattice_shift_keeps_a_drifted_argument_exact(self, t):
        # eps = 2, delta = 0.99, eps omega eta = 1e-6: Re zeta drifts to
        # -20 and c is 600-2300, so c Re zeta rounded once puts s off by
        # ~1e-12 (the value by 5e-13 to 2e-12); shifted exactly, 2e-15
        assert self._auto_error(3, -6.0, math.log10(t), 0.99, 2.0,
                                [1.0]) < 2e-14

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 3, 4]),
           st.floats(math.log10(5e-5), math.log10(2e-2)),
           st.floats(math.log10(0.05), math.log10(20.0)),
           st.floats(0.0, 0.999), st.floats(0.5, 2.0),
           st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=2))
    @example(3, math.log10(5e-5), math.log10(20.0), 0.99, 2.0, [0.5, -2.0])
    def test_auto_matches_oracle_in_the_kernel_box(self, kind, log_damping,
                                                   log_t, delta, eps, dphi):
        # eps omega eta in [5e-5, 2e-2], t in [0.05, 20]: 4.0e-15 at most
        # over 60 random draws of three points, where the tau -> -1/tau
        # rule was off by up to 1.7e-12
        err = self._auto_error(kind, log_damping, log_t, delta, eps, dphi)
        assert err < 1e-12

    @settings(max_examples=4, deadline=None)
    @given(st.sampled_from([2, 3, 4]),
           st.floats(-8.0, math.log10(5e-5)),
           st.floats(math.log10(0.05), math.log10(20.0)),
           st.floats(0.0, 0.999), st.floats(0.5, 2.0),
           st.lists(st.floats(-math.pi, math.pi), max_size=1))
    @example(3, -8.0, math.log10(20.0), 0.99, 2.0, [])
    def test_auto_matches_oracle_below_the_kernel_box(self, kind,
                                                      log_damping, log_t,
                                                      delta, eps, dphi):
        # down to eps omega eta = 1e-8, where q is within 5e-9 of the
        # unit circle; at t = 20, delta = 0.99 the argument drifts to Re
        # zeta = -20, whose rounding c amplifies unless the shift is exact
        err = self._auto_error(kind, log_damping, log_t, delta, eps, dphi)
        assert err < 1e-11


# -- how far a move cancels, and theta's accuracy envelope -----------------

_U = 2.0 ** -53
# C of `_theta_route`'s written bound, theta_3(0 | i sqrt(3)/2) / theta_4(0|i)
_BOUND_M = np.arange(-8, 9)
_BOUND_C = float(
    np.sum(np.exp(-math.pi * math.sqrt(0.75) * _BOUND_M ** 2))
    / np.sum((-1.0) ** _BOUND_M * np.exp(-math.pi * _BOUND_M ** 2)))
# Im tau below which |q| > 0.9
_IM_Q09 = -math.log(0.9) / math.pi


def _log_direct_l1(kind, zeta, tau):
    """log sum_m |exp(i pi tau m^2 + 2 i m zeta)| over the kind's lattice,
    by Poisson summation, a = pi Im tau <= 5 and b = Im zeta: exp(b^2/a)
    sqrt(pi/a) (1 + 2 sum_n exp(-pi^2 n^2/a) cos(2 pi n (h + b/a)))."""
    a, b = math.pi * tau.imag, zeta.imag
    n = np.arange(1.0, 9.0)
    dual = 1.0 + 2.0 * np.sum(np.exp(-math.pi ** 2 * n * n / a) * np.cos(
        2.0 * math.pi * n * ((0.5 if kind == 2 else 0.0) + b / a)))
    return b * b / a + 0.5 * math.log(math.pi / a) + math.log(dual)


def _log_move_l1(mod, zeta):
    """log of |pref| times sum_m |exp(ct (s - pi m)^2)| over the partner's
    lattice, s = c zeta - k pi as the route forms it: the transformed
    terms' moduli, Gaussian included (their phases have modulus 1)."""
    s = complex(_shifted(np.array([zeta]), mod)[1][0])
    ct = mod.ct
    # the index at the Gaussian's vertex
    top = (s.real - ct.imag * s.imag / ct.real) / math.pi
    m = (round(top) + np.arange(-40.0, 41.0)
         + (0.5 if mod.partner == 2 else 0.0))
    return math.log(abs(mod.pref)) + np.logaddexp.reduce(
        (ct * (s - math.pi * m) ** 2).real)


def _l1_scale(kind, zeta, nome, order):
    """`_abs_terms` while the terms are few; below Im tau = 1e-7 the
    integral sum_m tends to, sqrt(pi/a) exp(b^2/a) times the moment of
    |2x|^order about the peak x0 = -b/a, a = pi Im tau, b = Im zeta (the
    other Poisson terms are below exp(-pi/Im tau))."""
    if nome.tau.imag >= 1e-7:
        return _abs_terms(kind, zeta, nome, order)
    a, b = math.pi * nome.tau.imag, zeta.imag
    x0, width = -b / a, math.sqrt(math.pi / a)
    moment = (1.0, 2.0 * (x0 * math.erf(x0 * math.sqrt(a))
                          + math.exp(-a * x0 * x0) / (a * width)),
              4.0 * (x0 * x0 + 0.5 / a))[order]
    return math.exp(b * b / a) * width * moment


def _reference(kind, zeta, tau):
    """theta_kind(zeta | tau) and its zeta-derivatives of orders 0-4 at the
    double zeta and tau, to 40 digits.  Where |q| <= 0.9 the direct series,
    each term times (2im)^order.  Below, for tau = p/q + t with q <= 8,
    every index m = mu + 4q n keeps the factor s_m exp(i pi p m^2/q) of
    its residue mu, and Poisson summation over n gives (-i T)^(-1/2)
    sum_k G_k exp(Q_k), T = 16 q^2 t, Q_k = -i (4q zeta - pi k)^2/(pi T),
    G_k = sum_mu s_mu exp(i pi p mu^2/q + 2 pi i k mu/(4q)); each term's
    derivatives are polynomials in Q_k' and the constant Q_k''."""
    mpmath = _mpmath()
    half = 0.5 if kind == 2 else 0.0
    with mpmath.workdps(40):
        z = mpmath.mpc(zeta.real, zeta.imag)
        t = mpmath.mpc(tau.real, tau.imag)
        h = mpmath.mpf(half)
        out = [0] * 5
        if tau.imag >= _IM_Q09:
            # mpmath.jtheta is not used here: it returned 7e297 for
            # theta_4(-0.128 - 464.8i | 0.375 + 325.7i) = 1
            a, b = math.pi * tau.imag, zeta.imag
            reach = math.sqrt(100.0 / a) + 3.0
            for n in range(math.floor(-b / a - reach),
                           math.ceil(-b / a + reach) + 1):
                m = n + h
                term = (-1) ** (n % 2 if kind == 4 else 0) * mpmath.exp(
                    1j * mpmath.pi * t * m * m + 2j * m * z)
                for order in range(5):
                    out[order] += term * (2j * m) ** order
            return [complex(x) for x in out]
        frac = Fraction(tau.real).limit_denominator(8)
        p, q = frac.numerator, frac.denominator
        big_l = 4 * q
        big_t = (t - mpmath.mpf(p) / q) * big_l * big_l
        residues = [(r + h, (-1) ** (r % 2 if kind == 4 else 0)
                     * mpmath.expjpi(mpmath.mpf(p) / q * (r + h) ** 2))
                    for r in range(big_l)]
        # Q_k = i pi tau* (k - x)^2, tau* = -1/T and x = 4q zeta/pi: the
        # k within exp(-100) of the largest term
        dual, x = complex(-1 / big_t), complex(big_l * z / mpmath.pi)
        top = x.real + dual.real * x.imag / dual.imag
        reach = math.sqrt(100.0 / (math.pi * dual.imag)) + 2.0
        ks = np.arange(math.floor(top - reach), math.ceil(top + reach) + 1)
        size = (1j * math.pi * dual * (ks - x) ** 2).real
        q2 = -2j * big_l * big_l / (mpmath.pi * big_t)
        for k in ks[size >= size.max() - 100.0].tolist():
            g = mpmath.fsum(c * mpmath.expjpi(2 * k * mu / big_l)
                            for mu, c in residues)
            dz = big_l * z - mpmath.pi * k
            q1 = -2j * big_l * dz / (mpmath.pi * big_t)
            term = g * mpmath.exp(-1j * dz * dz / (mpmath.pi * big_t))
            polys = (1, q1, q2 + q1 ** 2, 3 * q2 * q1 + q1 ** 3,
                     3 * q2 ** 2 + 6 * q2 * q1 ** 2 + q1 ** 4)
            for order in range(5):
                out[order] += term * polys[order]
        pref = (-1j * big_t) ** mpmath.mpf(-0.5)
        return [complex(pref * x) for x in out]


class TestAccuracyEnvelope:
    """How far a move cancels (`_theta_route`'s written bound), and theta's
    accuracy against 40-digit values scaled by the point's condition."""

    def test_move_cancels_no_more_than_the_direct_series(self):
        # |pref| sum |transformed terms| <= C sum |direct terms|, C = 1.239,
        # over seeded walk draws (kinds 2-4, Im tau log-uniform in [1e-13,
        # 1.6], Re tau 0, near p/q with q <= 8, or uniform; zeta over a
        # period, |Im zeta| up to 2 pi Im tau) and the old guard's points,
        # Im tau = 1e-13 at Re tau 0 and 1/2.  The largest ratio here is
        # 1.085.
        root = math.sqrt(1e-13)
        cases = [(kind, complex(z), complex(re, 1e-13))
                 for kind in (2, 3, 4) for re in (0.0, 0.5)
                 for z in (0.0, 0.4 * root, -1.3 * root,
                           math.pi / 2 + 0.7 * root,
                           -math.pi / 2 - 0.2 * root)]
        rng = np.random.default_rng(29)
        for _ in range(1500):
            kind, q = int(rng.integers(2, 5)), int(rng.integers(1, 9))
            y = 10.0 ** rng.uniform(-13.0, math.log10(1.6))
            re = (0.0, int(rng.integers(-q, q + 1)) / q
                  + rng.uniform(-1.0, 1.0) * y,
                  rng.uniform(-1.0, 1.0))[rng.integers(3)]
            period = 2.0 * math.pi if kind == 2 else math.pi
            cases.append((kind, complex(
                rng.uniform(-0.5, 0.5) * period,
                rng.uniform(-2.0, 2.0) * math.pi * y), complex(re, y)))
        worst, moves = -math.inf, 0
        for kind, zeta, tau in cases:
            mod = _reduce_tau(tau, kind)
            if mod is not None:
                moves += 1
                worst = max(worst, _log_move_l1(mod, zeta)
                            - _log_direct_l1(kind, zeta, tau))
        assert abs(_BOUND_C - 1.239) < 5e-4
        assert moves > 1000 and worst <= math.log(_BOUND_C), math.exp(worst)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.floats(-13.0, 3.0), st.booleans(),
           st.integers(1, 8), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
           st.floats(-0.5, 0.5), st.floats(-1.0, 1.0))
    # the points where S lost up to 1.9e-3 (theta_4 near pi/2) and 7.9e-3
    # (theta_2 near pi) relative before it took the lattice shift and one
    # square per term
    @example(4, -6.0, True, 1, 0.0, 0.0, 0.5 + 0.3e-3 / math.pi, 0.0)
    @example(4, -9.0, True, 1, 0.0, 0.0,
             0.5 + 0.3 * math.sqrt(1e-9) / math.pi, 0.0)
    @example(4, -13.0, True, 1, 0.0, 0.0,
             0.5 + 0.3 * math.sqrt(1e-13) / math.pi, 0.0)
    @example(2, -6.0, True, 1, 0.0, 0.0, 0.5 + 0.15e-3 / math.pi, 0.0)
    @example(2, -9.0, True, 1, 0.0, 0.0,
             0.5 + 0.15 * math.sqrt(1e-9) / math.pi, 0.0)
    @example(2, -13.0, True, 1, 0.0, 0.0,
             0.5 + 0.15 * math.sqrt(1e-13) / math.pi, 0.0)
    # theta_3 near 25 pi i | 50 i, about 2, where the terms of S would
    # reach e^40: the walk keeps the direct series
    @example(3, math.log10(50.0), False, 1, 0.0, 0.0, 0.0,
             25.0 * math.pi / math.sqrt(600.0 * math.pi * 50.0))
    def test_within_the_condition_scaled_envelope(self, kind, log_y, near, q,
                                                  re, frac, re_frac,
                                                  im_frac):
        # kinds 2-4, Im tau log-uniform in [1e-13, 1e3], Re tau in [-2, 2]
        # and near p/q (q <= 8) wherever |q| > 0.9; zeta over a period,
        # |Im zeta| up to 2 pi Im tau (the peak term below exp(600)).  A
        # number and each of its derivatives, on every route, is within
        # 8 u (1 + kappa) of the direct series' sum of |2m|^order |term|,
        # where kappa = (|zeta| |d/dzeta| + |tau| |d/dtau|) / |output| and
        # d/dtau = -(i pi/4) d^2/dzeta^2 (the heat equation), and so is the
        # value of an array, except on its fused series of a move (Im tau'
        # <= 16): that rounds the Gaussian and its terms' exponents, each
        # up to about 4 pi, apart before they cancel, so it gets 32.  Over
        # 54,000 random draws, some aimed at the direct series at large Im
        # tau and at the fused series, the direct series read at most 3.6
        # and the fused series 12.2; over 27,000 draws of numbers and
        # their derivatives on every route, 3,000 of them aimed at moves
        # with Im tau' in [10, 16], the lane read at most 2.13.
        y = 10.0 ** log_y
        if near or y < _IM_Q09:
            re = round(re * q) / q + frac * min(y, 0.01)
        tau = complex(re, y)
        period = 2.0 * math.pi if kind == 2 else math.pi
        zeta = complex(re_frac * period, im_frac * min(
            2.0 * math.pi * y, math.sqrt(600.0 * math.pi * y)))
        nome = ThetaNome(tau)
        mod = _reduce_tau(tau, kind)
        ref = _reference(kind, zeta, tau)
        fused = mod is not None and mod.tau.imag <= 16.0
        outs = [(order, got, 8.0) for order, got in enumerate(
            theta_derivs(kind, zeta, nome))]
        outs.append((0, theta(kind, np.array([zeta]), nome)[0],
                     32.0 if fused else 8.0))
        for order, got, bound in outs:
            kappa = ((abs(zeta) * abs(ref[order + 1]) + abs(tau)
                      * math.pi / 4.0 * abs(ref[order + 2]))
                     / abs(ref[order]) if ref[order] else math.inf)
            scale = max(_l1_scale(kind, zeta, nome, order), 2.0 ** -1022)
            assert abs(got - ref[order]) <= (
                bound * _U * (1.0 + kappa) * scale), (order, bound)

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("re", [2.0e8 + 0.3, -3.7e8 - 0.1, 1e12 + 0.5])
    def test_far_argument_under_a_move(self, kind, re):
        # tau = 0.31 + 0.02i takes a move with c = 3, whose lattice shift
        # alone reduces zeta: a number and its derivatives are within the
        # envelope above of 40-digit values at zeta reduced exactly
        # (math.remainder)
        tau = 0.31 + 0.02j
        period = 2.0 * math.pi if kind == 2 else math.pi
        zeta = complex(re, 0.01)
        nome = ThetaNome(tau)
        outs = theta_derivs(kind, zeta, nome)
        reduced = complex(math.remainder(re, period), zeta.imag)
        ref = _reference(kind, reduced, tau)
        for order, got in enumerate(outs):
            kappa = ((abs(zeta) * abs(ref[order + 1]) + abs(tau)
                      * math.pi / 4.0 * abs(ref[order + 2])) / abs(ref[order]))
            scale = _l1_scale(kind, reduced, nome, order)
            assert abs(got - ref[order]) <= 8.0 * _U * (1.0 + kappa) * scale

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("re", [1.8e8 + 0.3, -2.9e8 - 0.1, 4.1e8 + 0.7,
                                    5.5e8])
    def test_exact_shift_past_two_to_the_29(self, kind, re):
        # 2^29 <= c |Re zeta| < pi 2^29 (c = 3): k < 2^29, so the lattice
        # shift is exact.  A number, its derivatives and an array's value
        # are within 2e-13 relative of 60-digit values at the same double
        # zeta; they read at most 2.0e-14 here, and 5.1e-14 over 30 random
        # points of the window.  Reducing zeta by whole periods first, in
        # double, moved it by an ulp of Re zeta and read up to 1.1e-6 here
        mpmath = _mpmath()
        tau = 0.31 + 0.02j
        assert 2 ** 29 <= 3 * abs(re) < math.pi * 2 ** 29
        assert _reduce_tau(tau, kind).gamma[2] == 3
        zeta = complex(re, 0.01)
        nome = ThetaNome(tau)
        with mpmath.workdps(60):
            q = mpmath.expjpi(mpmath.mpc(tau.real, tau.imag))
            ref = [complex(mpmath.jtheta(kind, mpmath.mpc(re, 0.01), q,
                                         derivative=order))
                   for order in range(3)]
        outs = list(theta_derivs(kind, zeta, nome))
        outs.append(theta(kind, np.array([zeta, 0.2]), nome)[0])
        for got, want in zip(outs, ref + ref[:1]):
            assert abs(got - want) <= 2e-13 * abs(want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [355 / 1031 + 1e-7j, 0.1234 + 1e-9j])
    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_array_near_the_turn_limit(self, tau, kind):
        # c = 1031 and 5000, where k = rint(c Re zeta / pi) passes 2^63
        # before Re zeta reaches 2^52 periods: k mod 2c is taken in floats,
        # so it is k's own residue, and an array either answers, as the
        # scalar lane does with its Python integer k, or raises ValueError
        mod = _reduce_tau(tau, kind)
        c = mod.gamma[2]
        assert c > 2 ** 10
        period = 2.0 * math.pi if kind == 2 else math.pi
        zeta = np.array([f * 2.0 ** 52 * period + (0.37 + 0.01j)
                         for f in (0.999, -0.75, 0.5, 1e-3)] + [0.2 + 0.01j])
        k, _ = _shifted(zeta, mod)
        assert k.tolist() == [round(z.real * (c / math.pi)) % (2 * c)
                              for z in zeta.tolist()]
        nome = ThetaNome(tau)
        try:
            values = theta(kind, zeta, nome)
        except ValueError:
            return
        numbers = np.array([theta(kind, z, nome) for z in zeta.tolist()])
        assert np.all(np.abs(values - numbers) <= 1e-6 * np.abs(numbers))


def _profiled_calls(call):
    """(Python-level calls into specfun, C-level calls made from its
    frames other than `cmath.exp`, calls of `cmath.exp`) of one call,
    after a first one has warmed the caches."""
    call()
    counts = {"call": 0, "c_call": 0, "exp": 0}

    def hook(frame, event, arg):
        if event in counts and frame.f_code.co_filename == specfun.__file__:
            counts["exp" if arg is cmath.exp else event] += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"], counts["exp"]


def _lane_bound_terms(kind, zeta, y):
    """Scale of theta on tau = i y, the direct series' sum of |term|, and a
    bound on |exponent| over the terms within e^-40 of the largest, on the
    route the walk takes there: the direct series for y >= 1, S below."""
    half = 0.5 if kind == 2 else 0.0
    b = abs(zeta.imag)
    reach = b / (math.pi * y) + math.sqrt(50.0 / (math.pi * y)) + 3.0
    m = np.arange(-math.ceil(reach), math.ceil(reach) + 1) + half
    scale = np.exp(-math.pi * y * m * m - 2.0 * m * zeta.imag).sum()
    spread = math.sqrt(40.0 / math.pi)
    s = (math.pi if kind == 2 else 0.5 * math.pi) + b
    if y >= 1.0:
        top = b / (math.pi * y) + spread / math.sqrt(y) + half
        return scale, math.pi * y * top * top + 2.0 * top * s
    top = s / math.pi + spread * math.sqrt(y) + 0.5
    return scale, (s + math.pi * top) ** 2 / (math.pi * y)


class TestScalarLane:
    """The scalar lane of `_theta_dispatch` against its array lane."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.floats(-3.0, 3.0),
           st.floats(-0.5, 0.5), st.floats(-20.0, 20.0), st.floats(-3.0, 3.0))
    # terms past double range, on the direct route and under S: both lanes
    # refuse, with no warning
    @example(3, 3.0, 0.0, 0.1, 3000.0 / math.sqrt(1e3))
    @example(4, 3.0, 0.2, 0.1, -3000.0 / math.sqrt(1e3))
    @example(3, -3.0, 0.0, 0.3, 2.0 / math.sqrt(1e-3))
    @example(2, -3.0, 0.0, 0.3, -2.0 / math.sqrt(1e-3))
    def test_agrees_with_array_lane(self, kind, log_y, re_frac, re, t):
        # Re tau = 0 below y = 1 (S), |Re tau| <= 1/2 above (the direct
        # series); Im zeta = t sqrt(y) keeps |theta| near exp(t^2/pi).  The
        # derivatives of an array are the numbers' own, point by point
        y = 10.0 ** log_y
        tau = complex(re_frac if y >= 1.0 else 0.0, y)
        zeta = complex(re, t * math.sqrt(y))
        nome = ThetaNome(tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                lane = theta(kind, zeta, nome)
            except ValueError as exc:
                lane = exc
            # an array, even of one point, takes the array lane
            try:
                arr = theta(kind, np.array([zeta]), nome)
            except ValueError as exc:
                arr = exc
        if isinstance(arr, ValueError):
            assert isinstance(lane, ValueError), (lane, arr)
            assert str(lane) == str(arr)
            return
        assert not isinstance(lane, ValueError), lane
        assert isinstance(lane, complex)
        scale, big = _lane_bound_terms(kind, zeta, y)
        assert abs(lane - arr[0]) <= 4 * 2.0 ** -53 * (1.0 + big) * scale

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("tau", [1.6j, 0.3 + 2.0j, 0.05j, 0.31 + 0.02j])
    def test_takes_no_numpy_call(self, kind, tau, monkeypatch):
        # a number on the direct route, under S or under another move
        # (c = 3 at 0.31 + 0.02i) runs with `np` gone from specfun and
        # zakcs, once its plan is cached
        params = zakcs.WZParams(0.3, Sector(0.37))
        point = zakcs.PhasePoint(1.1, -0.4)
        nome = ThetaNome(tau)
        calls = [lambda: theta(kind, 0.3 + 0.2j, nome),
                 lambda: theta_derivs(kind, 0.3 + 0.2j, nome),
                 lambda: zakcs.transition_prob(2, params, point),
                 lambda: zakcs.w_norm_sq(params, point),
                 lambda: zakcs.w_overlap(params, point, 0.2 + 0.5j)]
        expected = [call() for call in calls]
        monkeypatch.setattr(specfun, "np", None)
        monkeypatch.setattr(zakcs, "np", None)
        assert [call() for call in calls] == expected

    def test_sum_past_range_of_in_range_terms_refused(self, monkeypatch):
        # tau = i 709.5 / (210 pi) and zeta = -i pi Im(tau) 14.5: theta_3's
        # two largest terms, m = 7 and 8, are e^{709.5} each, so every
        # exponent is in range and only their sum leaves it; the lane refuses
        # the non-finite sum, with no warning
        assert math.isfinite(math.exp(709.5))
        assert 2.0 * math.exp(709.5) == math.inf
        tau = 1j * 709.5 / (210.0 * math.pi)
        zeta = -1j * math.pi * tau.imag * 14.5
        lane, raised = specfun._theta_lane, []

        def spy(*args):
            try:
                return lane(*args)
            except ValueError:
                raised.append(args)
                raise

        monkeypatch.setattr(specfun, "_theta_lane", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves double range"):
                theta(3, zeta, ThetaNome(tau))
        assert len(raised) == 1

    @pytest.mark.parametrize("tau", [1.6j, 0.05j, 0.31 + 0.02j,
                                     0.5 + 1e-3j])
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (0,), (2, 0)])
    def test_array_derivs_refused(self, tau, shape):
        # theta_derivs takes a number; an array, empty or not, is refused
        # (a 0-d array is a number)
        nome = ThetaNome(tau)
        rng = np.random.default_rng(len(shape))
        size = math.prod(shape)
        zeta = (rng.uniform(-4.0, 4.0, size)
                + 0.3j * rng.uniform(-1.0, 1.0, size)).reshape(shape)
        for kind in (2, 3, 4):
            with pytest.raises(ValueError, match="takes a number"):
                theta_derivs(kind, zeta, nome)
        assert theta_derivs(3, np.array(0.7 - 0.1j), nome) == theta_derivs(
            3, 0.7 - 0.1j, nome)

    def test_bits_independent_of_blas_threads(self):
        # the lane sums every number and every derivative with no BLAS dot
        # (0.31 + 0.02i is a move other than S), and the uncertainty
        # report's products on a 300-wide window: the same bytes at 1 and
        # 2 threads
        script = (
            "import numpy as np\n"
            "from circleqm.specfun import ThetaNome, theta, theta_derivs\n"
            "from circleqm.circlespace import (CircleState, Sector,\n"
            "                                  uncertainty_report)\n"
            "from circleqm import zakcs\n"
            "out = []\n"
            "rng = np.random.default_rng(300)\n"
            "state = CircleState(Sector(0.37), -120, rng.normal(size=300)\n"
            "                    + 1j * rng.normal(size=300))\n"
            "rep = uncertainty_report('C', 'L', state)\n"
            "out.extend(v for v in vars(rep).values() if v is not None)\n"
            "for tau in (1.6j, 0.05j, 0.3 + 2j, 3e-3j, 0.31 + 0.02j):\n"
            "    for kind in (2, 3, 4):\n"
            "        out.append(theta(kind, 0.3 + 0.2j, ThetaNome(tau)))\n"
            "        out.extend(theta_derivs(kind, 1.1 - 0.1j,\n"
            "                                ThetaNome(tau)))\n"
            "        for z in (0.7, -0.2j):\n"
            "            out.extend(theta_derivs(kind, z, ThetaNome(tau)))\n"
            "for eps in (0.05, 0.3, 2.0, 40.0):\n"
            "    params = zakcs.WZParams(eps, Sector(0.37))\n"
            "    z = zakcs.PhasePoint(1.1, 0.4 * eps)\n"
            "    out.append(zakcs.w_norm_sq(params, z))\n"
            "    out.extend(zakcs.transition_prob(m, params, z)\n"
            "               for m in (-1, 0, 1))\n"
            "print([complex(x).real.hex() + complex(x).imag.hex()\n"
            "       for x in out])\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(specfun.__file__).parent.parent)]
                + [p for p in [env.get("PYTHONPATH")] if p])
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=120, check=True).stdout)
        assert outputs[0] == outputs[1] and outputs[0].count("p") > 100


class TestPerCallFloor:
    """theta's fixed cost per call: what a call does besides its series."""

    @pytest.mark.parametrize("tau,zeta,derivs,expected", [
        # the scalar lane's cmath.exp calls, one per signed term and
        # point, are pinned apart from the other C-level calls, so that a
        # term more or fewer does not read as fixed cost; the array lane's
        # np.exp ufunc is not seen
        (1.6j, 0.3 + 0.2j, False, (5, 7, 11 * 1)),  # a scalar, direct
        (0.05j, 0.3 + 0.2j, False, (4, 7, 7 * 1)),  # a scalar under S
        (0.05j, 0.3 + 0.2j, True, (4, 7, 7 * 1)),
        (0.31 + 0.0007j, _Nodes(1, 0.37 + 0.01j), False, (8, 19, 0)),
    ], ids=["scalar-direct", "scalar-S", "scalar-S-derivs", "reduced-node"])
    def test_call_counts_pinned(self, tau, zeta, derivs, expected):
        # Python-level calls into specfun, C-level calls from it other
        # than cmath.exp (NumPy ufuncs are not seen) and cmath.exp calls:
        # work added to every call shows in the first two; lower the pin
        # when a call gets cheaper
        nome = ThetaNome(tau)
        assert _profiled_calls(lambda: _theta_dispatch(
            3, zeta, nome, "auto", derivs)) == expected

    @pytest.mark.parametrize("tau", [30j, 0.03j, 0.07j, 0.5 + 1e-3j])
    def test_callers_error_state_kept(self, tau):
        # far terms underflow on the direct route, in the fused series of
        # a move up to Im tau' = 16 and in its squares past it (S at 0.03i,
        # whose derivatives keep more terms), which raises under the
        # caller's state unless theta sets its own for the series alone
        nome = ThetaNome(tau)
        expected = theta(3, 1.2, nome)
        before = np.geterr()
        with np.errstate(all="raise"):
            inside = np.geterr()
            got = theta(3, 1.2, nome)
            values = [d for z in (1.2, 0.2j) for d in theta_derivs(3, z, nome)]
            assert np.geterr() == inside
        assert np.geterr() == before
        assert got == expected and cmath.isfinite(got)
        assert all(map(cmath.isfinite, values))

    @pytest.mark.parametrize("tau", [30j, 0.07j, 0.5 + 1e-3j])
    def test_series_alone_raises_under_that_state(self, tau):
        # so the case above is not vacuous: the direct series, the fused
        # series under S (Im tau' = 14.3) and the squares (Im tau' = 250)
        nome = ThetaNome(tau)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            specfun._theta_route.__wrapped__(
                3, np.float64(1.2) + 0j, nome, _reduce_tau(nome.tau, 3), 0.0)

    def test_term_plans_read_only_and_keyed_without_tau(self):
        _term_plan.cache_clear()
        # 40 nomes on the imaginary axis, each taking the direct series
        # with the same term count: one plan serves them all (eight points
        # take the array lane, which reads the plan itself)
        zeta = np.full(8, 0.2)
        for im in np.linspace(1.0, 1.05, 40):
            theta(3, zeta, ThetaNome(complex(0.0, im)))
        info = _term_plan.cache_info()
        assert info.currsize == 1 and info.hits == 39, info
        plan = _term_plan(3, 5)
        for array in plan:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        # a long series builds its plan on each call and keeps none
        _term_plan.cache_clear()
        theta(3, zeta, ThetaNome(0.01j), method="direct")
        assert _term_plan.cache_info().currsize == 0
        theta(3, zeta, ThetaNome(1.6j))
        assert _term_plan.cache_info().currsize == 1
        assert _PLAN_TERMS < 38  # the long series' nmax


class TestBesselI:
    """scipy's I_nu (`special.iv`), the oracle of I0(2s) and I1(2s)/I0(2s)
    in test_mincs, against mpmath, the integral representation and the
    recurrence; the library reads its scaled forms (ive, i0e, i1e)."""

    def test_at_origin(self):
        assert special.iv(0, 0.0) == 1.0
        assert special.iv(2, 0.0) == 0.0

    def test_table_ratio_x2(self):
        assert abs(special.iv(1, 2.0) / special.iv(0, 2.0) - 0.6977) < 1e-4

    def test_negative_argument_parity(self):
        assert special.iv(1, -3.0) == -special.iv(1, 3.0)
        assert special.iv(0, -3.0) == special.iv(0, 3.0)

    def test_fractional_negative_argument_principal_branch(self):
        val = special.iv(0.5, complex(-2.0, 0.0))
        ref = cmath.exp(1j * math.pi * 0.5) * special.iv(0.5, 2.0)
        assert abs(val - ref) < 1e-14 * abs(ref)
        assert abs(val.imag) > 0  # complex result flags the branch choice

    @pytest.mark.parametrize("nu", [0.0, 1.0, 0.5, 2.7, -0.3, 5.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 7.5, 19.0, 25.0, 60.0, 300.0])
    def test_against_scipy(self, nu, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(nu, x))
        assert special.iv(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_ratio_bound(self):
        # 0 < I1(x)/(x I0(x)) <= 1/2, equality only as x -> 0
        for x in [1e-3, 0.1, 0.7, 3.0, 15.0, 40.0, 200.0]:
            r = special.iv(1, x) / (x * special.iv(0, x))
            assert 0.0 < r <= 0.5

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("x", [0.5, 2.0, 6.0])
    def test_integer_order_integral_representation(self, n, x):
        # I_n(x) = (1/2 pi) int_0^{2 pi} e^{x cos phi} cos(n phi) dphi
        val, _ = integrate.quad(
            lambda phi: math.exp(x * math.cos(phi)) * math.cos(n * phi),
            0.0, 2.0 * math.pi, limit=200)
        assert special.iv(n, x) == pytest.approx(val / (2 * math.pi), rel=1e-11)

    @pytest.mark.parametrize("nu", [0.5, 1.3, 2.7])
    @pytest.mark.parametrize("x", [0.8, 4.0, 12.0, 30.0])
    def test_fractional_order_recurrence(self, nu, x):
        # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
        lhs = special.iv(nu - 1, x) - special.iv(nu + 1, x)
        rhs = 2 * nu / x * special.iv(nu, x)
        assert lhs == pytest.approx(rhs, rel=1e-11)


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

    @pytest.mark.parametrize("half", [0, 1, 2])
    @pytest.mark.parametrize("z", [0.0, 0.4, -2.7, 13.0, 1.0 + 2.0j,
                                   -3.0 + 0.5j, 8.0 - 4.0j, -0.2j])
    def test_window_matches_full_orders(self, half, z):
        ks = np.arange(-half, half + 1)
        np.testing.assert_array_equal(_bessel_window(z, half),
                                      bessel_j(ks, z))

    def test_window_matches_full_orders_at_random(self):
        rng = np.random.default_rng(20)
        for i in range(300):
            half = int(rng.integers(0, 120))
            scale = rng.choice([0.1, 1.0, 10.0, 60.0])
            z = complex(rng.normal() * scale,
                        0.0 if i % 2 else rng.normal() * scale)
            np.testing.assert_array_equal(
                _bessel_window(z, half), bessel_j(np.arange(-half, half + 1), z))


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

    def test_bare_nome_read_through_from_q(self):
        # a number in place of a ThetaNome is taken as the nome q
        assert (elliptic_suite(0.4, 0.3)
                == elliptic_suite(0.4, ThetaNome.from_q(0.3)))


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

    @staticmethod
    def _scanned(z, tol):
        """The smaller of the two bounds' half-widths, each the first order
        whose test passes in a linear scan (the docstring's tests)."""
        x, s = abs(z), abs(z.imag)
        a = 0.5 * x
        log_floor = math.log(0.5 * tol * special.i0e(2.0 * s))
        h = max(0, math.floor(a) - 1)
        while (2.0 * ((h + 1) * math.log(a) - math.lgamma(h + 2.0))
               - math.log1p(-(a / (h + 2)) ** 2) > log_floor):
            h += 1
        log_i0 = z.real * z.real / (x + s) + math.log(special.i0e(x))
        for j in range(h):
            v = j + 1.0
            f = v * math.asinh(v / x) - v * v / (math.hypot(v, x) + x)
            if (2.0 * (log_i0 - f) - math.log(-math.expm1(
                    -2.0 * math.asinh((v + 0.5) / x))) <= log_floor):
                return j
        return h

    def test_bisections_find_the_first_passing_order(self):
        # rep_apply's real R over the benchmark's [0.1, 50] and the min
        # family's sigma = gamma - i s at the windows' tolerances
        rng = np.random.default_rng(29)
        cases = [(complex(10 ** rng.uniform(-1, math.log10(50))), 1e-32)
                 for _ in range(1000)]
        cases += [(complex(rng.uniform(-50, 50),
                           -rng.choice([-1, 1]) * 10 ** rng.uniform(-0.3, 1.7)),
                   float(rng.choice([1e-14, 1e-24, 1e-30, 1e-32])))
                  for _ in range(1000)]
        for z, tol in cases:
            assert _bessel_half_width(z, tol) == self._scanned(z, tol), z

    def test_zero_argument_is_one_order(self):
        assert _bessel_half_width(0j, 1e-32) == 0

    def test_tiny_argument_is_one_order(self):
        # a = 5e-21: the DLMF bound holds at h = 0 already, so the bisection
        # ends at 0 and the I_k bound is not consulted
        assert _bessel_half_width(1e-20, 1e-32) == 0

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_rejects_nonfinite(self, z):
        with pytest.raises(ValueError):
            _bessel_half_width(z, 1e-12)

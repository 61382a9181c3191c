"""Minimal-uncertainty family: construction, moments, overlaps, completeness.

Closed forms are checked against coefficient-space sums and trapezoidal
quadrature on the explicit wavefunction; the divergence of the flat group
average is checked against its logarithmic asymptote.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from circleqm import mincs
from circleqm.circlespace import Sector, apply_operator, inner, uncertainty_report
from circleqm.mincs import (
    MinUncParams,
    completeness_residual,
    dbt_divergence,
    min_expectations,
    min_overlap,
    min_state,
    saturation_gap,
    sum_rule_residual,
)
from circleqm.specfun import _bessel_half_width, bessel_i, bessel_j


def explicit_psi(params, phi):
    """The defining wavefunction, evaluated directly."""
    shifted = phi - params.alpha
    return (np.exp(1j * (params.l_tilde * shifted
                         + params.sigma * np.sin(shifted)))
            / math.sqrt(bessel_i(0.0, 2.0 * params.s)))


class TestMinState:
    def test_sigma_zero_is_basis_state(self):
        st = min_state(MinUncParams(0.0, 3.0, 0.0, 0.0))
        assert st.n_lo == 3
        assert st.coeffs.size == 1
        assert st.coeffs[0] == pytest.approx(1.0)

    def test_norm_within_window_tol(self):
        tol = 1e-12
        st = min_state(MinUncParams(0.0, 0.0, 0.0, 1.0), window_tol=tol)
        assert abs(st.norm_sq() - 1.0) < tol

    def test_sector_is_fractional_part(self):
        st = min_state(MinUncParams(0.4, 2.3, 0.5, 1.0))
        assert st.sector.delta == pytest.approx(0.3)

    def test_coefficients_vs_grid_projection(self):
        params = MinUncParams(0.7, 1.3, 0.8, 1.2)
        st = min_state(params, window_tol=1e-13)
        m_grid = 512
        phi = np.arange(m_grid) * 2 * math.pi / m_grid
        vals = explicit_psi(params, phi)
        delta = params.delta0
        for m in range(st.n_lo, st.n_hi + 1):
            proj = np.mean(vals * np.exp(-1j * (m + delta) * phi))
            assert abs(proj - st.coeffs[m - st.n_lo]) < 1e-10

    def test_quasi_periodicity(self):
        params = MinUncParams(0.2, 2.3, 0.0, 0.7)
        st = min_state(params)
        phi = np.linspace(0, 2, 5)
        lhs = st.evaluate(phi + 2 * math.pi)
        rhs = np.exp(1j * 2 * math.pi * params.delta0) * st.evaluate(phi)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    # pure-imaginary sigma up to |sigma| = 700, where I0(2s) is past the
    # double range, real sigma, and generic complex ones
    @pytest.mark.parametrize("sigma", [0.5 - 1j, 3 - 4j, 20 - 30j, 0.05j,
                                       50.0, 700.0, 30j, -700j, 700j,
                                       400 - 400j])
    @pytest.mark.parametrize("tol", [1e-12, 1e-15])
    def test_discarded_tail_below_window_tol(self, sigma, tol):
        # the window drops sum_{|k|>h} |J_k(sigma)|^2 / I0(2s) <= tol^2, so
        # the dropped part has norm at most tol
        mpmath = pytest.importorskip("mpmath")
        st = min_state(MinUncParams(0.3, 0.0, sigma.real, -sigma.imag), tol)
        h = st.n_hi
        assert st.n_lo == -h
        with mpmath.workdps(30):
            z = mpmath.mpc(sigma.real, sigma.imag)
            tail = 2 * mpmath.fsum(abs(mpmath.besselj(k, z)) ** 2
                                   for k in range(h + 1, h + 60))
            tail /= mpmath.besseli(0, 2 * abs(sigma.imag))
        assert tail <= tol * tol

    # large |Im sigma|: the I_k(|sigma|) bound sets h, about a quarter of
    # the DLMF 10.14.4 half-width (569, 433, 160 and 71 here)
    @pytest.mark.parametrize("sigma,expected", [
        (-400j, 146), (10 - 300j, 127), (0.5 - 100j, 74), (20 - 30j, 51)])
    def test_large_imaginary_part_windows(self, sigma, expected):
        mpmath = pytest.importorskip("mpmath")
        st = min_state(MinUncParams(0.3, 0.0, sigma.real, -sigma.imag), 1e-12)
        h = st.n_hi
        assert (st.n_lo, h) == (-expected, expected)
        # the orders past h + 8 sqrt|sigma| + 60 are below e^-60 of those
        # at h, and the terms fall from h on
        with mpmath.workdps(30):
            z = mpmath.mpc(sigma.real, sigma.imag)
            stop = h + int(8 * math.sqrt(abs(sigma))) + 60
            tail = 2 * mpmath.fsum(abs(mpmath.besselj(k, z)) ** 2
                                   for k in range(h + 1, stop))
            tail /= mpmath.besseli(0, 2 * abs(sigma.imag))
        assert tail <= 1e-24

    def test_rejects_bad_window_tol(self):
        with pytest.raises(ValueError):
            min_state(MinUncParams(0, 0, 0, 1), window_tol=0.0)

    @pytest.mark.parametrize("s", [400.0, -500.0])
    def test_large_s_normalized_and_moments(self, s):
        # I0(2s) overflows a double here; the window is normalized through
        # the scaled ive(0, 2|s|)
        params = MinUncParams(0.9, 1.3, 2.5, s)
        st = min_state(params)
        assert abs(st.norm_sq() - 1.0) < 1e-13
        rep = uncertainty_report("C", "L", st)
        e = min_expectations(params)
        for got, ref in [(rep.mean_a, e.mean_c), (rep.mean_b, e.mean_l),
                         (rep.var_a, e.var_c), (rep.var_b, e.var_l),
                         (rep.covariance, e.cov_cl)]:
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_angle(self, alpha):
        # the reduction mod 2 pi made alpha nan: min_expectations came out
        # all nan
        with pytest.raises(ValueError, match="alpha"):
            MinUncParams(alpha, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("s", [800.0, -800.0])
    def test_beyond_double_range_raises_value_error(self, s):
        with pytest.raises(ValueError):
            min_state(MinUncParams(0.0, 0.0, 0.5, s))


    def test_tiny_negative_momentum_is_sector_zero(self):
        # -1e-17 % 1.0 rounds to 1.0; the fold takes it to delta = 0
        p = MinUncParams(0.1, -1e-17, 0.5, 1.0)
        assert (p.delta0, p.n0, p.sector) == (0.0, 0, Sector(0.0))
        st_neg = min_state(p)
        st_zero = min_state(MinUncParams(0.1, 0.0, 0.5, 1.0))
        assert st_neg.n_lo == st_zero.n_lo
        assert np.array_equal(st_neg.coeffs, st_zero.coeffs)

    def test_mean_c_at_large_l_matches_closed_form(self):
        # each phase (m + delta) alpha rounded on its own, about 5e6 rad
        # here, put <C> 5.6e-11 off the closed form
        params = MinUncParams(5.1, 1e6 + 0.3, -2.704, 0.028)
        rep = uncertainty_report("C", "L", min_state(params))
        assert abs(rep.mean_a - min_expectations(params).mean_c) <= 1e-15


class TestMinExpectations:
    def test_alpha_zero_means(self):
        s = 1.3
        e = min_expectations(MinUncParams(0.0, 0.7, 0.4, s))
        r1 = bessel_i(1, 2 * s) / bessel_i(0, 2 * s)
        assert e.mean_c == 0.0
        assert e.mean_s == pytest.approx(r1, rel=1e-13)
        assert e.mean_l == pytest.approx(0.7)

    def test_large_s_variance_asymptote(self):
        s = 50.0
        e = min_expectations(MinUncParams(0.0, 0.0, 0.0, s))
        assert e.var_s == pytest.approx(1.0 / (8 * s * s), rel=0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.pi / 2])
    def test_variance_sum_alpha_independent(self, alpha):
        s = 0.9
        e = min_expectations(MinUncParams(alpha, 0.0, 0.3, s))
        r1 = bessel_i(1, 2 * s) / bessel_i(0, 2 * s)
        assert e.var_c + e.var_s == pytest.approx(1 - r1 * r1, abs=1e-14)

    @pytest.mark.parametrize("params", [
        MinUncParams(0.0, 0.0, 0.0, 1.0),
        MinUncParams(0.7, 1.3, 0.8, 1.2),
        MinUncParams(2.1, -0.7, 0.0, 0.4),
        MinUncParams(math.pi / 2, 2.3, 1.0, -0.8),
    ])
    def test_against_quadrature_matrix_elements(self, params):
        e = min_expectations(params)
        psi = min_state(params, window_tol=1e-14).normalized()
        c_psi = apply_operator("C", psi)
        s_psi = apply_operator("S", psi)
        l_psi = apply_operator("L", psi)
        assert inner(psi, c_psi).real == pytest.approx(e.mean_c, abs=1e-8)
        assert inner(psi, s_psi).real == pytest.approx(e.mean_s, abs=1e-8)
        assert inner(psi, l_psi).real == pytest.approx(e.mean_l, abs=1e-8)
        assert inner(c_psi, c_psi).real == pytest.approx(e.mean_c2, abs=1e-8)
        assert inner(s_psi, s_psi).real == pytest.approx(e.mean_s2, abs=1e-8)
        assert inner(l_psi, l_psi).real == pytest.approx(e.mean_l2, abs=1e-8)
        cov_cl = inner(c_psi, l_psi).real - e.mean_c * e.mean_l
        assert cov_cl == pytest.approx(e.cov_cl, abs=1e-8)
        cov_cs = inner(c_psi, s_psi).real - e.mean_c * e.mean_s
        assert cov_cs == pytest.approx(e.cov_cs, abs=1e-8)

    def test_squeeze_ratio(self):
        params = MinUncParams(0.0, 0.4, 0.8, 1.1)
        e = min_expectations(params)
        sig2 = params.gamma ** 2 + params.s ** 2
        assert e.var_l / e.var_c == pytest.approx(sig2, abs=1e-10)

    def test_var_s_matches_g_function(self):
        from circleqm.specfun import g_ratio
        for s in [0.3, 1.0, 3.0]:
            e = min_expectations(MinUncParams(0.0, 0.0, 0.0, s))
            assert e.var_s == pytest.approx(g_ratio(2 * s).g, abs=1e-12)


class TestSaturation:
    GRID = [(s, gamma, delta) for s in (0.3, 1.0, 3.0)
            for gamma in (0.0, 1.0) for delta in (0.0, 0.3)]

    @pytest.mark.parametrize("s,gamma,delta", GRID)
    def test_cos_pair_saturates_at_alpha_zero(self, s, gamma, delta):
        lhs, rhs = saturation_gap(MinUncParams(0.0, delta, gamma, s), "CL")
        assert abs(lhs - rhs) < 1e-10 * max(lhs, 1e-30)

    @pytest.mark.parametrize("s,gamma,delta", GRID)
    def test_sin_pair_saturates_at_alpha_half_pi(self, s, gamma, delta):
        lhs, rhs = saturation_gap(MinUncParams(math.pi / 2, delta, gamma, s), "SL")
        assert abs(lhs - rhs) < 1e-10 * max(lhs, 1e-30)

    @pytest.mark.parametrize("s,gamma,delta", GRID)
    def test_generic_alpha_strictly_positive_gap(self, s, gamma, delta):
        lhs, rhs = saturation_gap(MinUncParams(0.7, delta, gamma, s), "CL")
        assert lhs - rhs > 1e-6

    def test_report_matches_quadrature_and_recovers_sigma(self):
        params = MinUncParams(0.0, 0.0, 0.0, 1.0)
        psi = min_state(params, window_tol=1e-14)
        rep = uncertainty_report("C", "L", psi)
        assert rep.saturated
        assert abs(rep.lhs - rep.rhs) < 1e-10 * max(rep.lhs, 1e-30)
        assert rep.sigma == pytest.approx(params.sigma, abs=1e-9)
        lhs, rhs = saturation_gap(params, "CL")
        assert rep.lhs == pytest.approx(lhs, abs=1e-8)

    def test_report_not_saturated_generic_alpha(self):
        psi = min_state(MinUncParams(0.7, 0.0, 0.0, 1.0), window_tol=1e-14)
        rep = uncertainty_report("C", "L", psi)
        assert not rep.saturated
        assert rep.lhs - rep.rhs > 1e-6


class TestMinOverlap:
    def test_self_overlap_is_one(self):
        p = MinUncParams(0.3, 1.0, 0.5, 0.8)
        res = min_overlap(p, p)
        assert res.valid
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def coefficient_overlap(self, p2, p1):
        return inner(min_state(p2, 1e-15), min_state(p1, 1e-15))

    def test_same_angle_unit_shift_gamma_zero(self):
        s = 1.1
        p1 = MinUncParams(0.4, 2.0, 0.0, s)
        p2 = MinUncParams(0.4, 1.0, 0.0, s)
        res = min_overlap(p2, p1)
        ref = self.coefficient_overlap(p2, p1)
        assert abs(res.value - ref) < 1e-8

    @pytest.mark.parametrize("a1,a2,l1,l2", [
        (0.0, 0.5, 1.0, 0.0), (1.2, 0.4, 3.0, 1.0), (0.1, 2.8, -1.0, 2.0),
        (0.0, 0.0, 2.0, 2.0),
        # odd dl with s cos((a1 - a2)/2) < 0, where a principal-branch
        # (num/den)^(dl/2) flips the sign
        (0.0, 6.0, 1.0, 0.0), (0.2, 5.0, -1.0, 2.0), (5.5, 1.0, 2.0, 1.0),
        (6.2, 0.1, 0.0, 3.0),
    ])
    def test_against_coefficient_oracle(self, a1, a2, l1, l2):
        gamma, s = 0.6, 0.9
        p1 = MinUncParams(a1, l1, gamma, s)
        p2 = MinUncParams(a2, l2, gamma, s)
        res = min_overlap(p2, p1)
        ref = self.coefficient_overlap(p2, p1)
        assert res.valid
        assert abs(res.value - ref) < 1e-8

    def test_orthogonal_angles_root_collapses(self):
        s = 0.7
        p1 = MinUncParams(math.pi, 3.0, 0.0, s)
        p2 = MinUncParams(0.0, 1.0, 0.0, s)
        res = min_overlap(p2, p1)
        ref = self.coefficient_overlap(p2, p1)
        assert abs(res.value - ref) < 1e-8
        assert abs(res.value) < 1e-8  # I_2 at (near-)zero argument

    def test_negative_root_argument_is_exact(self):
        gamma, s = 2.0, 0.2  # gamma-dominated: root argument goes negative
        p1 = MinUncParams(2.0, 1.0, gamma, s)
        p2 = MinUncParams(0.0, 0.0, gamma, s)
        res = min_overlap(p2, p1)
        assert res.valid
        ref = self.coefficient_overlap(p2, p1)
        assert abs(res.value - ref) < 1e-12

    def test_mismatched_sector_rejected(self):
        with pytest.raises(ValueError):
            min_overlap(MinUncParams(0, 0.5, 0, 1), MinUncParams(0, 0.2, 0, 1))

    def test_integer_shift_at_fractional_sector(self):
        # frac(n + delta) drifts by an ulp across n; the integer momentum
        # difference must still be recognized as a shared sector
        delta, s = 0.3, 1.1
        p1 = MinUncParams(0.4, 2 + delta, 0.0, s)
        p2 = MinUncParams(0.4, 1 + delta, 0.0, s)
        res = min_overlap(p2, p1)
        assert res.valid
        # the closed form depends only on dl and the angle difference here,
        # so the integer-sector case is an exact reference
        ref = min_overlap(MinUncParams(0.4, 0.0, 0.0, s),
                          MinUncParams(0.4, 1.0, 0.0, s))
        assert abs(res.value - ref.value) < 1e-12

    def test_mismatched_sigma_rejected(self):
        with pytest.raises(ValueError):
            min_overlap(MinUncParams(0, 1, 0, 1), MinUncParams(0, 0, 0, 2))

    @pytest.mark.parametrize("dl", [0, 1, -2])
    def test_zero_sigma_against_coefficient_oracle(self, dl):
        # s = gamma = 0 leaves basis states, and the root r = 0: the closed
        # form takes its I_n(2r)/r^n -> 1/n! limit
        p1 = MinUncParams(0.7, 1.3 + dl, 0.0, 0.0)
        p2 = MinUncParams(2.1, 1.3, 0.0, 0.0)
        res = min_overlap(p2, p1)
        assert res.valid
        assert abs(res.value - self.coefficient_overlap(p2, p1)) < 1e-15

    @pytest.mark.parametrize("p2,p1", [
        (MinUncParams(0, 0, 10, 10), MinUncParams(1, 400, 10, 10)),
        (MinUncParams(0, 0, 0, 0.01), MinUncParams(0, 170, 0, 0.01)),
    ], ids=["powers-overflow", "powers-underflow"])
    def test_powers_past_range_leave_the_product(self, p2, p1):
        # base^400 and r^400 overflowed (OverflowError); at the second pair
        # both powers underflowed to 0 (nan, with a warning).  Each product
        # is far below the smallest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = min_overlap(p2, p1)
        assert res.valid and res.value == 0
        assert abs(self.coefficient_overlap(p2, p1)) < 1e-300

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(-700.0, 700.0), s=st.floats(-700.0, 700.0),
           a1=st.floats(0.0, 2 * math.pi), a2=st.floats(0.0, 2 * math.pi),
           n=st.integers(-100, 100), dl=st.integers(-10 ** 4, 10 ** 4))
    @example(gamma=10.0, s=10.0, a1=1.0, a2=0.0, n=0, dl=-400)
    @example(gamma=0.0, s=0.01, a1=0.0, a2=0.0, n=0, dl=-170)
    # den = gamma sin h + s cos h rounds to ~1e-15 at h = pi/4, so
    # I_40(2r) underflows while the product is 3e-10: it read 0
    @example(gamma=-10.0, s=10.0, a1=0.0, a2=math.pi / 2, n=0, dl=40)
    # r = 0 at 200! past double range: math.gamma overflowed
    @example(gamma=0.0, s=0.0, a1=0.5, a2=2.0, n=3, dl=200)
    def test_finite_bounded_and_the_coefficient_product(self, gamma, s, a1,
                                                        a2, n, dl):
        # over the box (|gamma|, |s| up to 700) and |dl| up to 1e4:
        # finite, |value| <= 1 and the coefficient inner product, with no
        # warning.  Over 5,000 random draws the largest difference was
        # 3.2e-14
        p1 = MinUncParams(a1, n + 0.25, gamma, s)
        p2 = MinUncParams(a2, p1.l_tilde + dl, gamma, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = min_overlap(p2, p1)
        assert res.valid and cmath.isfinite(res.value)
        assert abs(res.value) <= 1.0 + 1e-12
        assert abs(res.value - self.coefficient_overlap(p2, p1)) < 1e-12


class TestRefusals:
    @pytest.mark.parametrize("call,word", [
        (lambda: saturation_gap(MinUncParams(0, 0, 0, 1), "CS"), "pair"),
        (lambda: completeness_residual(0, 0, 1.0, 0.0, Sector(0.0), -1),
         "n_cut"),
        (lambda: dbt_divergence(0, -1.0), "gamma_max"),
    ], ids=["pair", "n_cut", "gamma_max"])
    def test_refused(self, call, word):
        with pytest.raises(ValueError, match=word):
            call()

    def test_alpha_endpoint_folds_to_zero(self):
        # -1e-17 % 2 pi rounds up to 2 pi, the excluded end of [0, 2 pi)
        assert MinUncParams(-1e-17, 0.0, 0.0, 1.0).alpha == 0.0
        assert (MinUncParams(-1e-10, 0.0, 0.0, 1.0).alpha
                == 2 * math.pi - 1e-10)


class TestWindowOrders:
    # min_state and sum_rule_residual take J over -h..h from one call over
    # 0..h; the bits are those of J over the whole window
    @staticmethod
    def _normalized(sigma, half):
        s = abs(sigma.imag)
        return (bessel_j(np.arange(-half, half + 1), sigma)
                * (math.exp(-s) / math.sqrt(special.ive(0, 2.0 * s))))

    def test_min_state_bits(self):
        rng = np.random.default_rng(2003)
        for _ in range(200):
            params = MinUncParams(rng.uniform(-4, 4), rng.uniform(-50, 50),
                                  rng.normal() * 5, rng.normal() * 20)
            tol = 10.0 ** rng.uniform(-14, -3)
            st = min_state(params, tol)
            half = (st.coeffs.size - 1) // 2
            ms = params.n0 + np.arange(-half, half + 1)
            # the phases as a common one at the centre n0 times those of
            # the offsets -h..h
            ref = (self._normalized(params.sigma, half)
                   * (cmath.rect(1.0, -(params.n0 + params.delta0)
                                 * params.alpha)
                      * np.exp(-1j * params.alpha
                               * np.arange(-half, half + 1))))
            assert st.n_lo == ms[0]
            assert st.coeffs.tobytes() == ref.tobytes()

    def test_sum_rule_bits(self):
        rng = np.random.default_rng(2004)
        for _ in range(200):
            sigma = complex(rng.normal() * 10, rng.normal() * 30)
            window = self._normalized(sigma, _bessel_half_width(sigma, 1e-14))
            ref = abs(float(np.sum(np.abs(window) ** 2)) - 1.0)
            assert sum_rule_residual(sigma) == ref


class TestSumRule:
    def test_zero_sigma(self):
        assert sum_rule_residual(0j) == pytest.approx(0.0, abs=1e-15)

    def test_real_sigma_reduces_to_unit_sum(self):
        for x in [0.5, 2.0, 7.0]:
            assert sum_rule_residual(complex(x, 0.0)) < 1e-12

    def test_complex_sigma(self):
        assert sum_rule_residual(1.0 - 2.0j) < 1e-10

    def test_sweep_within_radius_ten(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            r = rng.uniform(0, 10)
            phase = rng.uniform(0, 2 * math.pi)
            sigma = r * complex(math.cos(phase), math.sin(phase))
            assert sum_rule_residual(sigma) < 1e-10


class TestCompleteness:
    def test_off_diagonal_exactly_zero(self):
        assert completeness_residual(0, 1, 1.0, 0.0, Sector(0.0), 5) == 0j

    def test_sigma_zero_diagonal(self):
        assert abs(completeness_residual(0, 0, 0.0, 0.0, Sector(0.0), 0)) < 1e-15

    def test_documented_cutoff(self):
        s, gamma, m = 1.0, 0.0, 1
        n_cut = abs(m) + math.ceil(abs(complex(gamma, -s))) + 20
        res = completeness_residual(m, m, s, gamma, Sector(0.0), n_cut)
        assert abs(res) < 1e-6

    def test_monotone_decrease(self):
        s, gamma = 1.5, 0.8
        vals = [abs(completeness_residual(0, 0, s, gamma, Sector(0.3), nc))
                for nc in (1, 3, 6, 12, 24)]
        assert all(b <= a + 1e-18 for a, b in zip(vals, vals[1:]))


class TestDivergence:
    def test_zero_upper_limit(self):
        assert dbt_divergence(0, 0.0) == 0.0

    def test_gauss_nodes_built_once(self, monkeypatch):
        # the 12 panel nodes are built on first use and cached, with
        # leggauss's bits: with leggauss refusing, the integrals keep the
        # values they had when the nodes were built per call
        x_gl, w_gl = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(mincs._dbt_nodes()[0], x_gl)
        assert np.array_equal(mincs._dbt_nodes()[1], w_gl)

        def refuse(*args):
            raise AssertionError("leggauss called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        assert dbt_divergence(0, 10.0) == 1.5712664612634117
        assert dbt_divergence(2, 100.0) == 1.461834836514127
        assert dbt_divergence(5, 1000.0) == 1.906551494010173

    def test_small_interval_vs_quad(self):
        ref, _ = integrate.quad(lambda x: special.j0(x) ** 2, 0, math.pi)
        assert dbt_divergence(0, math.pi) == pytest.approx(ref, rel=1e-10)

    def test_logarithmic_increment(self):
        inc = dbt_divergence(0, 1e3) - dbt_divergence(0, 1e2)
        assert inc == pytest.approx(math.log(10.0) / math.pi, rel=0.05)

    def test_slope_independent_of_order(self):
        inc0 = dbt_divergence(0, 1e3) - dbt_divergence(0, 1e2)
        inc5 = dbt_divergence(5, 1e3) - dbt_divergence(5, 1e2)
        assert inc5 == pytest.approx(inc0, rel=0.05)

"""Holomorphic family: periodization, coefficients, kernel, expectations.

Closed theta forms are pitted against winding sums, coefficient-space
sums, and quadrature on the explicit wavefunctions.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from circleqm import zakcs
from circleqm.circlespace import (CircleState, Params, Sector, apply_operator,
                                  inner)
from circleqm.evolve import EvolutionSpec, evolve_w, kernel, kernel_apply
from circleqm.specfun import ThetaNome, theta, theta_derivs
from circleqm.zakcs import (
    PhasePoint,
    WZParams,
    completeness_residual_wz,
    density,
    fn_basis,
    gaussian_cs,
    periodized_norm_constant,
    transition_prob,
    w_expectations,
    w_norm_sq,
    w_overlap,
    w_state,
    w_value,
    zak_periodize,
)


def _w_state_inline(params, z, window_tol):
    """n_lo and coefficients of w_z with the window rule and the basis
    formula written out in place."""
    eps, delta = params.epsilon, params.delta
    zc = PhasePoint.from_z(z).z
    center = int(round((zc.imag - eps * delta) / eps))
    half = int(math.ceil(math.sqrt(2.0 * math.log(1.0 / window_tol) / eps))) + 5
    ms = np.arange(center - half, center + half + 1)
    log_c = -eps * (ms.astype(float) ** 2 / 2.0 + ms * delta) - 1j * ms * zc
    return int(ms[0]), np.exp(log_c)


def _weighted_residual_by_node(m, params):
    """The weighted completeness residual at l_cut = 8 node by node: one
    w_state norm and one scalar theta call per Gauss-Legendre node."""
    eps, delta = params.epsilon, params.delta
    x_gl, w_gl = np.polynomial.legendre.leggauss(80)
    center, half_width = eps * (m + delta), 8.0 * math.sqrt(eps)
    nome = ThetaNome(1j * eps / math.pi)  # q = e^{-eps}
    integrand = np.empty(x_gl.size)
    for i, x in enumerate(x_gl):
        l_t = center + half_width * x
        y = l_t - eps * delta
        t3 = theta(3, 1j * y, nome).real
        norm_sq = w_state(params, PhasePoint(0.0, l_t),
                          window_tol=1e-15).norm_sq()
        f_m_sq = math.exp(-eps * m * m - 2.0 * eps * m * delta + 2.0 * m * l_t)
        integrand[i] = (math.exp(-y * y / eps) / math.sqrt(eps * math.pi)
                        * t3 * f_m_sq / norm_sq)
    return float(np.sum(half_width * w_gl * integrand)) - 1.0


def _closed_forms_inline(params, z, z2, phi, ms):
    """The family's theta closed forms, each written out in place with its
    own nome, built from tau (q = e^{i pi tau}): w_z, the kernel and its
    diagonal, the periodized normalizer and the two functions it divides,
    and the winding face of zak_periodize (phi - theta in [-pi, pi)).
    Each is a callable, so that one whose theta refuses leaves the rest."""
    eps, delta = params.epsilon, params.delta
    y = z.l_tilde - eps * delta

    def den():
        return theta(3, math.pi * y / eps, ThetaNome(1j * math.pi / eps)).real

    def winding():
        return theta(3, 1j * math.pi * (phi - z.z + 1j * eps * delta) / eps,
                     ThetaNome(2j * math.pi / eps))

    return {
        "w_value": lambda: np.exp(1j * phi * delta) * theta(
            3, (phi - z.z + 1j * eps * delta) / 2.0,
            ThetaNome(1j * eps / (2.0 * math.pi))),
        "w_norm_sq": lambda: theta(3, 1j * y,
                                   ThetaNome(1j * eps / math.pi)).real,
        "w_overlap": lambda: complex(theta(
            3, (np.conj(z.z) - z2.z + 2j * eps * delta) / 2.0,
            ThetaNome(1j * eps / math.pi))),
        "periodized_norm_constant": lambda: math.sqrt(2.0 * math.pi / den()),
        "transition_prob": lambda: (
            math.sqrt(eps / math.pi)
            * np.exp(-(z.l_tilde - eps * (ms + delta)) ** 2 / eps) / den()),
        "density": lambda: (
            2.0 * math.pi / math.sqrt(eps * math.pi)
            * np.exp(-(phi - z.theta) ** 2 / eps) * np.abs(winding()) ** 2
            / den()),
        "zak_periodize": lambda: (
            (eps * math.pi) ** -0.25
            * np.exp(-(abs(z.z) ** 2 - z.z * z.z) / (4.0 * eps)
                     - (phi - z.z) ** 2 / (2.0 * eps))
            * winding()),
    }


def _random_draws(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        eps = 10 ** rng.uniform(-2, 0.5)
        params = WZParams(eps, Sector(rng.uniform(0, 1) if rng.uniform() < 0.7
                                      else 0.0))
        z = PhasePoint(rng.uniform(0, 2 * math.pi), rng.uniform(-6, 6))
        z2 = PhasePoint(rng.uniform(0, 2 * math.pi), z.l_tilde + rng.normal())
        phi = z.theta + rng.uniform(-math.pi, math.pi, 9)
        yield params, z, z2, phi


class TestGaussianCS:
    def test_origin_value(self):
        assert gaussian_cs(1.0, 0j, 0.0) == pytest.approx(math.pi ** -0.25)

    @pytest.mark.parametrize("eps,z", [(1.0, 0.4 + 0.8j), (0.5, 2.0 - 1.0j),
                                       (2.0, 1.0j)])
    def test_normalized_on_line(self, eps, z):
        norm, _ = integrate.quad(
            lambda x: abs(gaussian_cs(eps, z, x)) ** 2, -14, 14, limit=200)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_position_mean_and_variance(self):
        eps, z = 0.7, 1.2 + 0.5j
        mean, _ = integrate.quad(
            lambda x: x * abs(gaussian_cs(eps, z, x)) ** 2, -14, 14, limit=200)
        sq, _ = integrate.quad(
            lambda x: x * x * abs(gaussian_cs(eps, z, x)) ** 2, -14, 14,
            limit=200)
        assert mean == pytest.approx(z.real, abs=1e-10)
        assert sq - mean ** 2 == pytest.approx(eps / 2.0, abs=1e-10)

    def test_momentum_mean(self):
        eps, z = 0.7, 1.2 + 0.5j
        h = 1e-5

        def integrand(x):
            du = (gaussian_cs(eps, z, x + h) - gaussian_cs(eps, z, x - h)) / (2 * h)
            return (np.conj(gaussian_cs(eps, z, x)) * -1j * du).real

        mean, _ = integrate.quad(integrand, -14, 14, limit=200)
        assert mean == pytest.approx(z.imag / eps, abs=1e-8)

    def test_annihilation_relation_pointwise(self):
        eps, z = 1.3, 0.9 - 0.4j
        h = 1e-5
        for x in [-1.0, 0.0, 0.7, 2.2]:
            du = (gaussian_cs(eps, z, x + h) - gaussian_cs(eps, z, x - h)) / (2 * h)
            lhs = x * gaussian_cs(eps, z, x) + eps * du
            assert abs(lhs - z * gaussian_cs(eps, z, x)) < 1e-8


class TestZakPeriodize:
    def test_origin_series_vs_closed(self):
        params = WZParams(1.0, Sector(0.0))
        series, closed = zak_periodize(params, 0j, 0.0)
        brute = (math.pi ** -0.25) * sum(
            math.exp(-(2 * math.pi * n) ** 2 / 2.0) for n in range(-6, 7))
        assert abs(series - brute) < 1e-14
        assert abs(series - closed) < 1e-12

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.7])
    def test_quasi_periodicity(self, delta):
        params = WZParams(1.0, Sector(delta))
        z = 0.5 + 0.4j
        phi = np.linspace(0, 2 * math.pi, 9, endpoint=False)
        _, closed0 = zak_periodize(params, z, phi)
        _, closed1 = zak_periodize(params, z, phi + 2 * math.pi)
        ref = np.exp(1j * 2 * math.pi * delta) * closed0
        assert np.max(np.abs(closed1 - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("eps,delta,z", [
        (1.0, 0.0, 0j), (1.0, 0.25, 1.0 + 0.5j), (0.5, 0.6, 2.0 - 0.7j),
        (2.0, 0.1, 0.3 + 1.2j)])
    def test_series_vs_closed_grid(self, eps, delta, z):
        params = WZParams(eps, Sector(delta))
        phi = np.linspace(-math.pi, 3 * math.pi, 24)
        series, closed = zak_periodize(params, z, phi)
        scale = np.max(np.abs(series))
        assert np.max(np.abs(series - closed)) < 1e-10 * scale

    @pytest.mark.parametrize("eps,delta,z", [
        (1.0, 0.0, 0j), (1.0, 0.25, 1.0 + 0.5j), (0.5, 0.6, 2.0 - 0.7j),
        (2.0, 0.1, 0.3 + 1.2j), (0.05, 0.9, 5.0 + 0.2j)])
    def test_series_matches_winding_loop(self, eps, delta, z):
        # the winding sum is the line state summed over its 2 pi copies
        params = WZParams(eps, Sector(delta))
        phi = np.linspace(-math.pi, 3 * math.pi, 24)
        series, _ = zak_periodize(params, z, phi)
        n_max = 3 + int(math.ceil((abs(PhasePoint.from_z(z).z)
                                   + math.sqrt(80.0 * eps) + 3 * math.pi)
                                  / (2.0 * math.pi)))
        ref = sum(cmath.exp(-2j * math.pi * n * delta)
                  * gaussian_cs(eps, z, phi + 2.0 * math.pi * n)
                  for n in range(-n_max, n_max + 1))
        assert np.max(np.abs(series - ref)) < 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("eps,delta", [(0.05, 0.0), (0.05, 0.37),
                                           (0.2, 0.8), (1.0, 0.25)])
    @pytest.mark.parametrize("turns", [-4, -2, -1, 1, 2, 4])
    def test_closed_face_whole_turns_away(self, eps, delta, turns):
        # the closed face reduces phi - theta by whole turns: further out
        # its Gaussian underflowed against the theta factor (nan)
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(0.5, 0.3)
        phi = z.theta + 2.0 * math.pi * turns + np.array([-0.4, 0.0, 0.9, 3.1])
        series, closed = zak_periodize(params, z, phi)
        assert np.max(np.abs(closed - series)) < 1e-12 * np.max(np.abs(series))

    def test_closed_face_two_turns_value(self):
        params = WZParams(0.05, Sector(0.0))
        series, closed = zak_periodize(params, 0.5 + 0j, 0.5 + 4.0 * math.pi)
        assert abs(closed - series) < 1e-12 * abs(series)
        assert closed == pytest.approx(1.5884371319, rel=1e-9)

    def test_winding_face_finite_at_large_label_momentum(self):
        # the label's factor exp(-(|z|^2 + z^2)/(4 eps)) underflowed where
        # the copies nearest theta overflowed, and the winding face was nan
        eps = 0.02312150689040271
        params = WZParams(eps, Sector(0.31675833970975287))
        z = PhasePoint(5.947309146654682, 3.525093415019491)
        series, closed = zak_periodize(params, z, 0.3)
        assert abs(series - closed) < 1e-12 * abs(closed)
        assert abs(gaussian_cs(eps, z, z.theta)) == pytest.approx(
            (eps * math.pi) ** -0.25, rel=1e-15)

    def test_small_nome_face_matches(self):
        # the same periodized state written with the nome e^{-eps/2}, the
        # modular partner of the winding-sum form: a multiple of w_z
        eps, delta = 1.0, 0.3
        params = WZParams(eps, Sector(delta))
        z = 0.8 + 0.6j
        phi = np.linspace(0, 2 * math.pi, 11)
        _, closed = zak_periodize(params, z, phi)
        pref = ((2.0 * math.pi) ** -0.5 * (eps / math.pi) ** 0.25
                * cmath.exp(-(abs(z) ** 2 - z * z) / (4.0 * eps))
                * cmath.exp(-eps * delta ** 2 / 2.0 - 1j * z * delta))
        alt = pref * w_value(params, z, phi)
        assert np.max(np.abs(closed - alt)) < 1e-11 * np.max(np.abs(closed))

    def test_parseval(self):
        # integral over sectors and angle of |periodized|^2 equals the line
        # norm of the seed Gaussian (= 1)
        eps, z = 1.0, 0.9 + 0.3j
        n_delta, n_phi = 24, 96
        deltas = (np.arange(n_delta) + 0.5) / n_delta
        phis = np.arange(n_phi) * 2 * math.pi / n_phi
        total = 0.0
        for d in deltas:
            _, vals = zak_periodize(WZParams(eps, Sector(d)), z, phis)
            total += np.sum(np.abs(vals) ** 2) * (2 * math.pi / n_phi)
        total /= n_delta
        assert total == pytest.approx(1.0, abs=1e-8)


class TestWState:
    def test_peak_location(self):
        eps, delta, k = 0.8, 0.3, 3
        params = WZParams(eps, Sector(delta))
        st = w_state(params, PhasePoint(0.0, eps * (k + delta)))
        mags = np.abs(st.coeffs)
        assert st.n_lo + int(np.argmax(mags)) == k

    @pytest.mark.parametrize("eps,delta,l", [(1.0, 0.0, 0.0), (1.0, 0.2, 1.3),
                                             (0.5, 0.7, -0.9)])
    def test_norm_vs_theta(self, eps, delta, l):
        params = WZParams(eps, Sector(delta))
        st = w_state(params, PhasePoint(0.4, l), window_tol=1e-14)
        assert st.norm_sq() == pytest.approx(
            w_norm_sq(params, PhasePoint(0.4, l)), rel=1e-10)

    def test_coefficients_match_inline_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = WZParams(10 ** rng.uniform(-2, 0.5),
                              Sector(rng.uniform(0, 1)))
            z = complex(rng.uniform(-7, 7), rng.uniform(-3, 3))
            tol = 10 ** rng.uniform(-15, -3)
            st = w_state(params, z, window_tol=tol)
            n_lo, coeffs = _w_state_inline(params, z, tol)
            assert st.n_lo == n_lo
            assert np.array_equal(st.coeffs, coeffs)

    @pytest.mark.parametrize("l", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_momentum(self, l):
        with pytest.raises(ValueError):
            w_state(WZParams(1.0, Sector(0.0)), PhasePoint(0.0, l))

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_angle(self, angle):
        # the reduction mod 2 pi made the angle nan: w_expectations gave
        # mean_c = nan
        with pytest.raises(ValueError, match="angle"):
            PhasePoint(angle, 0.1)
        with pytest.raises(ValueError, match="angle"):
            w_expectations(WZParams(1.0, Sector(0.2)), complex(angle, 0.1))

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_rejects_non_finite_stiffness(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            WZParams(eps, Sector(0.0))

    def test_stiffness_keeps_every_nome_a_normal_double(self):
        # the family's nomes have Im tau = eps/2 pi, 2 eps/2 pi, pi/eps and
        # 2 pi/eps; outside _EPS_RANGE one left double range or fell below
        # 2^-1022, and the refusal named that internal tau
        lo, hi = zakcs._EPS_RANGE
        for eps in (math.nextafter(lo, 0.0), 1e-308, 5e-324, 0.0, -1.0,
                    math.nextafter(hi, math.inf)):
            with pytest.raises(ValueError, match="epsilon"):
                WZParams(eps, Sector(0.25))
        for eps in (lo, hi):
            params = WZParams(eps, Sector(0.25))
            z = PhasePoint(0.3, 0.25 * eps)
            assert math.isfinite(w_norm_sq(params, z))
            assert math.isfinite(periodized_norm_constant(params, z))

    @pytest.mark.parametrize("eps,delta,z", [
        (1.0, 0.3, 0.5 + 0.4j), (0.3, 0.75, 2.0 + 3.0j), (2.5, 0.0, 5.0 - 1.5j)])
    def test_quasi_periodic_in_whole_turns(self, eps, delta, z):
        # w_value(phi + 2 pi k) = e^{2 pi i delta k} w_value(phi): theta
        # reduces (phi - z + i eps delta)/2 by its period.  Rounding phi +
        # 2 pi k moves phi by ~1e-16 |2 pi k|; the difference stayed below
        # 3.6e-15 (1 + |k|) of max |w|.  Unreduced it was 8e-7 at k = 1e4.
        params = WZParams(eps, Sector(delta))
        phi = np.linspace(-math.pi, math.pi, 13)
        ref = w_value(params, z, phi)
        for k in (1, -7, 100, -1000, 10 ** 4, -10 ** 4):
            vals = w_value(params, z, phi + 2 * math.pi * k)
            err = np.max(np.abs(vals - cmath.exp(2j * math.pi * delta * k) * ref))
            assert err < 4e-14 * (1 + abs(k)) * np.max(np.abs(ref))

    def test_closed_form_two_theta_routes(self):
        # w_value's theta on both sides of tau -> -1/tau, at its own
        # argument and nome: tau = i/(2 pi), where the walk takes S
        params = WZParams(1.0, Sector(0.2))
        z = PhasePoint(0.7, 0.9)
        phi = np.linspace(0, 2 * math.pi, 17)
        zeta = (phi - z.z + 1j * params.epsilon * params.delta) / 2.0
        nome = ThetaNome.from_q(math.exp(-0.5 * params.epsilon))
        direct = theta(3, zeta, nome, method="direct")
        transformed = theta(3, zeta, nome)
        assert np.max(np.abs(direct - transformed)) < 1e-10 * np.max(np.abs(direct))
        ref = np.exp(1j * phi * params.delta) * direct
        assert np.max(np.abs(w_value(params, z, phi) - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_coefficients_reproduce_closed_form(self):
        params = WZParams(0.9, Sector(0.4))
        z = PhasePoint(1.1, -0.5)
        st = w_state(params, z, window_tol=1e-14)
        phi = np.linspace(0, 2 * math.pi, 13)
        assert np.max(np.abs(st.evaluate(phi) - w_value(params, z, phi))) < 1e-10

    def test_generating_series_unit_stiffness(self):
        # at eps = 1 the coefficients are exp(-n^2/2) (eta e^-delta)^n
        params = WZParams(1.0, Sector(0.35))
        z = PhasePoint(0.8, 0.4)
        eta = cmath.exp(-1j * z.z)
        st = w_state(params, z, window_tol=1e-13)
        for n in range(st.n_lo, st.n_hi + 1):
            ref = math.exp(-n * n / 2.0) * (eta * math.exp(-params.delta)) ** n
            assert abs(st.coeffs[n - st.n_lo] - ref) < 1e-13 * max(abs(ref), 1e-10)

    def test_norm_constants_consistent(self):
        # C_z normalizes the periodized Gaussian, N_z the holomorphic part;
        # the two differ by the modulus of the split-off prefactor
        eps, delta = 1.0, 0.2
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(0.3, 0.8)
        phi = np.linspace(-math.pi, math.pi, 257)[:-1] + z.theta
        _, u_vals = zak_periodize(params, z, phi)
        w_vals = w_value(params, z, phi)
        n_u = periodized_norm_constant(params, z)
        n_w = w_norm_sq(params, z) ** -0.5
        ratio = np.abs(n_u * u_vals) / np.abs(n_w * w_vals)
        assert np.max(np.abs(ratio - 1.0)) < 1e-10


class TestWOverlap:
    def test_diagonal_is_norm(self):
        params = WZParams(1.0, Sector(0.25))
        z = PhasePoint(0.5, 1.1)
        assert w_overlap(params, z, z) == pytest.approx(
            w_norm_sq(params, z), rel=1e-12)

    def test_hermitian_symmetry(self):
        params = WZParams(0.8, Sector(0.4))
        rng = np.random.default_rng(2)
        for _ in range(8):
            z1 = PhasePoint(rng.uniform(0, 6.28), rng.uniform(-2, 2))
            z2 = PhasePoint(rng.uniform(0, 6.28), rng.uniform(-2, 2))
            k12 = w_overlap(params, z1, z2)
            k21 = w_overlap(params, z2, z1)
            assert abs(k21 - np.conj(k12)) < 1e-12 * max(abs(k12), 1.0)

    def test_kernel_equals_basis_sum(self):
        params = WZParams(1.0, Sector(0.15))
        z1, z2 = PhasePoint(0.3, 0.9), PhasePoint(1.7, -0.4)
        direct = w_overlap(params, z1, z2)
        total = sum(np.conj(fn_basis(params, n, z1)) * fn_basis(params, n, z2)
                    for n in range(-30, 31))
        assert abs(direct - total) < 1e-10 * abs(direct)

    def test_kernel_equals_state_inner(self):
        params = WZParams(0.7, Sector(0.5))
        z1, z2 = PhasePoint(2.0, 0.3), PhasePoint(0.4, 1.0)
        s1 = w_state(params, z1, window_tol=1e-15)
        s2 = w_state(params, z2, window_tol=1e-15)
        assert abs(inner(s1, s2) - w_overlap(params, z1, z2)) < 1e-10

    @pytest.mark.parametrize("eps,z1,z2", [
        # |Im| of the transformed argument ~230: exp(2 i n zeta) overflowed
        # before its q^(n^2) weight was applied
        (0.02, PhasePoint(0.0, 0.5), PhasePoint(2.9, 0.7)),
        # near neighbours across the 2 pi cut: the transform's Gaussian
        # underflowed while its series overflowed
        (0.01, PhasePoint(0.05, 0.5), PhasePoint(6.2, 0.7))],
        ids=["eps=0.02", "eps=0.01-across-cut"])
    def test_small_eps_kernel_finite(self, eps, z1, z2):
        params = WZParams(eps, Sector(0.3))
        s1, s2 = w_state(params, z1), w_state(params, z2)
        k = w_overlap(params, z1, z2)
        assert np.isfinite(k)
        assert abs(k - inner(s1, s2)) < 1e-12 * s1.norm() * s2.norm()

    def _measure_nodes(self, params, n_theta=64, n_herm=40):
        eps, delta = params.epsilon, params.delta
        x_h, w_h = np.polynomial.hermite.hermgauss(n_herm)
        l_nodes = eps * delta + math.sqrt(eps) * x_h
        l_wts = w_h / math.sqrt(math.pi)
        thetas = np.arange(n_theta) * 2 * math.pi / n_theta
        return thetas, l_nodes, l_wts

    def test_reproducing_property(self):
        params = WZParams(1.0, Sector(0.2))
        z1, z2 = PhasePoint(0.4, 0.6), PhasePoint(2.2, -0.3)
        thetas, l_nodes, l_wts = self._measure_nodes(params)
        total = 0j
        for l_t, wt in zip(l_nodes, l_wts):
            zs = [PhasePoint(t, l_t) for t in thetas]
            vals = np.array([w_overlap(params, z1, zz) * w_overlap(params, zz, z2)
                             for zz in zs])
            total += wt * np.mean(vals)
        ref = w_overlap(params, z1, z2)
        assert abs(total - ref) < 1e-6 * max(abs(ref), 1.0)

    def test_kernel_reproduces_basis_functions(self):
        params = WZParams(1.0, Sector(0.2))
        z1, m = PhasePoint(1.1, 0.5), 1
        thetas, l_nodes, l_wts = self._measure_nodes(params)
        total = 0j
        for l_t, wt in zip(l_nodes, l_wts):
            vals = np.array([w_overlap(params, PhasePoint(t, l_t), z1)
                             * fn_basis(params, m, PhasePoint(t, l_t))
                             for t in thetas])
            total += wt * np.mean(vals)
        ref = fn_basis(params, m, z1)
        assert abs(total - ref) < 1e-6 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("z", [0.4 + 0.2j, PhasePoint(5.5, -2.0),
                                   9.0 - 1.5j])
    def test_basis_array_matches_scalar_calls(self, z):
        params = WZParams(0.3, Sector(0.45))
        n = np.arange(-40, 41)
        vals = fn_basis(params, n, z)
        zc = z.z if isinstance(z, PhasePoint) else PhasePoint.from_z(z).z
        for k, v in zip(n.tolist(), vals):
            ref = cmath.exp(-0.3 * (k * k / 2.0 + k * 0.45) - 1j * k * zc)
            assert abs(v - ref) <= 1e-15 * abs(ref)
            assert abs(fn_basis(params, k, z) - ref) <= 1e-15 * abs(ref)

    def test_holomorphy_cauchy_riemann(self):
        params = WZParams(1.0, Sector(0.3))
        h = 1e-5
        for n in (-2, 0, 3):
            for z in (0.4 + 0.2j, 2.0 - 1.0j):
                dx = (fn_basis(params, n, z + h) - fn_basis(params, n, z - h)) / (2 * h)
                dy = (fn_basis(params, n, z + 1j * h)
                      - fn_basis(params, n, z - 1j * h)) / (2j * h)
                assert abs(dx - dy) < 1e-6 * max(abs(dx), 1.0)


class TestBargmannMap:
    """The holomorphic representative of a circle state psi = sum c_n e_n
    is (psi, w_z) = sum conj(c_n) f_{n,delta}(z), the reproducing identity
    of the family."""

    def test_evaluation_is_overlap_with_family(self):
        params = WZParams(1.0, Sector(0.4))
        rng = np.random.default_rng(8)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        state = CircleState(Sector(0.4), -2, c)
        z = PhasePoint(0.9, 0.5)
        value = np.conj(c) @ fn_basis(params, np.arange(-2, 3), z)
        ref = inner(state, w_state(params, z, window_tol=1e-15))
        assert abs(value - ref) < 1e-12 * max(abs(ref), 1.0)


def _theta_4_for_the_shift():
    """theta_derivs as w_expectations calls it, theta_3 at zeta and then at
    zeta + pi/2, answered as theta_3 and theta_4 at zeta."""
    first = []

    def call(kind, zeta, nome):
        if not first:
            first.append(zeta)
            return theta_derivs(3, zeta, nome)
        return theta_derivs(4, first[0], nome)
    return call


class TestWExpectations:
    def test_two_scalar_theta_calls(self, monkeypatch):
        # theta_3 at zeta and zeta + pi/2, each a number on theta's scalar
        # lane
        calls = []

        def counted(*args):
            calls.append(args)
            return theta_derivs(*args)

        monkeypatch.setattr(zakcs, "theta_derivs", counted)
        w_expectations(WZParams(0.3, Sector(0.37)), PhasePoint(1.1, -0.4))
        assert [(kind, type(zeta)) for kind, zeta, _ in calls] == [
            (3, float), (3, float)]

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.3, 1.0, 2.0])
    def test_matches_two_call_form(self, eps, monkeypatch):
        # theta_4(zeta) read as theta_3(zeta + pi/2) moves the record by
        # rounding only: within 1e-15 of max(1, |value|) (the variances
        # and the correlation are differences of O(1) terms), and the
        # leading-order record, which takes no theta call, keeps its bits
        fields = ("mean_u", "mean_udag", "mean_c", "mean_s", "mean_l",
                  "mean_c2", "mean_s2", "var_c", "var_s", "var_l_scaled",
                  "corr_cl_scaled")
        for delta in (0.0, 0.37, 0.9):
            params = WZParams(eps, Sector(delta))
            for l in (-3.0, -1.7, -0.4, 0.0, 0.9, 2.2, 3.0):
                for theta_ang in (0.0, 1.1, 4.0):
                    z = PhasePoint(theta_ang, l)
                    rec = w_expectations(params, z)
                    with monkeypatch.context() as mp:
                        mp.setattr(zakcs, "theta_derivs",
                                   _theta_4_for_the_shift())
                        ref = w_expectations(params, z)
                    assert rec.leading == ref.leading
                    for name in fields:
                        got, want = getattr(rec, name), getattr(ref, name)
                        assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_u_squared_magnitude(self):
        # |<U^2>| = e^-eps independent of z, via coefficient matrix elements
        for eps, z in [(1.0, PhasePoint(0.4, 0.9)), (0.5, PhasePoint(2.0, -0.7))]:
            params = WZParams(eps, Sector(0.2))
            st = w_state(params, z, window_tol=1e-15)
            u2 = sum(np.conj(st.coeffs[i - 2]) * st.coeffs[i]
                     for i in range(2, st.coeffs.size))
            assert abs(u2) / st.norm_sq() == pytest.approx(
                math.exp(-eps), rel=1e-10)

    def test_variance_sum_identity(self):
        params = WZParams(1.0, Sector(0.2))
        e = w_expectations(params, PhasePoint(0.5, 0.3))
        nome = ThetaNome.from_q(math.exp(-math.pi ** 2))
        zeta = math.pi * (0.3 - 0.2)
        ratio = (theta(4, zeta, nome) / theta(3, zeta, nome)).real
        ref = 1.0 - math.exp(-0.5) * ratio ** 2
        assert e.var_sum == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("eps,delta,theta_ang,l", [
        (1.0, 0.0, 0.0, 0.0),
        (1.0, 0.2, 0.5, 0.3),
        (0.5, 0.4, 2.0, -0.6),
        (2.0, 0.7, 4.0, 1.9),
    ])
    def test_against_quadrature_matrix_elements(self, eps, delta, theta_ang, l):
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(theta_ang, l)
        e = w_expectations(params, z)
        psi = w_state(params, z, window_tol=1e-15).normalized()
        c_psi = apply_operator("C", psi)
        s_psi = apply_operator("S", psi)
        l_psi = apply_operator("L", psi)
        mean_c = inner(psi, c_psi).real
        mean_s = inner(psi, s_psi).real
        mean_l = inner(psi, l_psi).real
        assert mean_c == pytest.approx(e.mean_c, abs=1e-8)
        assert mean_s == pytest.approx(e.mean_s, abs=1e-8)
        assert mean_l == pytest.approx(e.mean_l, abs=1e-8)
        assert inner(c_psi, c_psi).real == pytest.approx(e.mean_c2, abs=1e-8)
        assert inner(s_psi, s_psi).real == pytest.approx(e.mean_s2, abs=1e-8)
        var_c = inner(c_psi, c_psi).real - mean_c ** 2
        var_s = inner(s_psi, s_psi).real - mean_s ** 2
        assert var_c == pytest.approx(e.var_c, abs=1e-8)
        assert var_s == pytest.approx(e.var_s, abs=1e-8)
        var_l = inner(l_psi, l_psi).real - mean_l ** 2
        assert eps ** 2 * var_l == pytest.approx(e.var_l_scaled, abs=1e-8)
        cov = inner(c_psi, l_psi).real - mean_c * mean_l
        assert eps * cov == pytest.approx(e.corr_cl_scaled, abs=1e-8)

    def test_mean_u_phase(self):
        params = WZParams(1.0, Sector(0.0))
        z = PhasePoint(0.8, 0.2)
        e = w_expectations(params, z)
        assert cmath.phase(e.mean_u) == pytest.approx(-0.8, abs=1e-12)
        assert abs(e.mean_udag - np.conj(e.mean_u)) < 1e-15

    def test_momentum_mean_correction_bound(self):
        # closed form minus l/eps stays below the first-order
        # theta-correction envelope
        for eps in (0.5, 1.0, 2.0):
            params = WZParams(eps, Sector(0.3))
            bound = 4.0 * math.exp(-math.pi ** 2 / eps) * math.pi / (2 * eps)
            for l in np.linspace(-1.5, 1.5, 7):
                e = w_expectations(params, PhasePoint(1.0, l))
                corr = abs(e.mean_l - l / eps)
                assert corr <= bound * 1.02 + 1e-14

    def test_leading_order_close_to_exact(self):
        params = WZParams(1.0, Sector(0.1))
        e = w_expectations(params, PhasePoint(0.7, 0.4))
        q = math.exp(-math.pi ** 2)
        assert abs(e.mean_l - e.leading.mean_l) < 50 * q ** 2
        assert abs(e.var_l_scaled - e.leading.var_l_scaled) < 1e3 * q ** 2


class TestTransitionProb:
    def test_peak_value(self):
        eps, delta, m = 1.0, 0.3, 2
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(1.234, eps * (m + delta))
        nome = ThetaNome.from_q(math.exp(-math.pi ** 2 / eps))
        ref = math.sqrt(eps / math.pi) / theta(3, 0.0, nome).real
        assert transition_prob(m, params, z) == pytest.approx(ref, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        params = WZParams(1.0, Sector(0.3))
        z = PhasePoint(1.0, 0.7)
        total = sum(transition_prob(m, params, z) for m in range(-30, 31))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_normalized_coefficients(self):
        params = WZParams(0.8, Sector(0.45))
        z = PhasePoint(2.0, -0.4)
        st = w_state(params, z, window_tol=1e-15).normalized()
        for m in range(st.n_lo + 5, st.n_hi - 5):
            prob = abs(st.coeffs[m - st.n_lo]) ** 2
            assert abs(prob - transition_prob(m, params, z)) < 1e-10

    def test_nonnegative(self):
        params = WZParams(1.0, Sector(0.0))
        assert all(transition_prob(m, params, PhasePoint(0, 0.5)) >= 0
                   for m in range(-10, 11))

    @pytest.mark.parametrize("eps,delta,z", [
        (1.0, 0.3, PhasePoint(1.0, 0.7)), (0.1, 0.85, PhasePoint(4.0, -1.9)),
        (2.0, 0.0, PhasePoint(0.0, 1.5))])
    def test_array_form_matches_scalar_loop(self, eps, delta, z):
        params = WZParams(eps, Sector(delta))
        ms = w_state(params, z, window_tol=1e-14).indices
        probs = transition_prob(ms, params, z)
        assert probs.shape == ms.shape
        ref = np.array([transition_prob(int(m), params, z) for m in ms])
        assert isinstance(transition_prob(int(ms[0]), params, z), float)
        assert np.all(np.abs(probs - ref) <= 1e-15 * ref)

    def test_top_of_eps_range_without_overflow(self):
        # (l - eps (m + delta))^2 overflowed to inf with a warning here
        eps = 8.98e307
        probs = transition_prob(np.array([0, 1]), WZParams(eps, Sector(0.25)),
                                PhasePoint(0.3, 0.25 * eps))
        assert probs[0] == pytest.approx(1.0, abs=1e-12) and probs[1] == 0.0

    def test_overflowing_square_with_finite_exponent(self):
        # at m = 0 the offset x = -eps delta = -3e154 squares past double
        # range, while x^2 / eps = 90 does not: the weight is e^-90, and the
        # neighbours' are 0, so P(0) = 1 (an inf square made it 0)
        eps = 1e307
        probs = transition_prob(np.array([-1, 0, 1]),
                                WZParams(eps, Sector(3e-153)),
                                PhasePoint(0.3, 0.0))
        assert probs[1] == pytest.approx(1.0, abs=1e-12)
        assert probs[0] == probs[2] == 0.0

    def test_in_range_bits_unchanged(self):
        rng = np.random.default_rng(2005)
        for _ in range(200):
            eps = 10.0 ** rng.uniform(-2, 2)
            params = WZParams(eps, Sector(rng.uniform(0, 1)))
            z = PhasePoint(rng.uniform(-3, 3), rng.uniform(-20, 20))
            ms = np.arange(-40, 41)
            norm = zakcs._normalizer(eps, params.delta, z.l_tilde)
            ref = (math.sqrt(eps / math.pi) * np.exp(
                -(z.l_tilde - eps * (ms + params.delta)) ** 2 / eps) / norm)
            assert transition_prob(ms, params, z).tobytes() == ref.tobytes()

    def test_array_form_rejects_non_integer_m(self):
        with pytest.raises(ValueError):
            transition_prob(np.array([0.5, 1.5]), WZParams(1.0, Sector(0.0)),
                            PhasePoint(0.0, 0.0))


class TestNormalizerCache:
    """The periodized normalizer theta3[pi (l - eps delta)/eps,
    e^{-pi^2/eps}] is evaluated once per label and read from a small cache
    by `transition_prob`, `density` and `periodized_norm_constant`."""

    @staticmethod
    def _uncached(params, l_tilde):
        return zakcs._normalizer.__wrapped__(params.epsilon, params.delta,
                                             l_tilde)

    def test_one_theta_call_per_label(self, monkeypatch):
        params = WZParams(0.7, Sector(0.3))
        z = PhasePoint(1.1, 0.4)
        nome_tau = 1j * math.pi / params.epsilon
        calls = []

        def counted(kind, zeta, nome, *args):
            if nome.tau == nome_tau:  # not density's winding theta
                calls.append(zeta)
            return theta(kind, zeta, nome, *args)

        monkeypatch.setattr(zakcs, "theta", counted)
        zakcs._normalizer.cache_clear()
        for m in (-1, 0, 2):
            transition_prob(m, params, z)
        transition_prob(np.arange(-3, 4), params, z)
        density(params, z, z.theta + np.linspace(-1.0, 1.0, 5))
        periodized_norm_constant(params, z)
        assert len(calls) == 1
        # another label is another call
        transition_prob(0, params, PhasePoint(1.1, 0.5))
        assert len(calls) == 2

    def test_readers_keep_the_uncached_bits(self):
        rng = np.random.default_rng(3030)
        draws = [(WZParams(0.4, Sector(0.0)), PhasePoint(0.3, l))
                 for l in (0.0, -0.0)]
        for _ in range(120):
            eps = 10.0 ** rng.uniform(-2, 1.5)
            delta = rng.uniform(0, 1) if rng.uniform() < 0.7 else 0.0
            draws.append((WZParams(eps, Sector(delta)),
                          PhasePoint(rng.uniform(0, 2 * math.pi),
                                     rng.uniform(-6, 6))))
        with np.errstate(all="ignore"):
            for params, z in draws:
                eps, delta = params.epsilon, params.delta
                zakcs._normalizer.cache_clear()
                norm = self._uncached(params, z.l_tilde)
                m = int(round((z.l_tilde - eps * delta) / eps))
                ms = np.arange(m - 3, m + 4)
                x = z.l_tilde - eps * (m + delta)
                scalar = (math.sqrt(eps / math.pi) * math.exp(-(x * x / eps))
                          / norm)
                array = (math.sqrt(eps / math.pi) * np.exp(
                    -(z.l_tilde - eps * (ms + delta)) ** 2 / eps) / norm)
                phi = z.theta + np.linspace(-2.0, 2.0, 7)
                d = phi - z.theta
                dens = (2.0 * math.pi / math.sqrt(eps * math.pi)
                        * np.exp(-d ** 2 / eps)
                        * np.abs(zakcs._winding_theta(
                            params, d - 1j * z.l_tilde)) ** 2 / norm)
                # cold, then read back from the cache
                for _ in range(2):
                    assert transition_prob(m, params, z) == scalar
                    assert (transition_prob(ms, params, z).tobytes()
                            == array.tobytes())
                    assert np.array_equal(density(params, z, phi), dens,
                                          equal_nan=True)
                    assert (periodized_norm_constant(params, z)
                            == math.sqrt(2.0 * math.pi / norm))

    def test_signed_zero_momentum_shares_one_value(self):
        # l = 0.0 and -0.0 are one key; theta3 is even, so both give the
        # bits of either uncached call
        for eps in (0.05, 0.4, 3.0, 40.0):
            params = WZParams(eps, Sector(0.0))
            values = {self._uncached(params, l).hex() for l in (0.0, -0.0)}
            assert len(values) == 1
            zakcs._normalizer.cache_clear()
            assert zakcs._normalizer(eps, 0.0, -0.0).hex() in values
            assert zakcs._normalizer(eps, 0.0, 0.0).hex() in values

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps,l_tilde", [(1e306, 1e300), (1e305, 1e155)])
    def test_normalizer_underflow_refused(self, eps, l_tilde):
        # theta3 underflows to 0 with the Gaussian it divides: the scalar
        # lane raised ZeroDivisionError, the array lane and density gave
        # nan with a RuntimeWarning; a refusal is never cached
        params = WZParams(eps, Sector(0.0))
        z = PhasePoint(0.0, l_tilde)
        zakcs._normalizer.cache_clear()
        for call in (lambda: transition_prob(0, params, z),
                     lambda: transition_prob(np.array([0, 1]), params, z),
                     lambda: density(params, z, np.array([0.0, 0.5]))):
            with pytest.raises(ValueError, match="underflows"):
                call()
        assert zakcs._normalizer.cache_info().currsize == 0

    def test_gaussian_exponent_past_the_square_of_a_double(self):
        # x = l - eps (m + delta) = 2e154: x^2 overflows while x^2 / eps
        # = 8 does not, so the scalar lane takes (x / sqrt(eps))^2
        params = WZParams(5e307, Sector(0.0))
        z = PhasePoint(0.0, 2e154)
        assert abs(transition_prob(0, params, z) - 1.0) <= 1e-14
        probs = transition_prob(np.array([0, 1]), params, z)
        assert abs(probs[0] - 1.0) <= 1e-14 and probs[1] == 0.0


class TestDensity:
    def test_normalized_on_circle(self):
        params = WZParams(1.0, Sector(0.2))
        z = PhasePoint(2.5, 0.8)
        n = 512
        phi = z.theta - math.pi + np.arange(n) * 2 * math.pi / n
        vals = density(params, z, phi)
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-10)

    def test_matches_normalized_state(self):
        params = WZParams(1.0, Sector(0.2))
        z = PhasePoint(2.5, 0.8)
        st = w_state(params, z, window_tol=1e-15).normalized()
        phi = np.linspace(z.theta - 2, z.theta + 2, 9)
        ref = np.abs(st.evaluate(phi)) ** 2
        assert np.max(np.abs(density(params, z, phi) - ref)) < 1e-9

    def test_small_eps_tail_finite(self):
        # far from theta, exp(-2 i n zeta) overflowed before its q^(n^2)
        # weight was applied; the full grid is large enough for Horner's
        # rule, whose powers of exp(2 i zeta) would overflow here
        params = WZParams(0.04, Sector(0.3))
        z = PhasePoint(0.0, 0.5)
        phi = np.concatenate([[2.5, 3.0], np.linspace(-math.pi, math.pi, 2048)])
        st = w_state(params, z)
        vals = density(params, z, phi)
        ref = np.abs(st.evaluate(phi)) ** 2 / st.norm_sq()
        assert np.all(np.isfinite(vals))
        scale = np.sum(np.abs(st.coeffs)) ** 2 / st.norm_sq()
        assert np.max(np.abs(vals - ref)) < 1e-12 * scale

    @pytest.mark.parametrize("eps", [0.05, 0.2, 1.0])
    @pytest.mark.parametrize("turns", [1, 2, 4])
    def test_periodic_beyond_one_turn(self, eps, turns):
        # whole turns away the Gaussian underflows against the theta
        # overflow (nan) unless phi - theta is first reduced into [-pi, pi)
        params = WZParams(eps, Sector(0.3))
        z = PhasePoint(0.5, 0.7)
        st = w_state(params, z, window_tol=1e-15)
        x = np.linspace(-math.pi, math.pi, 33)
        for sign in (1, -1):
            phi = z.theta + x + sign * 2.0 * math.pi * turns
            vals = density(params, z, phi)
            ref = np.abs(st.evaluate(phi)) ** 2 / st.norm_sq()
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals - ref)) < 1e-10 * np.max(ref)
            assert np.max(np.abs(vals - density(params, z, z.theta + x))) \
                < 1e-10 * np.max(ref)

    @pytest.mark.parametrize("eps,turns,value", [(0.05, 1, 15.8533),
                                                 (0.2, 2, 7.9267)])
    def test_peak_whole_turns_away(self, eps, turns, value):
        params = WZParams(eps, Sector(0.0))
        z = PhasePoint(0.5, 0.0)
        phi = z.theta + 2.0 * math.pi * turns
        assert density(params, z, phi) == pytest.approx(value, abs=1e-4)

    def test_classical_limit_concentrates(self):
        z = PhasePoint(math.pi, 0.4)
        spreads = []
        for eps in (1.0, 0.5, 0.1):
            params = WZParams(eps, Sector(0.0))
            n = 1024
            phi = z.theta - math.pi + np.arange(n) * 2 * math.pi / n
            vals = density(params, z, phi)
            spread = np.sum(vals * (phi - z.theta) ** 2) / np.sum(vals)
            spreads.append(spread)
        assert spreads[0] > spreads[1] > spreads[2]


class TestCompleteness:
    def test_off_diagonal_zero(self):
        params = WZParams(1.0, Sector(0.0))
        res = completeness_residual_wz(0, 1, params)
        assert res.gauss == 0j
        assert res.weighted == 0j

    @pytest.mark.parametrize("m,eps,delta", [(0, 1.0, 0.0), (1, 0.5, 0.3),
                                             (-2, 2.0, 0.6)])
    def test_diagonal_residuals_small(self, m, eps, delta):
        params = WZParams(eps, Sector(delta))
        res = completeness_residual_wz(m, m, params)
        assert abs(res.gauss) < 1e-6
        assert abs(res.weighted) < 1e-6

    def test_two_forms_agree(self):
        params = WZParams(1.0, Sector(0.2))
        res = completeness_residual_wz(0, 0, params)
        assert abs(res.gauss - res.weighted) < 1e-8

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.3, 1.0, 2.0])
    def test_weighted_matches_node_loop(self, eps):
        for delta in (0.0, 0.37, 0.9):
            for m in (-3, 0, 2):
                params = WZParams(eps, Sector(delta))
                res = completeness_residual_wz(m, m, params)
                ref = _weighted_residual_by_node(m, params)
                assert abs(res.weighted - ref) <= 1e-15

    def test_gauss_nodes_built_once(self, monkeypatch):
        # the 80 nodes are built on first use and cached, with leggauss's
        # bits: with leggauss refusing, the residuals keep the values they
        # had
        x_gl, w_gl = np.polynomial.legendre.leggauss(80)
        assert np.array_equal(zakcs._wz_nodes()[0], x_gl)
        assert np.array_equal(zakcs._wz_nodes()[1], w_gl)
        cases = [(0, WZParams(0.05, Sector(0.0))),
                 (2, WZParams(0.3, Sector(0.37))),
                 (-1, WZParams(1.0, Sector(0.9))),
                 (3, WZParams(2.0, Sector(0.5)))]
        before = [completeness_residual_wz(m, m, p) for m, p in cases]

        def refuse(*args):
            raise AssertionError("leggauss called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        after = [completeness_residual_wz(m, m, p) for m, p in cases]
        assert after == before


class TestClosedFormOwners:
    """Each theta closed form has one owner; the public functions built on
    them give the bits of the formulas written out in place."""

    def test_bit_identical_to_inline_formulas(self):
        # every owner raises ValueError where its inline theta refuses a
        # value past double range, and gives the inline bits everywhere else
        refused = set()
        with np.errstate(all="ignore"):
            for params, z, z2, phi in _random_draws(150, 2024):
                eps, delta = params.epsilon, params.delta
                ms = np.arange(-3, 4) + int(round((z.l_tilde - eps * delta) / eps))
                inline = _closed_forms_inline(params, z, z2, phi, ms)
                calls = {"w_value": lambda: w_value(params, z, phi),
                         "w_norm_sq": lambda: w_norm_sq(params, z),
                         "w_overlap": lambda: w_overlap(params, z, z2),
                         "periodized_norm_constant":
                             lambda: periodized_norm_constant(params, z),
                         "transition_prob":
                             lambda: transition_prob(ms, params, z),
                         "density": lambda: density(params, z, phi),
                         "zak_periodize":
                             lambda: zak_periodize(params, z, phi)[1]}
                for name, call in calls.items():
                    try:
                        ref = inline[name]()
                    except ValueError as exc:
                        assert "finite double" in str(exc), name
                        refused.add(name)
                        with pytest.raises(ValueError, match="finite double"):
                            call()
                        continue
                    assert np.array_equal(call(), ref, equal_nan=True), name
        assert {"w_value", "w_norm_sq", "w_overlap"} <= refused

    def test_expectations_leading_oscillation(self):
        # osc = 2 zeta at the normalizer's argument, as 2 pi (l - eps delta)/eps
        for params, z, _, _ in _random_draws(50, 11):
            eps = params.epsilon
            y = z.l_tilde - params.delta * eps
            q = math.exp(-math.pi ** 2 / eps)
            e = w_expectations(params, z)
            assert e.leading.ratio43 == 1.0 - 4.0 * q * math.cos(
                2.0 * math.pi * y / eps)

    def test_norm_sq_is_kernel_diagonal_bitwise(self):
        for params, z, _, _ in _random_draws(150, 5):
            # both refuse past the double range (small eps)
            try:
                norm_sq = w_norm_sq(params, z)
            except ValueError:
                with pytest.raises(ValueError, match="finite double"):
                    w_overlap(params, z, z)
                continue
            assert norm_sq == w_overlap(params, z, z).real


class TestRefusals:
    @pytest.mark.parametrize("call,word", [
        (lambda: gaussian_cs(0.0, 0.5j, 0.1), "epsilon"),
        (lambda: gaussian_cs(-1.0, 0.5j, 0.1), "epsilon"),
        (lambda: w_state(WZParams(1.0, Sector(0.0)), 0.5j, window_tol=0.0),
         "window_tol"),
        (lambda: w_state(WZParams(1.0, Sector(0.0)), 0.5j, window_tol=1.0),
         "window_tol"),
    ], ids=["eps-zero", "eps-negative", "tol-zero", "tol-one"])
    def test_refused(self, call, word):
        with pytest.raises(ValueError, match=word):
            call()

    def test_label_angle_endpoint_folds_to_zero(self):
        # -1e-17 % 2 pi rounds up to 2 pi, the excluded end of [0, 2 pi)
        assert PhasePoint(-1e-17, 0.0).theta == 0.0
        assert PhasePoint(-1e-17, 0.0) == PhasePoint(0.0, 0.0)
        assert PhasePoint(-1e-10, 0.0).theta == 2 * math.pi - 1e-10

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_refused_without_warning(self, angle):
        # each call gave a RuntimeWarning at phi = inf, and zak_periodize an
        # OverflowError from its winding count
        params = WZParams(1.0, Sector(0.3))
        z = 0.5 + 0.4j
        evolved = evolve_w(EvolutionSpec(Params(1.0), Sector(0.3), 0.7), z)
        calls = [("phi", lambda: density(params, z, angle)),
                 ("phi", lambda: w_value(params, z, angle)),
                 ("phi", lambda: evolved(np.array([0.2, angle]))),
                 ("phi", lambda: zak_periodize(params, z, angle)),
                 ("xi", lambda: gaussian_cs(1.0, z, angle))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, call in calls:
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    call()

    @pytest.mark.parametrize("call", [
        lambda: w_norm_sq(WZParams(760.0, Sector(0.99)), 0.0),
        lambda: w_value(WZParams(1500.0, Sector(0.99)), 0.0, 0.0),
        lambda: w_norm_sq(WZParams(0.01, Sector(0.3)), 0.5 + 3j),
        lambda: w_overlap(WZParams(0.01, Sector(0.3)), 0.5 + 3j, 0.5 + 3j),
    ], ids=["norm-eps-760", "value-eps-1500", "norm-eps-0.01",
            "overlap-eps-0.01"])
    def test_value_past_double_range_refused(self, call):
        # about e^745 at eps = 760 and e^900 at eps = 0.01, l = 3: each
        # returned inf or nan with only a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite double"):
                call()

    def test_angle_past_2_52_periods_refused(self):
        # theta's argument (phi - z + i eps delta)/2 is 5e16 here, past 2^52
        # periods, where one ulp is more than a period
        with pytest.raises(ValueError, match="2\\^52 periods"):
            w_value(WZParams(1.0, Sector(0.3)), 0.5 + 0.4j, 1e17)


def _exp_sums_mp(exponents, weights=None):
    """sum_n w_n exp(E_n) and sum_n |w_n exp(E_n)| in 40-digit arithmetic;
    exponents and weights are mpmath numbers."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        terms = [mpmath.exp(e) for e in exponents]
        if weights is not None:
            terms = [w * t for w, t in zip(weights, terms)]
        return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)


def _in_range(scale):
    return 1e-290 < scale < 1e290


class TestUnderflowingNomes:
    """Bands where a nome built from its value would be subnormal or 0 in
    double: e^{-eps} (w_norm_sq, w_overlap), e^{-eps/2} (w_value),
    e^{-eps omega eta/2} (the propagator kernel) and e^{-pi^2/eps} (the
    periodized normalizer).  Each value is held to a 40-digit coefficient
    or spectral sum at 1e-12 of the sum of its terms' moduli (of max|K|
    times sum |c| for kernel_apply), on draws whose exact value lies in
    double range."""

    @settings(max_examples=60, deadline=None)
    @given(band=st.sampled_from(["norm", "value", "kernel", "normalizer"]),
           delta=st.floats(0.0, 1.0, exclude_max=True),
           u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    @example(band="kernel", delta=0.9, u=[1 / 3, 1 / 3, 2 / 26, 0.5])
    @example(band="norm", delta=0.9, u=[1.0, 0.5, 0.5, 0.5])
    @example(band="value", delta=0.5, u=[0.5, 0.5, 0.5, 0.5])
    def test_against_40_digit_sums(self, band, delta, u):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            getattr(self, "_check_" + band)(mpmath, delta, *u)

    @staticmethod
    def _check_norm(mp, delta, u0, u1, u2, u3):
        eps = 700.0 + 60.0 * u0
        params = WZParams(eps, Sector(delta))
        z1 = PhasePoint(2 * math.pi * u1, 40.0 * u2 - 20.0)
        z2 = PhasePoint(2 * math.pi * u3, 20.0 - 40.0 * u1)
        center = round((z1.l_tilde - eps * delta) / eps)
        ns = range(center - 5, center + 6)
        dz = mp.mpc(z1.z).conjugate() - mp.mpc(z2.z)
        norm, _ = _exp_sums_mp(-eps * (n * n + 2 * n * mp.mpf(delta))
                               + 2 * n * mp.mpf(z1.l_tilde) for n in ns)
        overlap, scale = _exp_sums_mp(-eps * (n * n + 2 * n * mp.mpf(delta))
                                      + 1j * n * dz for n in ns)
        assume(_in_range(norm) and _in_range(scale))
        assert abs(w_norm_sq(params, z1) - norm) <= 1e-12 * norm
        assert abs(w_overlap(params, z1, z2) - overlap) <= 1e-12 * scale

    @staticmethod
    def _check_value(mp, delta, u0, u1, u2, u3):
        eps = 1400.0 + 120.0 * u0
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(2 * math.pi * u1, 40.0 * u2 - 20.0)
        phi = math.pi * (2.0 * u3 - 1.0)
        center = round((z.l_tilde - eps * delta) / eps)
        value, scale = _exp_sums_mp(
            -eps * (n * n / mp.mpf(2) + n * mp.mpf(delta))
            + 1j * n * (mp.mpf(phi) - mp.mpc(z.z)) + 1j * mp.mpf(phi * delta)
            for n in range(center - 5, center + 6))
        assume(_in_range(scale))
        assert abs(w_value(params, z, phi) - value) <= 1e-12 * scale

    @staticmethod
    def _check_kernel(mp, delta, u0, u1, u2, u3):
        eps, omega = 0.5 + 1.5 * u0, 0.5 + 1.5 * u1
        eta = (1400.0 + 2600.0 * u2) / (eps * omega)
        spec = EvolutionSpec(Params(eps, omega), Sector(delta),
                             10.0 * u3 - 5.0, eta=eta)
        T = mp.mpf(omega) * mp.mpc(spec.t, -eta)
        freqs = [n + mp.mpf(delta) for n in range(-6, 6)]
        dphi = np.linspace(-math.pi, math.pi, 9)
        ref = np.array([complex(_exp_sums_mp(
            -0.5j * eps * T * f * f + 1j * f * mp.mpf(x) for f in freqs)[0])
            for x in dphi])
        k_max = float(np.max(np.abs(ref)))
        assume(_in_range(k_max))
        err = np.max(np.abs(kernel(spec, dphi) - ref))
        assert err <= 1e-12 * k_max
        coeffs = np.array([0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j, 0.2j])
        state = CircleState(Sector(delta), -2, coeffs)
        phi = np.linspace(0.0, 2 * math.pi, 4, endpoint=False)
        applied = np.array([complex(_exp_sums_mp(
            (-0.5j * eps * T * f * f + 1j * f * mp.mpf(x)
             for f in freqs[4:8]),
            [mp.mpc(c.real, c.imag) for c in coeffs])[0]) for x in phi])
        err = np.max(np.abs(kernel_apply(spec, state, phi) - applied))
        assert err <= 1e-12 * k_max * np.sum(np.abs(coeffs))

    @staticmethod
    def _check_normalizer(mp, delta, u0, u1, u2, u3):
        eps = 1e-3 * 30.0 ** u0
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(2 * math.pi * u2, 40.0 * u1 - 20.0)
        center = round((z.l_tilde - eps * delta) / eps)
        half = math.ceil(math.sqrt(100.0 / eps))
        freqs = [m + mp.mpf(delta) for m in range(center - half,
                                                  center + half + 1)]
        # P_m = g_m / sum g, g_m = e^{-(l - eps(m + delta))^2/eps}; the
        # normalizer theta3[pi (l - eps delta)/eps, e^{-pi^2/eps}] is
        # sqrt(eps/pi) sum g (Poisson)
        gauss = [-(mp.mpf(z.l_tilde) - eps * f) ** 2 / eps for f in freqs]
        s0, _ = _exp_sums_mp(gauss)
        s1, _ = _exp_sums_mp(gauss, freqs)
        s2, _ = _exp_sums_mp(gauss, [f * f for f in freqs])
        ms = np.arange(center - 3, center + 4)
        probs = [float(mp.exp(gauss[half + k]) / s0) for k in range(-3, 4)]
        got = transition_prob(ms, params, z)
        assert np.all(np.abs(got - probs) <= 1e-12 * np.array(probs))
        c_z = float(mp.sqrt(2 * mp.pi / (mp.sqrt(eps / mp.pi) * s0)))
        assert abs(periodized_norm_constant(params, z) - c_z) <= 1e-12 * c_z
        e = w_expectations(params, z)
        mean_l = float(s1 / s0)
        var_l_scaled = float(eps * eps * (s2 / s0 - (s1 / s0) ** 2))
        assert abs(e.mean_l - mean_l) <= 1e-12 * max(abs(mean_l), 1.0)
        assert abs(e.var_l_scaled - var_l_scaled) <= 1e-12 * var_l_scaled


class TestUnderflowingNomePoints:
    """Points of the bands above: e^{-eps} is subnormal from eps ~ 708
    and 0 from ~745, e^{-eps/2} and e^{-eps omega eta/2} from twice
    that."""

    @pytest.mark.parametrize("eps", [720.0, 744.0, 746.0, 800.0])
    @pytest.mark.parametrize("delta", [0.5, 0.9])
    def test_norm_and_overlap_at_the_origin(self, eps, delta):
        # at eps = 800, delta = 0.9 the value is 8.9e277; 1.0 came back
        mpmath = pytest.importorskip("mpmath")
        d = mpmath.mpf(delta)
        ref, _ = _exp_sums_mp(-eps * (n * n + 2 * n * d) for n in range(-3, 3))
        ref = float(ref)
        params = WZParams(eps, Sector(delta))
        assert abs(w_norm_sq(params, 0j) - ref) <= 1e-13 * ref
        assert abs(w_overlap(params, 0j, 0j) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("eps", [1450.0, 1600.0])
    def test_w_value_at_the_origin(self, eps):
        # at delta = 1/2 the terms n = 0 and n = -1 are 1 each
        value = w_value(WZParams(eps, Sector(0.5)), 0j, 0.0)
        assert abs(value - 2.0) <= 1e-15

    @pytest.mark.parametrize("delta", [0.5, 0.9])
    @pytest.mark.parametrize("eta", [1430.0, 1600.0, 3000.0])
    def test_kernel_at_large_damping(self, delta, eta):
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(delta), 0.0, eta=eta)
        dphi = np.linspace(-math.pi, math.pi, 9)
        mpmath = pytest.importorskip("mpmath")
        freqs = [n + mpmath.mpf(delta) for n in range(-6, 6)]
        ref = np.array([complex(_exp_sums_mp(
            -0.5 * eta * f * f + 1j * f * mpmath.mpf(x) for f in freqs)[0])
            for x in dphi])
        err = np.max(np.abs(kernel(spec, dphi) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))

"""Ladder algebra: shift action, eigenstates, K/J saturation, q-deformation.

Matrix elements on truncated windows and dense-matrix brute force serve
as the oracles for the closed forms.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from circleqm.circlespace import CircleState, Sector, apply_operator, basis_state, inner
from circleqm.ladder import (
    LadderContext,
    apply_B,
    apply_Bdag,
    apply_complexifier,
    eigen_residual,
    kj_matrix_elements,
    kj_report,
    pair_stats,
    qdeform_residual,
)
from circleqm.zakcs import PhasePoint, WZParams, w_state

RNG = np.random.default_rng(77)


def random_state(sector, n_lo=-3, width=6, rng=RNG):
    c = rng.normal(size=width) + 1j * rng.normal(size=width)
    return CircleState(sector, n_lo, c).normalized()


class TestContext:
    def test_is_wz_params(self):
        ctx = LadderContext(0.8, Sector(0.3))
        assert isinstance(ctx, WZParams)
        assert (ctx.epsilon, ctx.delta) == (0.8, 0.3)
        assert np.array_equal(w_state(ctx, PhasePoint(0.2, 0.4)).coeffs,
                              w_state(WZParams(0.8, Sector(0.3)),
                                      PhasePoint(0.2, 0.4)).coeffs)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            LadderContext(0.0, Sector(0.0))

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_rejects_non_finite_epsilon(self, eps):
        # LadderContext(inf, ...) gave var_k = inf
        with pytest.raises(ValueError, match="epsilon"):
            LadderContext(eps, Sector(0.0))


class TestShiftAction:
    def test_lowering_on_basis(self):
        ctx = LadderContext(1.0, Sector(0.0))
        out = apply_B(ctx, basis_state(0, Sector(0.0)))
        assert out.n_lo == -1
        assert out.coeffs[0] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_raising_on_basis(self):
        ctx = LadderContext(0.7, Sector(0.4))
        out = apply_Bdag(ctx, basis_state(2, Sector(0.4)))
        assert out.n_lo == 3
        assert out.coeffs[0] == pytest.approx(
            math.exp(0.7 * (2 + 0.4 + 0.5)), rel=1e-14)

    def test_adjointness(self):
        ctx = LadderContext(0.9, Sector(0.25))
        rng = np.random.default_rng(1)
        psi = random_state(Sector(0.25), rng=rng)
        chi = random_state(Sector(0.25), n_lo=-1, width=5, rng=rng)
        lhs = inner(apply_Bdag(ctx, psi), chi)
        rhs = inner(psi, apply_B(ctx, chi))
        assert abs(lhs - rhs) < 1e-12

    def test_commutator_with_momentum(self):
        # [L, B] = -B on random states
        ctx = LadderContext(1.0, Sector(0.3))
        psi = random_state(Sector(0.3))
        lb = apply_operator("L", apply_B(ctx, psi))
        bl = apply_B(ctx, apply_operator("L", psi))
        resid = lb.coeffs - bl.coeffs + apply_B(ctx, psi).coeffs
        assert np.max(np.abs(resid)) < 1e-13

    def test_bdag_b_diagonal(self):
        ctx = LadderContext(0.8, Sector(0.4))
        for n in (-2, 0, 3):
            out = apply_Bdag(ctx, apply_B(ctx, basis_state(n, Sector(0.4))))
            assert out.n_lo == n
            assert out.coeffs[0] == pytest.approx(
                math.exp(0.8 * (2 * (n + 0.4) - 1)), rel=1e-13)

    def test_commutation_with_bdag(self):
        # [B, Bdag] = 2 sinh(eps) e^{2 eps L}
        ctx = LadderContext(0.6, Sector(0.15))
        psi = random_state(Sector(0.15))
        b_bd = apply_B(ctx, apply_Bdag(ctx, psi))
        bd_b = apply_Bdag(ctx, apply_B(ctx, psi))
        eig = np.exp(2 * 0.6 * (psi.indices + 0.15))
        ref = 2 * math.sinh(0.6) * eig * psi.coeffs
        assert np.max(np.abs(b_bd.coeffs - bd_b.coeffs - ref)) < 1e-12

    def test_weyl_type_exchange(self):
        # Bdag B = e^{-2 eps} B Bdag as operators
        ctx = LadderContext(0.5, Sector(0.7))
        psi = random_state(Sector(0.7))
        lhs = apply_Bdag(ctx, apply_B(ctx, psi)).coeffs
        rhs = math.exp(-1.0) * apply_B(ctx, apply_Bdag(ctx, psi)).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_complexifier_conjugation_is_lowering(self):
        # C U C^{-1} e_n = e^{eps(n + delta - 1/2)} e_{n-1} = B e_n, with
        # U realized as the n -> n-1 shift
        ctx = LadderContext(1.2, Sector(0.6))
        for n in (-1, 0, 2):
            e_n = basis_state(n, Sector(0.6))
            shifted = CircleState(
                Sector(0.6), n - 1,
                apply_complexifier(ctx, e_n, inverse=True).coeffs)
            via_complexifier = apply_complexifier(ctx, shifted)
            direct = apply_B(ctx, e_n)
            assert via_complexifier.n_lo == direct.n_lo
            assert np.max(np.abs(via_complexifier.coeffs
                                 - direct.coeffs)) < 1e-12 * np.max(
                np.abs(direct.coeffs))

    def test_sector_mismatch_rejected(self):
        ctx = LadderContext(1.0, Sector(0.1))
        with pytest.raises(ValueError):
            apply_B(ctx, basis_state(0, Sector(0.2)))

    @pytest.mark.parametrize("call", [
        "apply_B", "apply_Bdag", "inverse_complexifier", "pair_stats",
        "pair_stats_eps_2", "qdeform_residual"])
    def test_weights_past_range_refused_without_warning(self, call):
        # e^{eps(n + delta +- 1/2)} passes e^709 at eps = 10, n = 71 (and at
        # eps = 2, n = 356); a weight past range, its product with a
        # coefficient (qdeform_residual: e^708 e^708) or inf * 0 (the zero
        # coefficient) warned before CircleState refused the window
        ctx = LadderContext(10.0, Sector(0.3))
        state = CircleState(Sector(0.3), 70, [1, 0.5j, 0.2])
        holed = CircleState(Sector(0.3), 70, [1, 0, 0.2])
        run = {"apply_B": lambda: apply_B(ctx, holed),
               "apply_Bdag": lambda: apply_Bdag(ctx, holed),
               "inverse_complexifier":
                   lambda: apply_complexifier(ctx, holed, inverse=True),
               "pair_stats": lambda: pair_stats(ctx, state),
               "pair_stats_eps_2": lambda: pair_stats(
                   LadderContext(2.0, Sector(0.3)),
                   CircleState(Sector(0.3), 355, [1, 0.5j, 0.2])),
               "qdeform_residual": lambda: qdeform_residual(ctx, 70)}[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coefficients must be finite"):
                run()


class TestEigenRelation:
    @pytest.mark.parametrize("eps,delta,z", [
        (1.0, 0.0, 0j), (0.5, 0.4, 2.0 + 3.0j), (1.0, 0.4, 1.0 - 0.5j),
        (0.5, 0.0, 0.3 + 1.0j)])
    def test_eigen_residual_small(self, eps, delta, z):
        ctx = LadderContext(eps, Sector(delta))
        assert eigen_residual(ctx, PhasePoint.from_z(z)) < 1e-10

    @pytest.mark.parametrize("call", ["w_state", "kj_matrix_elements",
                                      "eigen_residual"])
    @pytest.mark.parametrize("eps,l_tilde,word", [
        (0.05, 40.0, "coefficients must be finite"),
        (40.0, 3000.0, "coefficients must be finite"),
        (0.01, 3.0, None)], ids=["eps-0.05", "eps-40", "eps-0.01"])
    def test_out_of_range_window_refused_without_warning(self, eps, l_tilde,
                                                         word, call):
        # past e^709 the window's coefficients leave double range: a
        # ValueError, where numpy's overflow warning came first (an error
        # under the suite's warning filter).  At (0.01, 3) the window is
        # finite and only its norm, about e^450, is past range: the two
        # readers that normalize it answer, where they raised "norm is inf"
        # while the norm was read unscaled (eigen_residual once gave nan).
        ctx = LadderContext(eps, Sector(0.3))
        z = PhasePoint(0.5, l_tilde)
        run = {"w_state": lambda: w_state(ctx, z),
               "kj_matrix_elements": lambda: kj_matrix_elements(ctx, z),
               "eigen_residual": lambda: eigen_residual(ctx, z)}[call]
        if word is None:
            out = run()
            if call == "w_state":
                assert np.isfinite(out.coeffs).all()
            elif call == "eigen_residual":
                assert out < 1e-10
            else:
                ref = kj_report(ctx, z)
                for name in ("mean_k", "mean_j", "var_k", "var_j",
                             "covariance", "commutator_mean"):
                    want = getattr(ref, name)  # covariance: 0
                    assert (abs(getattr(out, name) - want)
                            <= 1e-12 * max(abs(want), ref.var_k)), name
                assert out.saturated
            return
        with pytest.raises(ValueError, match=word):
            run()

    def test_coefficient_recursion(self):
        eps, delta = 0.8, 0.3
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(0.7, 0.2)
        st = w_state(params, z, window_tol=1e-13)
        eta = cmath.exp(-1j * z.z)
        for i in range(st.coeffs.size - 1):
            n = st.n_lo + i
            ratio = st.coeffs[i + 1] / st.coeffs[i]
            ref = eta * math.exp(-eps * (n + delta + 0.5))
            assert abs(ratio - ref) < 1e-13 * abs(ref)


class TestKJReport:
    def test_imaginary_axis_means(self):
        ctx = LadderContext(1.0, Sector(0.0))
        rep = kj_report(ctx, PhasePoint(0.0, 0.7))
        assert rep.mean_j == pytest.approx(0.0, abs=1e-14)
        assert rep.mean_k == pytest.approx(2 * math.exp(0.7), rel=1e-14)

    GRID = [(eps, z) for eps in (0.5, 1.0) for z in (0j, 1.0 + 0.5j, 2.0j)]

    @pytest.mark.parametrize("eps,z", GRID)
    def test_exact_saturation(self, eps, z):
        ctx = LadderContext(eps, Sector(0.0))
        rep = kj_report(ctx, PhasePoint.from_z(z))
        assert rep.saturated
        lhs = rep.var_k * rep.var_j
        rhs = rep.covariance ** 2 + 0.25 * abs(rep.commutator_mean) ** 2
        assert abs(lhs - rhs) < 1e-12 * max(lhs, 1e-30)

    @pytest.mark.parametrize("eps,z", GRID)
    def test_closed_forms_vs_matrix_elements(self, eps, z):
        for delta in (0.0, 0.4):
            ctx = LadderContext(eps, Sector(delta))
            rep = kj_report(ctx, PhasePoint.from_z(z))
            mat = kj_matrix_elements(ctx, PhasePoint.from_z(z))
            scale = max(abs(rep.var_k), 1.0)
            assert abs(rep.mean_k - mat.mean_k) < 1e-8 * scale
            assert abs(rep.mean_j - mat.mean_j) < 1e-8 * scale
            assert abs(rep.var_k - mat.var_k) < 1e-8 * scale
            assert abs(rep.var_j - mat.var_j) < 1e-8 * scale
            assert abs(rep.covariance - mat.covariance) < 1e-8 * scale
            assert abs(rep.commutator_mean - mat.commutator_mean) < 1e-8 * scale

    @pytest.mark.parametrize("theta_ang", [0.0, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_small_eps_variances_to_rounding(self, theta_ang, delta):
        # at eps = 0.01, l = 1.5 the variance (e^{2 eps} - 1) e^{2l} ~ 0.4
        # is under 1% of <K^2> ~ 80: raw moments would lose two digits to
        # cancellation, the centred vectors keep rounding level
        ctx = LadderContext(0.01, Sector(delta))
        rep = kj_report(ctx, PhasePoint(theta_ang, 1.5))
        mat = kj_matrix_elements(ctx, PhasePoint(theta_ang, 1.5))
        scale = max(abs(rep.var_k), 1.0)
        assert abs(rep.var_k - mat.var_k) < 2e-15 * scale
        assert abs(rep.var_j - mat.var_j) < 2e-15 * scale

    @pytest.mark.parametrize("eps", [1e-3, 0.01])
    @pytest.mark.parametrize("l", [-2.0, 0.0, 1.5])
    def test_spread_to_rounding(self, eps, l):
        # (e^{2 eps} - 1) e^{2l} against 40-digit arithmetic: forming
        # e^{2 eps} - 1 by subtraction loses digits as eps -> 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.expm1(2 * mpmath.mpf(eps))
                        * mpmath.exp(2 * mpmath.mpf(l)))
        rep = kj_report(LadderContext(eps, Sector(0.0)), PhasePoint(0.3, l))
        assert abs(rep.var_k - ref) <= 4e-16 * ref

    @pytest.mark.parametrize("eps,delta,theta_ang,l", [
        # e^{2l} overflowed math.exp with an OverflowError
        (1.0, 0.3, 0.0, 360.0),
        # the spread overflowed to inf and the record was returned
        (100.76144908265663, 0.2513955956006695, 4.349168623261793,
         256.39213088114764),
        # expm1(2 eps) overflowed with an OverflowError
        (400.0, 0.0, 0.0, 0.0),
        # e^{2l} finite, but the means' squared modulus past double range
        (1e-200, 0.0, 0.0, 354.5),
    ])
    def test_out_of_range_record_refused(self, eps, delta, theta_ang, l):
        with pytest.raises(ValueError, match="not a finite double"):
            kj_report(LadderContext(eps, Sector(delta)),
                      PhasePoint(theta_ang, l))

    @pytest.mark.parametrize("eps,l", [(1.0, 175.0), (100.0, 75.0),
                                       (354.0, -200.0), (1e-200, 350.0)])
    def test_record_finite_up_to_the_refusal(self, eps, l):
        rep = kj_report(LadderContext(eps, Sector(0.0)), PhasePoint(0.3, l))
        values = (rep.mean_k, rep.mean_j, rep.var_k, rep.var_j,
                  rep.commutator_mean.imag, rep.l_recovered)
        assert all(math.isfinite(v) for v in values), values
        assert rep.saturated

    @pytest.mark.parametrize("theta_ang,l", [(0.0, 0.0), (1.2, 0.5),
                                             (4.0, -0.8), (3.14, 1.0)])
    def test_parameter_recovery(self, theta_ang, l):
        ctx = LadderContext(1.0, Sector(0.2))
        rep = kj_report(ctx, PhasePoint(theta_ang, l))
        assert rep.theta_recovered == pytest.approx(
            theta_ang % (2 * math.pi), abs=1e-10)
        assert rep.l_recovered == pytest.approx(l, abs=1e-10)

    def test_pair_stats_vs_dense_matrices(self):
        # brute-force oracle: build B as a dense matrix on a window and
        # compute every statistic with plain linear algebra
        eps, delta = 0.9, 0.3
        ctx = LadderContext(eps, Sector(delta))
        n_lo, n_hi = -6, 6
        dim = n_hi - n_lo + 1
        b_mat = np.zeros((dim, dim), dtype=complex)
        for j, n in enumerate(range(n_lo, n_hi + 1)):
            if j > 0:
                b_mat[j - 1, j] = math.exp(eps * (n + delta - 0.5))
        k_mat = b_mat + b_mat.conj().T
        j_mat = 1j * (b_mat.conj().T - b_mat)
        rng = np.random.default_rng(6)
        c = np.zeros(dim, dtype=complex)
        c[3:-3] = rng.normal(size=dim - 6) + 1j * rng.normal(size=dim - 6)
        c /= np.linalg.norm(c)
        state = CircleState(Sector(delta), n_lo, c)
        rep = pair_stats(ctx, state)

        def expval(m):
            return np.vdot(c, m @ c)

        mean_k = expval(k_mat).real
        mean_j = expval(j_mat).real
        assert rep.mean_k == pytest.approx(mean_k, abs=1e-12)
        assert rep.mean_j == pytest.approx(mean_j, abs=1e-12)
        assert rep.var_k == pytest.approx(
            expval(k_mat @ k_mat).real - mean_k ** 2, abs=1e-10)
        assert rep.var_j == pytest.approx(
            expval(j_mat @ j_mat).real - mean_j ** 2, abs=1e-10)
        sym = 0.5 * (k_mat @ j_mat + j_mat @ k_mat)
        assert rep.covariance == pytest.approx(
            expval(sym).real - mean_k * mean_j, abs=1e-10)
        comm = k_mat @ j_mat - j_mat @ k_mat
        assert rep.commutator_mean == pytest.approx(expval(comm), abs=1e-10)

    def test_pair_stats_of_a_subnormal_norm(self):
        # ||c||^2 = 5.1e-320 is subnormal: normalized() divided by its lost
        # bits, and var_k read 7.93166 against 7.93145 for c / max |c|
        ctx = LadderContext(0.5, Sector(0.3))
        c = np.array([1e-160, 2e-160j, 3e-161])
        rep = pair_stats(ctx, CircleState(Sector(0.3), 0, c))
        ref = pair_stats(ctx, CircleState(Sector(0.3), 0, c / np.abs(c).max()))
        for f in dataclasses.fields(rep):
            got, want = getattr(rep, f.name), getattr(ref, f.name)
            assert abs(got - want) <= 1e-15 * max(abs(want), 1.0), f.name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_lo", [175, 300])
    def test_pair_stats_past_double_range_refused(self, n_lo):
        # a window of ones far out at eps = 2: the Gram matmul overflowed
        # with a RuntimeWarning, and then the square of a mean raised
        # OverflowError
        ctx = LadderContext(2.0, Sector(0.3))
        with pytest.raises(ValueError, match="not a finite double"):
            pair_stats(ctx, CircleState(Sector(0.3), n_lo, np.ones(5)))

    @pytest.mark.filterwarnings("error")
    def test_pair_stats_where_a_mean_squared_leaves_range(self):
        # B's eigenvector of eigenvalue e^{l - i theta} at eps = 1e-4, l =
        # 357: the means, about 2 e^l = 1.4e155, and the variances, about 2
        # eps e^{2l}, are finite doubles, the means' squares are not.  l and
        # theta come back from the means' modulus; mean_k ** 2 raised
        # OverflowError
        eps, delta, l_t, theta_ang = 1e-4, 0.3, 357.0, 0.4
        n0 = round(l_t / eps)
        k = np.arange(-2000, 2001)
        # c_n = e^{n (l - i theta) - eps (n + delta)^2 / 2}, up to a constant
        c = np.exp(-eps * k ** 2 / 2.0 + k * (l_t - eps * (n0 + delta))
                   - 1j * theta_ang * k)
        rep = pair_stats(LadderContext(eps, Sector(delta)),
                         CircleState(Sector(delta), n0 - 2000, c))
        assert rep.mean_k * rep.mean_k == math.inf
        assert rep.l_recovered == pytest.approx(l_t, abs=1e-12)
        assert rep.theta_recovered == pytest.approx(theta_ang, abs=1e-12)
        assert rep.mean_k == pytest.approx(
            2.0 * math.cos(theta_ang) * math.exp(l_t), rel=1e-12)
        assert rep.var_k == pytest.approx(
            math.expm1(2.0 * eps) * math.exp(l_t) * math.exp(l_t), rel=1e-10)

    def test_field_types(self):
        # Python numbers, not NumPy scalars, on every route to a KJReport
        ctx = LadderContext(0.6, Sector(0.35))
        z = PhasePoint(2.2, -0.4)
        rng = np.random.default_rng(8)
        state = CircleState(ctx.sector, -4, rng.normal(size=9)
                            + 1j * rng.normal(size=9))
        for rep in (pair_stats(ctx, state), kj_matrix_elements(ctx, z),
                    kj_report(ctx, z)):
            types = {f.name: type(getattr(rep, f.name))
                     for f in dataclasses.fields(rep)}
            assert types.pop("commutator_mean") is complex
            assert types.pop("saturated") is bool
            assert set(types.values()) == {float}, types


class TestQDeform:
    def test_residual_vanishes(self):
        for eps, delta, n in [(1.0, 0.0, 0), (0.5, 0.3, 2), (2.0, 0.7, -3)]:
            ctx = LadderContext(eps, Sector(delta))
            assert qdeform_residual(ctx, n) < 1e-12 * math.exp(
                2 * eps * abs(n + delta + ctx.shift_constant))

    def test_shift_constant_value(self):
        ctx = LadderContext(1.0, Sector(0.0))
        assert ctx.shift_constant == pytest.approx(0.427, abs=5e-4)
        assert ctx.shift_constant == pytest.approx(
            0.5 * math.log(2 * math.sinh(1.0)), rel=1e-15)

    def test_deformation_parameter(self):
        ctx = LadderContext(0.8, Sector(0.0))
        assert ctx.q_def == pytest.approx(math.exp(-1.6))
        assert 0 < ctx.q_def < 1

    def test_number_expectation_tunable_to_integer(self):
        # at eps = 1 the shift is 0.427...; delta = 1 - shift makes the
        # ground-level number expectation <N> = <L> + shift an exact integer
        ctx0 = LadderContext(1.0, Sector(0.0))
        delta = 1.0 - ctx0.shift_constant
        ctx = LadderContext(1.0, Sector(delta))
        e0 = basis_state(0, Sector(delta))
        mean_n = inner(e0, apply_operator("L", e0)).real + ctx.shift_constant
        assert mean_n == pytest.approx(1.0, abs=1e-12)

    def test_number_op_eigenvalues(self):
        # N = L + shift_constant on e_2 of the sector 0.573, the shift at
        # eps = 1 being ln(2 sinh 1)/2
        ctx = LadderContext(1.0, Sector(0.573))
        out = apply_operator("L", basis_state(2, Sector(0.573)))
        assert out.coeffs[0].real + ctx.shift_constant == pytest.approx(
            2 + 0.573 + 0.5 * math.log(2 * math.sinh(1.0)), rel=1e-13)

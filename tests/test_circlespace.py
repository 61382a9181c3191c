"""Fractional-sector Hilbert space: basis, operators, uncertainty machinery.

The coefficient-space operations are cross-checked against trapezoidal
quadrature (exact for the trigonometric-polynomial integrands here) and
against the Jacobi-Anger expansion for the translation action.
"""

import cmath
import dataclasses
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleqm import circlespace
from circleqm.circlespace import (
    _TAP_TAIL,
    _centred_report,
    _operator_into,
    _operator_rows,
    CircleState,
    Params,
    RepLabel,
    Sector,
    apply_operator,
    basis_state,
    delta_from_flux,
    energy,
    fidelity,
    ground_state,
    inner,
    parity,
    rep_apply,
    time_reversal,
    uncertainty_report,
)
from circleqm.evolve import (EvolutionSpec, kernel_apply, moment_series,
                             propagate)
from circleqm.ladder import LadderContext, apply_B, qdeform_residual
from circleqm.mincs import (MinUncParams, completeness_residual,
                            dbt_divergence, min_expectations, min_overlap,
                            min_state, sum_rule_residual)
from circleqm.specfun import _bessel_half_width, bessel_j
from circleqm.zakcs import (PhasePoint, WZParams, _window,
                            completeness_residual_wz, w_state)

RNG = np.random.default_rng(20260810)


def inner_quadrature(state2, state1):
    """The independent oracle for `inner`: trapezoidal quadrature of
    conj(psi2) psi1 / 2 pi.  The integrand is an exactly 2 pi periodic
    trigonometric polynomial even for delta != 0, so the uniform rule with
    more nodes than twice the bandwidth is exact: it takes 4 w + 16 nodes
    for a common window w indices wide."""
    width = max(state2.n_hi, state1.n_hi) - min(state2.n_lo, state1.n_lo) + 1
    m = 4 * width + 16
    phi = np.arange(m) * (2.0 * math.pi / m)
    vals = np.conj(state2.evaluate(phi)) * state1.evaluate(phi)
    return complex(np.mean(vals))


def random_state(sector, n_lo=-2, width=5, rng=RNG):
    c = rng.normal(size=width) + 1j * rng.normal(size=width)
    return CircleState(sector, n_lo, c).normalized()


class TestSector:
    def test_valid_range(self):
        Sector(0.0)
        Sector(0.999)
        with pytest.raises(ValueError):
            Sector(1.0)
        with pytest.raises(ValueError):
            Sector(-0.1)


class TestBasisState:
    def test_constant_function(self):
        e0 = basis_state(0, Sector(0.0))
        phi = np.linspace(0, 6, 7)
        assert np.allclose(e0.evaluate(phi), 1.0)

    def test_boundary_condition_exact(self):
        st_ = basis_state(2, Sector(0.25))
        v0 = st_.evaluate(0.0)
        v1 = st_.evaluate(2 * math.pi)
        assert v1 == np.exp(1j * math.pi / 2) * v0

    def test_oam_eigenvalue(self):
        st_ = basis_state(-1, Sector(0.3))
        rep = uncertainty_report("L", "L", st_)
        assert rep.mean_a == pytest.approx(-0.7, abs=1e-14)


class TestBoundaryCondition:
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.5, 0.9])
    def test_quasi_periodicity_machine_exact(self, delta):
        psi = random_state(Sector(delta))
        phi = np.linspace(-5, 5, 11)
        lhs = psi.evaluate(phi + 2 * math.pi)
        rhs = np.exp(1j * 2 * math.pi * delta) * psi.evaluate(phi)
        assert np.max(np.abs(lhs - rhs)) < 5e-16 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, phi):
        # the whole-turn reduction returned nan + nan i
        psi = random_state(Sector(0.3))
        with pytest.raises(ValueError, match="phi"):
            psi.evaluate(phi)
        with pytest.raises(ValueError, match="phi"):
            psi.evaluate(np.array([0.1, phi]))

    def test_single_angle_calls_match_batch_bits(self):
        # the sum over the window is an einsum: an output's bits do not
        # depend on the other angles of the call (a matmul's did)
        rng = np.random.default_rng(9)
        for _ in range(40):
            psi = random_state(Sector(rng.uniform(0, 1)),
                               n_lo=int(rng.integers(-50, 50)),
                               width=int(rng.integers(1, 80)), rng=rng)
            phi = rng.uniform(-30.0, 30.0, 64)
            batch = psi.evaluate(phi)
            for i, angle in enumerate(phi):
                assert psi.evaluate(angle) == batch[i]
                assert psi.evaluate(phi[i:i + 1])[0] == batch[i]

    def test_qfold_covering_periodicity(self):
        # delta = 2/5 has covering order q = 5
        psi = random_state(Sector(0.4))
        phi = np.linspace(0, 2, 9)
        lhs = psi.evaluate(phi + 2 * math.pi * 5)
        rhs = psi.evaluate(phi)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestOperators:
    def test_cos2_plus_sin2_is_identity(self):
        psi = random_state(Sector(0.37))
        cc = apply_operator("C", apply_operator("C", psi))
        ss = apply_operator("S", apply_operator("S", psi))
        total = np.zeros(cc.coeffs.size, dtype=complex)
        total += cc.coeffs
        total += ss.coeffs
        mid = total[2:-2]
        ref = psi.coeffs
        assert np.max(np.abs(mid - ref)) < 1e-15
        assert np.max(np.abs(total[:2])) < 1e-16
        assert np.max(np.abs(total[-2:])) < 1e-16

    @pytest.mark.parametrize("seed", range(5))
    def test_commutator_l_c_gives_i_s(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(Sector(0.21), rng=rng)
        lc = apply_operator("L", apply_operator("C", psi))
        cl = apply_operator("C", apply_operator("L", psi))
        s_psi = apply_operator("S", psi)
        resid = lc.coeffs - cl.coeffs
        # [L, C] psi = i S psi
        ref = np.zeros_like(resid)
        ref[:] = 1j * s_psi.coeffs
        assert np.max(np.abs(resid - ref)) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_commutator_l_s_gives_minus_i_c(self, seed):
        rng = np.random.default_rng(seed + 100)
        psi = random_state(Sector(0.68), rng=rng)
        ls = apply_operator("L", apply_operator("S", psi))
        sl = apply_operator("S", apply_operator("L", psi))
        c_psi = apply_operator("C", psi)
        assert np.max(np.abs(ls.coeffs - sl.coeffs + 1j * c_psi.coeffs)) < 1e-14

    def test_c_s_commute_exactly(self):
        psi = random_state(Sector(0.5))
        cs = apply_operator("C", apply_operator("S", psi))
        sc = apply_operator("S", apply_operator("C", psi))
        # identical coefficient maps up to float summation order
        assert np.max(np.abs(cs.coeffs - sc.coeffs)) < 1e-16

    def test_l_eigenbasis(self):
        st_ = basis_state(3, Sector(0.4))
        out = apply_operator("L", st_)
        assert out.coeffs[0] == pytest.approx(3.4)

    @pytest.mark.parametrize("which", ["C", "S", "L", "L2"])
    def test_operator_rows_match_apply_operator(self, which):
        # one builder serves single windows and stacks of windows alike:
        # row by row, the bits of `apply_operator`, L taken about the
        # window centre n_c = 1 (a window over n - n_c in sector 0); the
        # stack is divided by its norm 2 on the way in, exactly
        rows = [random_state(Sector(0.43), n_lo=-2, width=7) for _ in range(4)]
        built, shifts = _operator_rows(2.0 * np.array([r.coeffs for r in rows]),
                                       2.0, (which,), -2, 0.43)
        pad = 1 if which in ("C", "S") else 0
        assert built.shape == (4, 2, 7 + 2 * pad)
        for r, got in zip(rows, built):
            assert np.array_equal(got[0, pad:pad + 7], r.coeffs)
            ref = apply_operator(which, r if which != "L" else CircleState(
                Sector(0.0), r.n_lo - 1, r.coeffs))
            assert np.array_equal(got[1], ref.coeffs)
        assert shifts == [1.43 if which == "L" else 0.0]

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            apply_operator("X", basis_state(0, Sector(0.0)))


class TestInner:
    def test_orthonormal_basis(self):
        s = Sector(0.3)
        assert inner(basis_state(2, s), basis_state(2, s)) == 1.0
        assert inner(basis_state(2, s), basis_state(3, s)) == 0.0

    def test_normalized(self):
        psi = random_state(Sector(0.12))
        assert inner(psi, psi) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("delta", [0.0, 0.31, 0.77])
    def test_quadrature_oracle(self, delta):
        rng = np.random.default_rng(hash(delta) % 2 ** 31)
        psi1 = random_state(Sector(delta), n_lo=-3, width=7, rng=rng)
        psi2 = random_state(Sector(delta), n_lo=-1, width=6, rng=rng)
        a = inner(psi2, psi1)
        b = inner_quadrature(psi2, psi1)
        assert abs(a - b) < 1e-12

    def test_sector_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner(basis_state(0, Sector(0.1)), basis_state(0, Sector(0.2)))


class TestSectorRule:
    """One match rule, |delta1 - delta2| < 1e-9 without wrap-around, for
    every function that takes states of one sector."""

    @settings(max_examples=60, deadline=None)
    @given(delta=st.floats(0.0, 1.0, exclude_max=True),
           n=st.integers(-10 ** 7, 10 ** 7), k=st.integers(-3, 3),
           alpha=st.floats(0.0, 2 * math.pi), gamma=st.floats(-2.0, 2.0),
           s=st.floats(0.05, 4.0))
    @example(delta=0.3, n=0, k=1, alpha=1.0, gamma=0.1, s=0.5)
    @example(delta=0.3, n=1, k=1, alpha=1.0, gamma=0.1, s=0.5)
    @example(delta=1e-20, n=0, k=2, alpha=0.4, gamma=0.0, s=1.0)
    @example(delta=0.7, n=-10 ** 7, k=-3, alpha=2.0, gamma=1.5, s=0.2)
    def test_integer_shifts_share_one_space(self, delta, n, k, alpha, gamma,
                                            s):
        # states at l and l + k: alpha = 0 keeps the coefficient phases
        # exact at |l| ~ 1e7, so inner and min_overlap can agree to 1e-12
        p1 = MinUncParams(0.0, n + delta, gamma, s)
        p2 = MinUncParams(0.0, p1.l_tilde + k, gamma, s)
        s1, s2 = min_state(p1, 1e-15), min_state(p2, 1e-15)
        if abs(p1.delta0 - p2.delta0) > 0.5:
            # l + k rounded onto an integer: labels at both ends of [0, 1)
            with pytest.raises(ValueError):
                inner(s2, s1)
            with pytest.raises(ValueError):
                min_overlap(p2, p1)
            return
        ref = min_overlap(p2, p1)
        assert ref.valid
        assert abs(inner(s2, s1) - ref.value) < 1e-12
        assert abs(fidelity(s2, s1) - abs(ref.value)) < 1e-12
        # the reflections are involutions up to the ulp of 1 - (1 - delta)
        psi = min_state(MinUncParams(alpha, p1.l_tilde, gamma, s))
        for op in (time_reversal, parity):
            assert abs(inner(psi, op(op(psi))) - psi.norm_sq()) < 1e-13
        spec = EvolutionSpec(Params(1.0, 1.0), p1.sector, 0.5)
        assert propagate(spec, s2).sector == s2.sector

    @pytest.mark.parametrize("call", [
        lambda a, b: inner(basis_state(0, a), basis_state(0, b)),
        lambda a, b: rep_apply(0.1, 0.2, 0.3, RepLabel(1.0, a),
                               basis_state(0, b)),
        lambda a, b: propagate(EvolutionSpec(Params(1.0), a, 0.5),
                               basis_state(0, b)),
        lambda a, b: kernel_apply(EvolutionSpec(Params(1.0), a, 0.5, 1e-2),
                                  basis_state(0, b), 0.0),
        lambda a, b: apply_B(LadderContext(1.0, a), basis_state(0, b)),
        lambda a, b: min_overlap(MinUncParams(0.0, a.delta, 0.5, 1.0),
                                 MinUncParams(0.0, 3.0 + b.delta, 0.5, 1.0)),
    ], ids=["inner", "rep_apply", "propagate", "kernel_apply", "apply_B",
            "min_overlap"])
    @pytest.mark.parametrize("d1,d2", [(0.1, 0.2), (1.0 - 1e-12, 0.0)])
    def test_every_owner_refuses_other_sectors(self, call, d1, d2):
        # d1 = 1 - 1e-12 against 0: one space, but the windows are indexed
        # one apart, so the pair is refused like any other
        with pytest.raises(ValueError):
            call(Sector(d1), Sector(d2))

    def test_fold_maps_rounding_case_to_zero(self):
        delta, shift = delta_from_flux(1.0, -1e-17)
        assert (delta, shift) == (0.0, -1e-17)
        assert Sector(delta).delta == 0.0
        assert delta_from_flux(1.0, -1e-3)[0] == (-1e-3 / (2 * math.pi)) % 1.0


class TestUncertaintyReport:
    def test_commuting_pair_c_s(self):
        psi = random_state(Sector(0.45))
        rep = uncertainty_report("C", "S", psi)
        assert abs(rep.commutator_mean) < 1e-14
        assert rep.rhs == pytest.approx(rep.covariance ** 2, abs=1e-14)

    def test_l_eigenstate_degenerate_inequality(self):
        rep = uncertainty_report("C", "L", basis_state(0, Sector(0.0)))
        assert rep.var_a == pytest.approx(0.5, abs=1e-14)   # (Delta C)^2
        assert rep.var_b == pytest.approx(0.0, abs=1e-14)   # L eigenstate
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("pair", [("C", "S"), ("C", "L"), ("S", "L")])
    def test_inequality_holds_on_random_states(self, pair):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            width = rng.integers(1, 8)
            psi = CircleState(
                Sector(rng.uniform(0, 1)), int(rng.integers(-4, 4)),
                rng.normal(size=width) + 1j * rng.normal(size=width))
            rep = uncertainty_report(pair[0], pair[1], psi)
            scale = max(rep.lhs, rep.rhs, 1e-30)
            assert rep.lhs >= rep.rhs - 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                    min_size=1, max_size=6),
           st.floats(0, 0.999), st.integers(-3, 3))
    # var L ~ 1e-24 sits far below <L^2> = 1
    @example([(0.0, 1e-12), (0.0, 1.0)], 0.0, 0)
    def test_inequality_hypothesis(self, pairs, delta, n_lo):
        c = np.array([complex(re, im) for re, im in pairs])
        if np.all(np.abs(c) < 1e-12):
            return
        psi = CircleState(Sector(delta), n_lo, c)
        rep = uncertainty_report("C", "L", psi)
        assert rep.lhs >= rep.rhs - 1e-12 * max(rep.lhs, rep.rhs, 1e-30)

    @pytest.mark.parametrize("l", [1e3, 1e5 + 0.3, 1e7, -1e7 + 0.7])
    def test_momentum_moments_at_large_l(self, l):
        # L about the window centre: no large <L> cancels in var L
        params = MinUncParams(0.0, l, 0.5, 1.0)
        rep = uncertainty_report("C", "L", min_state(params, 1e-14))
        ref = min_expectations(params)
        assert abs(rep.var_b - ref.var_l) <= 1e-12 * ref.var_l
        assert abs(rep.mean_b - ref.mean_l) <= 1e-12 * abs(ref.mean_l)
        assert rep.saturated


    @staticmethod
    def _report_through_states(a, b, state, psi=None):
        # the report as built from validated intermediate states: the
        # normalized copy (psi, state.normalized() unless given), its images
        # and one zero-padded window of the three
        psi = state.normalized() if psi is None else psi
        n_c = (psi.n_lo + psi.n_hi) // 2
        images = [CircleState(psi.sector, psi.n_lo, _operator_into(
            "L", psi.coeffs, psi.indices - n_c, None)) if w == "L"
            else apply_operator(w, psi) for w in (a, b)]
        lo = min(s.n_lo for s in (psi, *images))
        hi = max(s.n_hi for s in (psi, *images))
        rows = np.zeros((3, hi - lo + 1), dtype=complex)
        for row, s in zip(rows, (psi, *images)):
            row[s.n_lo - lo:s.n_hi - lo + 1] = s.coeffs
        shift = n_c + psi.sector.delta
        return _centred_report(rows, 1e-10, (shift if a == "L" else 0.0,
                                             shift if b == "L" else 0.0))

    @pytest.mark.parametrize("a", ["C", "S", "L", "L2"])
    @pytest.mark.parametrize("b", ["C", "S", "L", "L2"])
    def test_matches_report_through_states(self, a, b):
        rng = np.random.default_rng(2020)
        for _ in range(40):
            width = int(rng.integers(1, 30))
            state = CircleState(
                Sector(rng.uniform(0, 1)), int(rng.integers(-300, 300)),
                rng.normal(size=width) + 1j * rng.normal(size=width))
            assert (repr(uncertainty_report(a, b, state))
                    == repr(self._report_through_states(a, b, state)))

    def test_zero_state_refused(self):
        zero = CircleState(Sector(0.2), 3, np.zeros(4))
        with pytest.raises(ValueError, match="nonzero"):
            uncertainty_report("C", "L", zero)

    def test_unknown_operator_refused(self):
        with pytest.raises(ValueError, match="operator"):
            uncertainty_report("C", "X", basis_state(0, Sector(0.0)))

    @pytest.mark.parametrize("coeffs", [
        [1e200] * 3,                          # ||c||^2 overflows
        [3e200, -1e199 + 2e200j, 5e150j],
        [1e-170] * 3,                         # ||c||^2 underflows to 0
        [2e-170j, -1e-171, 3e-170 + 1e-170j],
        [1e-160, 2e-160j],                    # ||c||^2 is subnormal
    ], ids=["over", "over-mixed", "under", "under-mixed", "subnormal"])
    @pytest.mark.parametrize("pair", [("C", "L"), ("S", "L2"), ("L", "C")])
    def test_norm_past_range_reports_the_rescaled_state(self, coeffs, pair):
        # the report is scale-invariant: past range it is the report of
        # c / max |c|, with no warning (warnings are errors here)
        c = np.array(coeffs, dtype=complex)
        state = CircleState(Sector(0.3), -4, c)
        rescaled = CircleState(Sector(0.3), -4, c / np.abs(c).max())
        rep = uncertainty_report(*pair, state)
        assert repr(rep) == repr(uncertainty_report(*pair, rescaled))
        assert rep.var_a > 0 and rep.lhs >= rep.rhs * (1 - 1e-12)

    def test_overflowing_norm_not_read_as_saturated(self):
        # ||c||^2 = inf once gave psi = 0: every moment 0 and "saturated"
        rep = uncertainty_report("C", "L",
                                 CircleState(Sector(0.3), 0, [1e200] * 3))
        ref = uncertainty_report("C", "L", CircleState(Sector(0.3), 0,
                                                       [1.0] * 3))
        assert repr(rep) == repr(ref)
        assert rep.mean_a == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert rep.var_b == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert not rep.saturated

    @pytest.mark.parametrize("a", ["C", "S", "L", "L2"])
    @pytest.mark.parametrize("b", ["C", "S", "L", "L2"])
    def test_field_types(self, a, b):
        # Python numbers, not NumPy scalars; sigma only where saturated
        states = [random_state(Sector(0.7), -3, 9),
                  min_state(MinUncParams(0.0, 1.3, 0.5, 1.0), 1e-14)]
        for state in states:
            rep = uncertainty_report(a, b, state)
            types = {f.name: type(getattr(rep, f.name))
                     for f in dataclasses.fields(rep)}
            assert types.pop("commutator_mean") is complex
            assert types.pop("saturated") is bool
            assert types.pop("sigma") is (complex if rep.saturated
                                          else type(None))
            assert set(types.values()) == {float}, types
        assert uncertainty_report("C", "L", states[1]).saturated


class TestReportFloor:
    """The fixed cost of uncertainty_report and of CircleState.normalized:
    the calls they make besides their array arithmetic."""

    @staticmethod
    def _profiled_calls(call):
        """(Python-level calls made from circlespace's frames, C-level
        calls made from them) of one warm call; NumPy ufuncs, matmul and
        array methods reached by operators are not seen."""
        call()
        counts = {"call": 0, "c_call": 0}

        def hook(frame, event, arg):
            if event == "call":
                frame = frame.f_back
            if (event in counts and frame is not None
                    and frame.f_code.co_filename == _centred_report
                    .__code__.co_filename):
                counts[event] += 1

        sys.setprofile(hook)
        try:
            call()
        finally:
            sys.setprofile(None)
        return counts["call"], counts["c_call"]

    def test_call_counts_pinned(self):
        # the report of ("C", "L") on a 40-wide window: work added to
        # every call shows here; lower the pin when a call gets cheaper.
        # The row builder and the product core that `moment_series` shares
        # are two calls, their tag count and the Gram's transposed view two
        # more, and an argmax reads the norm's max in place of a reduction
        rng = np.random.default_rng(11)
        state = CircleState(Sector(0.3), 7, rng.normal(size=40)
                            + 1j * rng.normal(size=40))
        assert self._profiled_calls(
            lambda: uncertainty_report("C", "L", state)) == (10, 13)

    def test_normalized_call_counts_pinned(self):
        # normalized() runs on every CLI evolve; the same 40-wide window
        rng = np.random.default_rng(11)
        state = CircleState(Sector(0.3), 7, rng.normal(size=40)
                            + 1j * rng.normal(size=40))
        assert self._profiled_calls(state.normalized) == (4, 6)


# The unit of the scale-invariance bounds below: the double epsilon 2^-52.
EPS = 2.0 ** -52


def _plain_norm_sq(c):
    # the one norm before `_scaled`: sum |c_n|^2 by pairwise addition,
    # with no rescaling, in-range bits of every reader
    mod_sq = np.abs(c)
    mod_sq *= mod_sq
    return float(np.add.reduce(mod_sq))


def _operator_scale(which, state):
    """The operator norm of C, S, L or L^2 on the state's window."""
    top = float(np.abs(state.indices + state.sector.delta).max())
    return {"C": 1.0, "S": 1.0, "L": top, "L2": top * top}[which]


# components 0 or +-2^e, e in [-20, 20], so that c 2^j is exact for every
# j in [-1000, 1000]
_PART = st.one_of(st.just(0.0), st.builds(
    lambda sign, e: sign * 2.0 ** e, st.sampled_from([-1.0, 1.0]),
    st.floats(-20.0, 20.0)))


class TestScaledNorm:
    """Every norm reader goes through `circlespace._scaled`: bits of the
    plain sum where max |c| is in [2^-500, 2^500], and past that range the
    reading of c / max |c|, so that results are scale-invariant from
    2^-1000 to 2^1000 and no warning is raised (warnings are errors)."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_PART, _PART), min_size=1, max_size=8)
           .filter(lambda parts: any(re or im for re, im in parts)),
           st.integers(-1000, 1000), st.integers(-5, 5), st.floats(0, 0.999))
    # a subnormal ||c||^2 (5.1e-320), and the two ends of the scale range
    @example([(1.0, 0.0), (0.0, 2.0), (0.3, 0.0)], -531, 0, 0.3)
    @example([(1.0, -3.0), (0.5, 0.25)], -1000, -2, 0.7)
    @example([(1.0, -3.0), (0.5, 0.25)], 1000, 4, 0.0)
    def test_scale_invariant_from_2_to_the_minus_1000_to_1000(
            self, parts, j, n_lo, delta):
        # bounds are about twice the largest deviation over 20,000 seeded
        # draws (2, 5 and 5 eps; the moment columns 5.4 eps of their scale
        # over 60,000, their fidelity 5.5 eps under a bound of 8): each
        # reading at j = 0 carries its own rounding, and past range c / max
        # |c| rounds once more
        c = np.array([complex(re, im) for re, im in parts])
        state = CircleState(Sector(delta), n_lo, c)
        scaled = CircleState(Sector(delta), n_lo, c * 2.0 ** j)
        assert abs(scaled.normalized().norm() - 1.0) <= 4 * EPS
        assert abs(fidelity(scaled, state) - 1.0) <= 10 * EPS
        for pair in (("C", "L"), ("S", "L2"), ("L", "C")):
            ref = uncertainty_report(*pair, state)
            rep = uncertainty_report(*pair, scaled)
            sa, sb = (_operator_scale(w, state) for w in pair)
            for name, scale in (("mean_a", sa), ("mean_b", sb),
                                ("var_a", sa * sa), ("var_b", sb * sb),
                                ("covariance", sa * sb),
                                ("commutator_mean", sa * sb),
                                ("lhs", (sa * sb) ** 2),
                                ("rhs", (sa * sb) ** 2)):
                assert (abs(getattr(rep, name) - getattr(ref, name))
                        <= 10 * EPS * scale), (pair, name)
        # <C>, <S>, <L>, Var C, Var S, Var L and the fidelity, each to its
        # operator scale
        top = _operator_scale("L", state)
        bound = EPS * np.array([10, 10, 10 * top, 10, 10, 10 * top * top, 8])
        times = [0.0, 0.7, 3.1]
        ref = moment_series(Params(0.8), state, times)
        col = moment_series(Params(0.8), scaled, times)
        assert np.all(np.abs(col - ref) <= bound)

    @pytest.mark.filterwarnings("error")
    def test_fidelity_of_the_zero_state_refused(self):
        # fidelity(zero, e_0) raised ZeroDivisionError
        zero = CircleState(Sector(0.2), 0, np.zeros(3))
        e_0 = basis_state(0, Sector(0.2))
        for pair in ((zero, e_0), (e_0, zero), (zero, zero)):
            with pytest.raises(ValueError, match="nonzero"):
                fidelity(*pair)

    def test_in_range_bits_are_the_plain_sums(self):
        # norm_sq, normalized, fidelity and the report keep the bits of the
        # formulas they had before `_scaled` wherever max |c| lies in
        # [2^-500, 2^500], the two ends included
        rng = np.random.default_rng(3131)
        draws = []
        for _ in range(300):
            width = int(rng.integers(1, 41))
            c = ((rng.normal(size=width) + 1j * rng.normal(size=width))
                 * 10.0 ** rng.uniform(-12, 0, size=width))
            c *= 2.0 ** float(rng.integers(-490, 490)) / np.abs(c).max()
            draws.append(c)
        draws += [np.array([2.0 ** -500, 3e-160j]),
                  np.array([2.0 ** 500, -1e150, 7e149j])]
        for c in draws:
            sector = Sector(float(rng.uniform(0, 1)))
            state = CircleState(sector, int(rng.integers(-50, 50)), c)
            other = CircleState(sector, state.n_lo + int(rng.integers(-3, 4)),
                                c[::-1] * 2.0 ** float(rng.integers(-20, 20)))
            norm_sq = _plain_norm_sq(c)
            assert state.norm_sq() == norm_sq
            unit = state.normalized()
            assert np.array_equal(unit.coeffs, c / math.sqrt(norm_sq))
            assert fidelity(other, state) == (
                abs(inner(other, state))
                / (math.sqrt(_plain_norm_sq(other.coeffs))
                   * math.sqrt(norm_sq)))
            psi = CircleState(sector, state.n_lo, c / math.sqrt(norm_sq))
            for pair in (("C", "L"), ("S", "L2"), ("L", "C")):
                assert (repr(uncertainty_report(*pair, state))
                        == repr(TestUncertaintyReport._report_through_states(
                            *pair, state, psi)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs", [[1e200] * 3, [1e-170, 2e-170j],
                                        [1.7e308 + 1.7e308j, 1.0]],
                             ids=["over", "under", "modulus-past-max"])
    def test_past_range_readers_answer_without_warning(self, coeffs):
        # norm_sq is the true value rounded (inf past range) and never
        # raises; the norm reads m ||c / m|| while it is a double
        state = CircleState(Sector(0.4), 2, coeffs)
        c = np.array(coeffs, dtype=complex)
        true_norm = math.hypot(*c.real, *c.imag)
        assert state.norm() == pytest.approx(true_norm, rel=4 * EPS)
        assert state.norm_sq() == pytest.approx(true_norm * true_norm,
                                                rel=4 * EPS)
        assert state.normalized().norm() == pytest.approx(1.0, abs=4 * EPS)
        assert fidelity(state, state) == pytest.approx(1.0, abs=10 * EPS)


class TestRepApply:
    def test_full_turn_phase(self):
        delta = 0.37
        rep = RepLabel(1.0, Sector(delta))
        psi = random_state(Sector(delta))
        out = rep_apply(2 * math.pi, 0.0, 0.0, rep, psi)
        expected = np.exp(-1j * 2 * math.pi * delta) * psi.coeffs
        # rotation phases exp(-i (n + delta) 2 pi) = exp(-i 2 pi delta)
        assert np.max(np.abs(out.coeffs - expected)) < 1e-13

    def test_rotated_mean_c_independent_of_window_position(self):
        # <C> of a rotated window does not depend on where it sits; each
        # (n + delta) alpha rounded on its own moved it by 4.5e-11 at
        # n_lo = 1e7
        rng = np.random.default_rng(2345)
        c = rng.normal(size=20) + 1j * rng.normal(size=20)
        rep = RepLabel(1.0, Sector(0.3))
        near, far = (uncertainty_report("C", "L", rep_apply(
            2.345, 0.0, 0.0, rep, CircleState(Sector(0.3), n_lo, c)))
            for n_lo in (0, 10 ** 7))
        assert abs(near.mean_a - far.mean_a) <= 1e-15

    def test_tiny_translation_keeps_the_window(self):
        # R = 1e-20 takes one tap, J_0(R) = 1: the window comes back as given
        psi = random_state(Sector(0.3))
        out = rep_apply(0.0, 1e-20, 0.0, RepLabel(1.0, Sector(0.3)), psi)
        assert out.n_lo == psi.n_lo
        assert np.array_equal(out.coeffs, psi.coeffs)

    def test_rotation_composition_exact(self):
        delta = 0.11
        rep = RepLabel(1.0, Sector(delta))
        psi = random_state(Sector(delta))
        a = rep_apply(0.7, 0, 0, rep, rep_apply(0.4, 0, 0, rep, psi))
        b = rep_apply(1.1, 0, 0, rep, psi)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14

    def test_translation_jacobi_anger_oracle(self):
        rep = RepLabel(1.0, Sector(0.0))
        out = rep_apply(0.0, 1.0, 0.0, rep, basis_state(0, Sector(0.0)))
        for m in range(out.n_lo, out.n_hi + 1):
            expected = (-1j) ** abs(m) * bessel_j(abs(m), 1.0)
            got = out.coeffs[m - out.n_lo]
            assert abs(got - expected) < 1e-10

    @pytest.mark.parametrize("alpha,a,b", [(0.3, 0.7, -0.2), (2.0, 0.0, 1.5),
                                           (-1.0, 2.5, 2.5)])
    def test_unitarity(self, alpha, a, b):
        delta = 0.29
        rep = RepLabel(1.3, Sector(delta))
        rng = np.random.default_rng(7)
        psi1 = random_state(Sector(delta), rng=rng)
        psi2 = random_state(Sector(delta), n_lo=0, width=4, rng=rng)
        g1 = rep_apply(alpha, a, b, rep, psi1)
        g2 = rep_apply(alpha, a, b, rep, psi2)
        assert abs(inner(g2, g1) - inner(psi2, psi1)) < 1e-12

    @pytest.mark.parametrize("radius", [0.3, 5.0, 20.0, 50.0])
    def test_translation_matches_pointwise_product(self, radius):
        # the translation is multiplication by exp(-i rho (a cos + b sin))
        # of the rotated wavefunction; compare at random angles
        rng = np.random.default_rng(int(radius * 10))
        delta, rho, alpha = 0.41, 1.7, 0.9
        beta = rng.uniform(0.0, 2.0 * math.pi)
        a, b = radius / rho * math.cos(beta), radius / rho * math.sin(beta)
        psi = random_state(Sector(delta), n_lo=-40, width=81, rng=rng)
        out = rep_apply(alpha, a, b, RepLabel(rho, Sector(delta)), psi)
        phi = rng.uniform(-10.0, 10.0, 64)
        rotated = CircleState(psi.sector, psi.n_lo, psi.coeffs * np.exp(
            -1j * (psi.indices + delta) * alpha))
        expected = rotated.evaluate(phi) * np.exp(
            -1j * rho * (a * np.cos(phi) + b * np.sin(phi)))
        assert np.max(np.abs(out.evaluate(phi) - expected)) < 1e-10

    @pytest.mark.parametrize("radius", [0.1, 0.3, 5.0, 50.0])
    def test_dropped_taps_below_tap_tail(self, radius):
        mpmath = pytest.importorskip("mpmath")
        out = rep_apply(0.0, radius, 0.0, RepLabel(1.0, Sector(0.0)),
                        basis_state(0, Sector(0.0)))
        h = out.n_hi
        assert out.n_lo == -h
        with mpmath.workdps(30):
            tail = 2 * mpmath.fsum(mpmath.besselj(k, radius) ** 2
                                   for k in range(h + 1, h + 60))
        assert tail <= _TAP_TAIL

    def test_taps_match_full_order_window(self):
        # the taps from one J call over 0..h mirrored give the bits of the
        # taps built from J over -h..h
        rng = np.random.default_rng(19)
        for _ in range(200):
            delta, rho = rng.uniform(0, 1), rng.uniform(0.5, 2.0)
            alpha = rng.uniform(-math.pi, math.pi)
            radius = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
            beta = rng.uniform(0, 2 * math.pi)
            a, b = radius / rho * math.cos(beta), radius / rho * math.sin(beta)
            psi = random_state(Sector(delta), n_lo=int(rng.integers(-50, 50)),
                               width=int(rng.integers(1, 40)), rng=rng)
            out = rep_apply(alpha, a, b, RepLabel(rho, Sector(delta)), psi)
            n_c = (psi.n_lo + psi.n_hi) // 2
            coeffs = psi.coeffs * (
                cmath.rect(1.0, -(n_c + delta) * alpha)
                * np.exp(-1j * alpha * (psi.indices - n_c)))
            r = rho * math.hypot(a, b)
            half = _bessel_half_width(r, _TAP_TAIL)
            k = np.arange(-half, half + 1)
            taps = (np.array([1.0, -1j, -1.0, 1j])[k % 4] * bessel_j(k, r)
                    * np.exp(-1j * k * math.atan2(b, a)))
            assert out.n_lo == psi.n_lo - half
            assert out.coeffs.tobytes() == np.convolve(coeffs, taps).tobytes()

    @pytest.mark.parametrize("t1,t2", [(0.3, 5.0j), (2.0 - 1.0j, 3.0 + 4.0j),
                                       (20.0, -12.0 + 25.0j)])
    def test_chained_translations(self, t1, t2):
        # translations commute: T(t2) T(t1) = T(t1 + t2), and each step
        # widens the window by its own bound half-width only
        rho, delta = 1.3, 0.2
        rep = RepLabel(rho, Sector(delta))
        psi = random_state(Sector(delta), n_lo=-10, width=21,
                           rng=np.random.default_rng(3))
        first = rep_apply(0.0, t1.real, t1.imag, rep, psi)
        both = rep_apply(0.0, t2.real, t2.imag, rep, first)
        t = t1 + t2
        whole = rep_apply(0.0, t.real, t.imag, rep, psi)
        lo = min(both.n_lo, whole.n_lo)
        a, b = (np.pad(x.coeffs, (x.n_lo - lo, 0)) for x in (both, whole))
        size = max(a.size, b.size)
        diff = np.pad(a, (0, size - a.size)) - np.pad(b, (0, size - b.size))
        assert np.max(np.abs(diff)) < 1e-10
        grow = (_bessel_half_width(rho * abs(t1), _TAP_TAIL)
                + _bessel_half_width(rho * abs(t2), _TAP_TAIL))
        assert both.n_lo >= psi.n_lo - grow and both.n_hi <= psi.n_hi + grow


_PSI = CircleState(Sector(0.0), -2, np.arange(1.0, 6.0))


class TestSizeBudget:
    """The one size budget, `circlespace._require_width`: a builder refuses
    a window past it before it allocates."""

    @pytest.mark.parametrize("build", [
        # half-widths 802,946,969 and past double range (a 12.8 GB index
        # array before the budget), and 13,591,437 and about 1e300 taps
        lambda: w_state(WZParams(1e-16, Sector(0.2)), PhasePoint(1.0, 0.5)),
        lambda: w_state(WZParams(1.4e-307, Sector(0.2)),
                        PhasePoint(1.0, 0.5), window_tol=1e-14),
        lambda: rep_apply(0.0, 1e7, 0.0, RepLabel(1.0, Sector(0.0)), _PSI),
        lambda: rep_apply(0.3, 0.0, 1e300, RepLabel(1.0, Sector(0.0)), _PSI),
        # Bessel windows of about 2.7e8 orders (4.3 GB), 2e9 + 1 orders
        # and 3.8e12 quadrature nodes
        lambda: min_state(MinUncParams(0.0, 0.0, 1e8, 0.0)),
        lambda: sum_rule_residual(1e8),
        lambda: completeness_residual(0, 0, 0.0, 0.0, Sector(0.0), 10 ** 9),
        lambda: dbt_divergence(0, 1e12),
    ], ids=["w_state-1e-16", "w_state-1.4e-307", "rep_apply-1e7",
            "rep_apply-1e300", "min_state-1e8", "sum_rule_residual-1e8",
            "completeness_residual-1e9", "dbt_divergence-1e12"])
    def test_refused_before_allocation(self, build):
        _bessel_half_width(3.0, _TAP_TAIL)   # scipy.special's first import
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4194304 coefficients"):
            build()
        assert time.perf_counter() - start < 0.05
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    def test_boundary(self, monkeypatch):
        # at a budget of exactly the width every builder answers as it did;
        # one coefficient fewer refuses, naming the parameter.  An array of
        # labels counts every row, and dbt_divergence 12 nodes a panel
        params, point = WZParams(1.0, Sector(0.2)), PhasePoint(1.0, 0.5)
        rep = RepLabel(1.0, Sector(0.0))
        sigma = 0.5 - 1.0j
        cases = [
            (lambda: w_state(params, point).coeffs, None, "epsilon"),
            (lambda: _window(1.0, 0.2, np.zeros(3), 1e-12), None, "epsilon"),
            (lambda: rep_apply(0.0, 3.0, 4.0, rep, _PSI).coeffs, None, "rho"),
            (lambda: min_state(MinUncParams(0.4, 1.3, 0.6, 0.9)).coeffs,
             None, "sigma"),
            (lambda: sum_rule_residual(sigma),
             2 * _bessel_half_width(sigma, 1e-14) + 1, "sigma"),
            (lambda: completeness_residual(1, 1, 1.0, 0.5, Sector(0.0), 7),
             15, "n_cut"),
            (lambda: dbt_divergence(2, 10.0), 48, "gamma_max"),
        ]
        for build, width, what in cases:
            out = build()
            width = out.size if width is None else width
            monkeypatch.setattr(circlespace, "_MAX_WIDTH", width)
            assert np.array_equal(build(), out)
            monkeypatch.setattr(circlespace, "_MAX_WIDTH", width - 1)
            with pytest.raises(ValueError, match=what):
                build()
            monkeypatch.undo()


class TestParams:
    @pytest.mark.parametrize("eps,omega", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, -math.inf),
        (1.0, math.nan)])
    def test_rejects_non_finite_stiffness_or_frequency(self, eps, omega):
        with pytest.raises(ValueError, match="epsilon"):
            Params(eps, omega)


class TestEnergy:
    def test_zero_ground(self):
        assert energy(0, Params(1.0), Sector(0.0)) == 0.0

    def test_half_sector_degenerate(self):
        params = Params(1.0)
        sector = Sector(0.5)
        assert energy(0, params, sector) == pytest.approx(1 / 8)
        assert energy(-1, params, sector) == pytest.approx(1 / 8)
        n_star, e_star, degen = ground_state(params, sector)
        assert degen
        assert e_star == pytest.approx(1 / 8)

    def test_generic_sector(self):
        n_star, e_star, degen = ground_state(Params(2.0), Sector(0.3))
        assert (n_star, degen) == (0, False)
        assert e_star == pytest.approx(0.09)

    def test_upper_half_sector(self):
        n_star, e_star, degen = ground_state(Params(1.0), Sector(0.8))
        assert n_star == -1
        assert e_star == pytest.approx(0.5 * 0.2 ** 2)


class TestDeltaFromFlux:
    def test_zero_flux(self):
        assert delta_from_flux(1.0, 0.0) == (0.0, 0.0)

    def test_one_flux_quantum(self):
        delta, shift = delta_from_flux(1.0, 2 * math.pi)
        assert delta == pytest.approx(0.0, abs=1e-15)
        assert shift == pytest.approx(2 * math.pi)

    def test_half_quantum(self):
        delta, shift = delta_from_flux(1.0, math.pi)
        assert delta == pytest.approx(0.5)
        assert shift == pytest.approx(math.pi)


class TestDiscreteSymmetries:
    def test_delta_zero_sector_fixed(self):
        psi = random_state(Sector(0.0))
        assert time_reversal(psi).sector.delta == 0.0

    def test_half_sector_fixed_point(self):
        psi = random_state(Sector(0.5))
        assert time_reversal(psi).sector.delta == 0.5

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.9])
    def test_involution(self, delta):
        # the composition check lives in coefficient space; 1 - (1 - delta)
        # drifts by one ulp for generic floats
        psi = random_state(Sector(delta))
        back = time_reversal(time_reversal(psi))
        assert back.sector.delta == pytest.approx(psi.sector.delta, abs=1e-15)
        assert back.n_lo == psi.n_lo
        assert np.max(np.abs(back.coeffs - psi.coeffs)) == 0.0

    def test_conjugates_wavefunction(self):
        # T psi evaluated at phi equals conj(psi(phi))
        psi = random_state(Sector(0.2))
        tpsi = time_reversal(psi)
        phi = np.linspace(0, 6, 9)
        assert np.max(np.abs(tpsi.evaluate(phi)
                             - np.conj(psi.evaluate(phi)))) < 1e-13

    def test_parity_flips_eigenvalues(self):
        st_ = basis_state(2, Sector(0.3))
        out = parity(st_)
        # eigenvalue 2.3 maps to -2.3 = (-3) + 0.7
        assert out.sector.delta == pytest.approx(0.7)
        assert out.n_lo == -3

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_parity_after_time_reversal_restores_basis(self, delta):
        st_ = basis_state(1, Sector(delta))
        out = parity(time_reversal(st_))
        assert out.sector.delta == pytest.approx(st_.sector.delta, abs=1e-15)
        assert out.n_lo == st_.n_lo
        assert np.max(np.abs(out.coeffs - st_.coeffs)) == 0.0


class TestSerialization:
    def test_roundtrip(self):
        psi = random_state(Sector(0.62), n_lo=-1, width=4)
        back = CircleState.from_json(psi.to_json())
        assert back.sector.delta == psi.sector.delta
        assert back.n_lo == psi.n_lo
        assert np.max(np.abs(back.coeffs - psi.coeffs)) == 0.0

    def test_fidelity_self(self):
        psi = random_state(Sector(0.1))
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)


class TestRefusals:
    """Labels and windows each constructor refuses with ValueError."""

    @pytest.mark.parametrize("make,word", [
        (lambda: RepLabel(0.0, Sector(0.0)), "rho"),
        (lambda: CircleState(Sector(0.0), 0, []), "nonempty"),
        (lambda: CircleState(Sector(0.0), 0, [[1.0]]), "nonempty"),
        (lambda: CircleState(Sector(0.0), 0, [1.0, math.nan]), "finite"),
        (lambda: CircleState(Sector(0.0), 0, [math.inf]), "finite"),
        # a fractional n_lo shifted every frequency: evaluate used 2.95 and
        # 3.95 here
        (lambda: CircleState(Sector(0.25), 2.7, [1, 1j]), "n_lo"),
        (lambda: CircleState(Sector(0.25), True, [1]), "n_lo"),
        (lambda: CircleState(Sector(0.25), 2 ** 53, [1]), "n_lo"),
        (lambda: CircleState.from_json(
            '{"delta": 0.25, "n_lo": 2.7, "coeffs": [[1, 0]]}'), "n_lo"),
        (lambda: CircleState.from_json(
            '{"delta": 0.25, "n_lo": true, "coeffs": [[1, 0]]}'), "n_lo"),
        # non-integer indices: basis_state(2.7) built e_2, qdeform_residual
        # took n = 2 on one side and 2.7 on the other, dbt_divergence
        # integrated J_{1/2}^2
        (lambda: basis_state(2.7, Sector(0.25)), "^n must be an integer"),
        (lambda: basis_state(np.True_, Sector(0.25)), "^n must be an integer"),
        (lambda: qdeform_residual(LadderContext(0.5, Sector(0.25)), 2.7),
         "^n must be an integer"),
        (lambda: dbt_divergence(0.5, 10.0), "^n must be an integer"),
        (lambda: completeness_residual_wz(
            0.5, 0.5, WZParams(0.5, Sector(0.25))), "^m1 must be an integer"),
        (lambda: completeness_residual_wz(
            0, True, WZParams(0.5, Sector(0.25))), "^m2 must be an integer"),
        # energy(2.5) returned 3.92, the level of no basis state
        (lambda: energy(2.5, Params(1.0), Sector(0.3)),
         "^n must be an integer"),
    ], ids=["rho-zero", "empty", "2-d",
            "nan-coeff", "inf-coeff", "n_lo-fraction", "n_lo-bool",
            "n_lo-2^53", "json-fraction", "json-bool", "basis-fraction",
            "basis-bool", "qdeform-fraction", "dbt-fraction", "wz-m1-fraction",
            "wz-m2-bool", "energy-fraction"])
    def test_refused(self, make, word):
        with pytest.raises(ValueError, match=word):
            make()

    def test_integral_n_lo_stored_as_int(self):
        st_ = CircleState.from_json(
            '{"delta": 0.25, "n_lo": 3.0, "coeffs": [[1, 0]]}')
        assert st_.n_lo == 3 and type(st_.n_lo) is int
        st_ = CircleState(Sector(0.0), np.int64(-4), [1.0])
        assert st_.n_lo == -4 and type(st_.n_lo) is int

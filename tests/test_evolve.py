"""Spectral propagation, theta propagator kernel, coherent-family evolution."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleqm import evolve
from circleqm.circlespace import (
    CircleState,
    Params,
    Sector,
    apply_operator,
    basis_state,
    fidelity,
    inner,
)
from circleqm.evolve import (
    EvolutionSpec,
    _kernel_theta,
    evolve_min,
    evolve_w,
    kernel,
    kernel_apply,
    moment_series,
    propagate,
)
from circleqm.mincs import MinUncParams, min_state
from circleqm.specfun import _Nodes, _reduce_tau
from circleqm.verify import _kernel_faces
from circleqm.zakcs import PhasePoint, WZParams, fn_basis, w_state, w_value

RNG = np.random.default_rng(99)


def random_state(sector, n_lo=-2, width=5, rng=RNG):
    c = rng.normal(size=width) + 1j * rng.normal(size=width)
    return CircleState(sector, n_lo, c).normalized()


def _seven_smooth(n):
    """Whether n has no prime factor above 7."""
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def _flow_sum_mp(eps, delta, T, n_lo, coeffs, phi):
    """sum_j c_j exp(-i eps f^2 T/2 + i f phi), f = n_lo + j + delta, at
    each phi, summed in 30-digit arithmetic at the given doubles: the
    spectral form of the kernel (c = 1, T = t - i eta) and of a propagated
    state (T = t)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        T = mpmath.mpc(T.real, T.imag)
        freq = [n_lo + j + mpmath.mpf(delta) for j in range(len(coeffs))]
        return np.array([complex(mpmath.fsum(
            mpmath.mpc(c.real, c.imag)
            * mpmath.exp(-0.5j * eps * f * f * T + 1j * f * mpmath.mpf(x))
            for c, f in zip(coeffs, freq))) for x in phi])


class TestPropagate:
    def test_zero_time_identity(self):
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.3), 0.0)
        psi = random_state(Sector(0.3))
        out = propagate(spec, psi)
        assert np.max(np.abs(out.coeffs - psi.coeffs)) == 0.0

    def test_basis_state_global_phase(self):
        eps, delta, wt, n = 0.7, 0.4, 1.3, 2
        spec = EvolutionSpec(Params(eps, 1.0), Sector(delta), wt)
        out = propagate(spec, basis_state(n, Sector(delta)))
        expected = cmath.exp(-0.5j * eps * (n + delta) ** 2 * wt)
        assert abs(out.coeffs[0] - expected) < 1e-15
        assert abs(abs(out.coeffs[0]) - 1.0) < 1e-15

    def test_full_revival(self):
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.0), 4 * math.pi)
        psi = random_state(Sector(0.0), n_lo=-7, width=15)
        out = propagate(spec, psi)
        assert fidelity(psi, out) > 1 - 1e-12

    def test_rational_sector_revival_up_to_phase(self):
        # delta = 2/5 has covering order q = 5
        sector, q = Sector(0.4), 5
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 4 * math.pi * q * q)
        psi = random_state(sector, n_lo=-6, width=13)
        out = propagate(spec, psi)
        assert fidelity(psi, out) > 1 - 1e-10

    def test_unitarity(self):
        spec = EvolutionSpec(Params(1.3, 0.9), Sector(0.62), 2.7)
        psi = random_state(Sector(0.62))
        assert propagate(spec, psi).norm_sq() == pytest.approx(
            psi.norm_sq(), abs=1e-15)

    def test_group_property(self):
        delta = 0.21
        psi = random_state(Sector(delta))
        params = Params(0.8, 1.1)
        one = propagate(EvolutionSpec(params, Sector(delta), 0.7),
                        propagate(EvolutionSpec(params, Sector(delta), 1.3), psi))
        both = propagate(EvolutionSpec(params, Sector(delta), 2.0), psi)
        assert np.max(np.abs(one.coeffs - both.coeffs)) < 1e-14

    def test_negative_time_inverts(self):
        delta = 0.11
        psi = random_state(Sector(delta))
        params = Params(1.0, 1.0)
        back = propagate(EvolutionSpec(params, Sector(delta), -0.9),
                         propagate(EvolutionSpec(params, Sector(delta), 0.9), psi))
        assert np.max(np.abs(back.coeffs - psi.coeffs)) < 1e-14

    def test_energy_conserved(self):
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.37), 3.3)
        psi = random_state(Sector(0.37))
        l2_before = inner(psi, apply_operator("L2", psi)).real
        out = propagate(spec, psi)
        l2_after = inner(out, apply_operator("L2", out)).real
        assert abs(l2_after - l2_before) < 1e-12 * max(abs(l2_before), 1.0)

    def test_phase_without_significant_bits_rejected(self):
        # at eps omega t (n+delta)^2 / 2 >= 2^52 rad one ulp spans a radian
        psi = random_state(Sector(0.3))
        with pytest.raises(ValueError, match="2\\^52"):
            propagate(EvolutionSpec(Params(1.0, 1.0), Sector(0.3), 1e300), psi)
        # the largest |n + delta| of the window is 2.3; just below the limit
        # the phases are still computed
        t_ok = 0.99 * 2.0 ** 53 / 2.3 ** 2
        out = propagate(EvolutionSpec(Params(1.0, 1.0), Sector(0.3), t_ok), psi)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError):
            propagate(EvolutionSpec(Params(1.0, 1.0), Sector(0.3),
                                    1.01 * 2.0 ** 53 / 2.3 ** 2), psi)


class TestMomentSeries:
    def test_rows_match_per_time_library_path(self):
        params = Params(0.7, 1.3)
        psi = random_state(Sector(0.6), n_lo=-5, width=12)
        times = [0.0, 0.25, 3.0, -7.5, 20.0]
        got = moment_series(params, psi, times)
        for t, row in zip(times, got):
            phi = propagate(EvolutionSpec(params, Sector(0.6), t), psi)
            ops = [apply_operator(op, phi) for op in "CSL"]
            means = [inner(phi, x).real for x in ops]
            var = [inner(x, x).real - m ** 2 for x, m in zip(ops, means)]
            ref = np.array(means + var + [fidelity(psi, phi)])
            assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e52, 1e200, 1e-200])
    def test_columns_are_those_of_the_normalized_state(self, scale):
        # the moment columns were those of c as given: from scale 1e52 they
        # overflowed with numpy's warning, and at 1e-200 they read ~0
        params, times = Params(0.7, 1.3), [0.0, 0.25, 3.0]
        c = np.array([1.0, 2j, 0.5])
        ref = moment_series(params, CircleState(Sector(0.3), -1, c), times)
        got = moment_series(params, CircleState(Sector(0.3), -1, c * scale),
                            times)
        assert np.all(np.abs(got - ref)
                      <= 4 * 2.0 ** -52 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.filterwarnings("error")
    def test_zero_state_refused(self):
        # this gave nan with numpy's "invalid value" warning
        zero = CircleState(Sector(0.2), 3, np.zeros(4))
        with pytest.raises(ValueError, match="zero state"):
            moment_series(Params(1.0, 1.0), zero, [0.0, 1.0])

    def test_bad_times_rejected(self):
        psi = random_state(Sector(0.3))
        with pytest.raises(ValueError, match="finite"):
            moment_series(Params(1.0, 1.0), psi, [0.0, float("nan")])
        with pytest.raises(ValueError, match="2\\^52"):
            moment_series(Params(1.0, 1.0), psi, [0.5, 1e300])


class TestKernel:
    def test_two_faces_agree_at_reference_point(self):
        # the kernel against both printed faces, written out from theta's
        # direct series (`verify._kernel_faces`)
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.3), 0.7, eta=1e-6)
        k = kernel(spec, 0.4)
        for face in _kernel_faces(spec, 0.4):
            assert abs(k - face) < 1e-9 * abs(k)

    @pytest.mark.parametrize("wt", [0.7, 5.3])
    def test_series_face_reduces_its_phases(self, wt):
        # 17,889 terms at eps omega eta = 1e-6: rounded as products, the
        # phases m^2 pi Re tau put the series face 4.2e-11 of max|K| off
        # the reduced route (itself within 1e-14 of 40-digit sums); reduced
        # mod 2 pi first, 2e-13
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.3), wt, eta=1e-6)
        dphi = np.linspace(-math.pi, math.pi, 7)
        ref = kernel(spec, dphi)
        err = np.max(np.abs(_kernel_faces(spec, dphi)[0] - ref))
        assert err < 2e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("eps,delta,wt", [
        (1.0, 0.0, 0.5), (1.0, 0.3, 0.7), (0.5, 0.7, 2.0), (2.0, 0.2, 1.1)])
    def test_two_faces_agree_on_grid(self, eps, delta, wt):
        spec = EvolutionSpec(Params(eps, 1.0), Sector(delta), wt, eta=1e-6)
        dphi = np.linspace(-math.pi, math.pi, 9)
        k = kernel(spec, dphi)
        scale = np.max(np.abs(k))
        for face in _kernel_faces(spec, dphi):
            assert np.max(np.abs(k - face)) < 1e-9 * scale

    def test_free_spreading_structure_at_small_time(self):
        # at delta = 0 and small t the kernel is the free Gaussian
        # sqrt(2 pi/(i eps T)) exp(i dphi^2/(2 eps T)) up to the tiny
        # reciprocal-nome theta correction
        eps, wt, eta = 1.0, 1e-3, 1e-5
        spec = EvolutionSpec(Params(eps, 1.0), Sector(0.0), wt, eta=eta)
        T = complex(wt, -eta)
        for dphi in (0.0, 0.05):
            free = cmath.sqrt(2 * math.pi) * (1j * eps * T) ** -0.5 \
                * cmath.exp(-dphi ** 2 / (2j * eps * T))
            val = kernel(spec, dphi)
            assert abs(val - free) < 1e-6 * abs(free)

    def test_rejects_unregularized(self):
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.0), 0.5, eta=0.0)
        with pytest.raises(ValueError):
            kernel(spec, 0.3)

    @pytest.mark.parametrize("make,error,word", [
        (lambda: EvolutionSpec(Params(1.0), Sector(0.0), math.inf),
         ValueError, "time"),
        (lambda: EvolutionSpec(Params(1.0), Sector(0.0), math.nan),
         ValueError, "time"),
        (lambda: EvolutionSpec(Params(1.0), Sector(0.0), 0.5, eta=-1e-3),
         ValueError, "eta"),
        # the kernel has one form, the reduced theta: the face option is gone
        (lambda: kernel(EvolutionSpec(Params(1.0), Sector(0.0), 0.5, eta=1e-3),
                        0.3, form="series"), TypeError, "form"),
    ], ids=["t-inf", "t-nan", "eta-negative", "unknown-form"])
    def test_rejects_bad_spec_or_form(self, make, error, word):
        with pytest.raises(error, match=word):
            make()

    def test_refuses_below_documented_range(self):
        # eps omega eta = 5e-9 < 1e-8: kernel and kernel_apply raise before
        # any sampling; the series face alone would start to fail near 3e-9
        sector = Sector(0.3)
        spec = EvolutionSpec(Params(2.0, 0.5), sector, 0.7, eta=5e-9)
        psi = CircleState(sector, -1, np.array([0.3, 0.8, -0.4j]))
        for call in (lambda: kernel(spec, 0.4),
                     lambda: kernel(spec, np.zeros(3)),
                     lambda: kernel_apply(spec, psi, 1.1)):
            with pytest.raises(ValueError, match="eps omega eta"):
                call()

    @pytest.mark.parametrize("form", ["auto", "series", "gaussian"])
    def test_finite_at_range_edge(self, form):
        # the kernel is finite at eps omega eta = 1e-8, and within 4.1e-12
        # (series) and 1.3e-9 (Gaussian) of max|K| of each written-out face
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.3), 0.7, eta=1e-8)
        dphi = np.linspace(-math.pi, math.pi, 5)
        vals = kernel(spec, dphi)
        assert np.all(np.isfinite(vals))
        if form != "auto":
            face = _kernel_faces(spec, dphi)[form == "gaussian"]
            bound = 4e-11 if form == "series" else 1.3e-8
            assert np.max(np.abs(vals - face)) < bound * np.max(np.abs(vals))

    def test_apply_at_range_edge(self):
        sector = Sector(0.3)
        psi = CircleState(sector, -1, np.array([0.3, 0.8, -0.4j])).normalized()
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 12.0, eta=1e-8)
        bias = np.exp(-0.5 * spec.eta * (psi.indices + sector.delta) ** 2)
        ref = CircleState(sector, psi.n_lo,
                          propagate(spec, psi).coeffs * bias).evaluate(1.1)
        assert abs(kernel_apply(spec, psi, 1.1) - ref) < 1e-10

    def test_gaussian_face_term_budget(self):
        # eta = 1e-12 would put the reciprocal nome within 2e-11 of the unit
        # circle, past the series' term budget; the kernel's eps omega eta
        # >= 1e-8 floor (`_damping`) refuses it before any series is sized
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.0), 1.0, eta=1e-12)
        with pytest.raises(ValueError, match="eps omega eta"):
            kernel(spec, 0.3)

    def test_gaussian_face_refuses_heavy_damping(self):
        # eta = 300 leaves two spectral terms of size 1; the Gaussian face,
        # the move S at Im tau = 47.7, cancels terms of ~e^{34} to reach
        # them (forced, it was off by 4.4).  The walk takes no move above
        # Im tau = 1 and keeps the direct series, which the kernel sums.
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.5), 0.7, eta=300.0)
        tau = complex(-0.35 / math.pi, 150.0 / math.pi)
        assert _reduce_tau(tau, 3) is None
        series = kernel(spec, 0.3)
        n = np.array([-1.0, 0.0])
        ref = np.sum(np.exp(-0.5j * (n + 0.5) ** 2 * complex(0.7, -300.0)
                            + 1j * (n + 0.5) * 0.3))
        assert abs(series - ref) < 1e-14 * abs(ref)

    @pytest.mark.parametrize("eps,delta,wt,eta", [
        (1.0, 0.3, 0.7, 1e-2), (0.5, 0.7, 20.0, 1e-3), (2.0, 0.45, 3.0, 1e-1),
        (0.8, 0.0, 0.05, 1e-3)])
    def test_quasi_periodic_in_whole_turns(self, eps, delta, wt, eta):
        # K(dphi + 2 pi k) = e^{2 pi i delta k} K(dphi) with dphi taken as
        # given: theta reduces the argument.  Rounding dphi + 2 pi k moves
        # dphi by ~1e-16 |2 pi k|; the difference stayed below 3.4e-15
        # (1 + |k|) of sqrt(2 pi/(eps omega eta))
        spec = EvolutionSpec(Params(eps, 1.0), Sector(delta), wt, eta=eta)
        unit = math.sqrt(2 * math.pi / (eps * eta))
        dphi = np.linspace(-math.pi, math.pi, 13)
        ref = kernel(spec, dphi)
        for k in (1, -3, 10, -100, 1000, -1000):
            vals = kernel(spec, dphi + 2 * math.pi * k)
            err = np.max(np.abs(vals - cmath.exp(2j * math.pi * delta * k) * ref))
            assert err < 4e-14 * (1 + abs(k)) * unit

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_refused(self, angle):
        # theta's finiteness check refuses it, with no RuntimeWarning on
        # the way (the whole-turn floor once made nan of it)
        sector = Sector(0.3)
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 0.7, eta=1e-2)
        psi = CircleState(sector, -1, np.array([0.3, 0.8, -0.4j]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: kernel(spec, angle),
                         lambda: kernel(spec, np.array([0.2, angle])),
                         lambda: kernel_apply(spec, psi, angle)):
                with pytest.raises(ValueError, match="finite"):
                    call()

    def test_zero_dimensional_angle_gives_a_scalar(self):
        # a 0-d array is a scalar, as for `CircleState.evaluate` and
        # `w_value`; kernel and kernel_apply returned shape (1,) for it
        sector = Sector(0.3)
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 0.7, eta=1e-2)
        psi = CircleState(sector, -1, np.array([0.3, 0.8, -0.4j]))
        params = WZParams(1.0, sector)
        for call in (lambda x: kernel(spec, x),
                     lambda x: kernel_apply(spec, psi, x),
                     psi.evaluate,
                     lambda x: w_value(params, 0.5 + 0.2j, x)):
            got = call(np.array(0.4))
            assert type(got) is complex and got == call(0.4)

    def test_theta_factor_is_the_kernel_bitwise(self):
        # kernel and kernel_apply share one closed form
        spec = EvolutionSpec(Params(0.8, 1.3), Sector(0.35), 2.1, eta=1e-3)
        dphi = np.linspace(-math.pi, math.pi, 17, endpoint=False)
        const, theta_vals = _kernel_theta(spec, dphi)
        vals = const * np.exp(1j * 0.35 * dphi) * theta_vals
        assert np.array_equal(kernel(spec, dphi), vals)

    @pytest.mark.parametrize("eps,delta,wt", [
        (1.0, 0.3, 0.7), (0.5, 0.7, 2.0), (2.0, 0.2, 0.1), (1.0, 0.45, 12.0)])
    def test_faces_match_spectral_sum(self, eps, delta, wt):
        # 64 samples take Horner's rule in the reduced theta, single angles
        # the plain series; the reference sums the spectral series term by
        # term with the quadratic phase reduced mod 2 pi in extended
        # precision.  The written-out faces `verify` checks the kernel
        # against hold the same bound.
        eta = 1e-4
        spec = EvolutionSpec(Params(eps, 1.0), Sector(delta), wt, eta=eta)
        dphi = -math.pi + np.arange(64) * (2.0 * math.pi / 64)
        half = int(math.ceil(math.sqrt(83.0 / (eps * eta)))) + 2
        freq = np.arange(-half, half + 1) + delta
        phase = np.fmod(np.longdouble(0.5 * eps * wt)
                        * freq.astype(np.longdouble) ** 2, 2.0 * np.pi)
        weights = np.exp(-0.5 * eps * eta * freq ** 2 - 1j * phase.astype(float))
        ref = np.exp(1j * np.outer(dphi, freq)) @ weights
        scale = np.max(np.abs(ref))
        vals = kernel(spec, dphi)
        assert np.max(np.abs(vals - ref)) < 1e-10 * scale
        for i in (0, 21, 40):
            assert abs(kernel(spec, dphi[i]) - ref[i]) < 1e-10 * scale
        for face in _kernel_faces(spec, dphi):
            assert np.max(np.abs(face - ref)) < 1e-10 * scale

    def test_quadrature_matches_propagate(self):
        eps, delta, wt, eta = 1.0, 0.2, 0.9, 1e-6
        sector = Sector(delta)
        psi = CircleState(sector, -1,
                          np.array([0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j]))
        psi = psi.normalized()
        spec = EvolutionSpec(Params(eps, 1.0), sector, wt, eta=eta)
        phi_out = np.linspace(0, 2 * math.pi, 5, endpoint=False)
        via_kernel = kernel_apply(spec, psi, phi_out)
        # the reference carries the kernel's eta-bias on each coefficient
        bias = np.exp(-0.5 * eps * eta * (psi.indices + delta) ** 2)
        ref = CircleState(sector, psi.n_lo,
                          propagate(spec, psi).coeffs * bias).evaluate(phi_out)
        assert np.max(np.abs(via_kernel - ref)) < 1e-11

    @staticmethod
    def _apply_error(eps, eta, delta, t, n_lo, coeffs, phi_out):
        """max |kernel_apply - eta-damped propagate| over phi_out, relative
        to the state norm."""
        sector = Sector(delta)
        psi = CircleState(sector, n_lo, np.asarray(coeffs, dtype=complex))
        spec = EvolutionSpec(Params(eps, 1.0), sector, t, eta=eta)
        bias = np.exp(-0.5 * eps * eta * (psi.indices + delta) ** 2)
        ref = CircleState(sector, n_lo,
                          propagate(spec, psi).coeffs * bias).evaluate(phi_out)
        return np.max(np.abs(kernel_apply(spec, psi, phi_out) - ref)) / psi.norm()

    @pytest.mark.parametrize("n_lo", [400, -700])
    @pytest.mark.parametrize("wt", [0.7, 12.0])
    def test_window_far_from_origin_does_not_alias(self, n_lo, wt):
        # the damped state is ~0 there; a node count sized by the width
        # alone let an alias partner near n = 0 through (1.67 at n_lo = 400)
        coeffs = [0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j]
        phi_out = np.linspace(0, 2 * math.pi, 7, endpoint=False)
        err = self._apply_error(1.0, 1e-2, 0.25, wt, n_lo, coeffs, phi_out)
        assert err < 1e-12

    @staticmethod
    def _counted_nodes(monkeypatch):
        """The node counts of the `_kernel_theta` calls made from here on."""
        sizes = []

        def counted(spec_, dphi, *args):
            sizes.append(np.size(dphi))
            return _kernel_theta(spec_, dphi, *args)

        monkeypatch.setattr(evolve, "_kernel_theta", counted)
        return sizes

    @pytest.mark.parametrize("n_lo,width,eta", [
        (-3, 9, 1e-3), (0, 1, 2e-3), (-12, 21, 1e-4), (5, 4, 7e-3),
        (400, 3, 1e-2), (-700, 3, 1e-2), (10 ** 6, 5, 1e-4),
        (2 ** 40, 3, 1e-4)])
    def test_node_count_is_least_seven_smooth_at_the_bound(self, monkeypatch,
                                                           n_lo, width, eta):
        sector = Sector(0.3)
        psi = random_state(sector, n_lo=n_lo, width=width,
                           rng=np.random.default_rng(width))
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 2.0, eta=eta)
        sizes = self._counted_nodes(monkeypatch)
        kernel_apply(spec, psi, 0.5)
        # far windows (the last four) are capped at 2 ceil(B) + 1, rounded up
        assert sizes == [self._node_count(spec, psi)]

    @pytest.mark.parametrize("eps,delta,wt,eta,n_lo,width", [
        (1.0, 0.3, 0.7, 1e-2, -2, 5),
        (0.5, 0.7, 20.0, 2e-3, -3, 9),
        (1.3, 0.1, 4.0, 1e-3, -12, 21),
        (2.0, 0.45, 3.0, 1e-4, 1, 11)])
    def test_matches_theta_samples_at_the_bound(self, eps, delta, wt, eta,
                                                n_lo, width):
        # the smooth node count moves outputs only by the quadrature's
        # own error: against the same theta samples and inverse FFT at the
        # unrounded bound m0, within 1e-14 of sum |c|
        sector = Sector(delta)
        psi = random_state(sector, n_lo=n_lo, width=width,
                           rng=np.random.default_rng(width))
        spec = EvolutionSpec(Params(eps, 1.0), sector, wt, eta=eta)
        reach = int(math.ceil(max(abs(psi.n_lo + delta),
                                  abs(psi.n_hi + delta))))
        m0 = self._band(spec) + reach + 1
        assert m0 != self._node_count(spec, psi)
        const, samples = _kernel_theta(spec, _Nodes(m0))
        ref = CircleState(sector, n_lo, const * psi.coeffs
                          * np.fft.ifft(samples)[psi.indices % m0])
        phi_out = np.array([-3.0, 0.4, 2.9, 7.5])
        err = np.max(np.abs(kernel_apply(spec, psi, phi_out)
                            - ref.evaluate(phi_out)))
        assert err < 1e-14 * np.sum(np.abs(psi.coeffs))

    @pytest.mark.parametrize("wt", [0.7, 12.0])
    def test_far_window_matches_damped_propagate(self, wt):
        # at n_lo = 1e6 the node count was ~1e6 (about 0.7 s a call) for
        # outputs below 1e-16; the cap keeps it at the kernel's own band
        coeffs = [0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j]
        phi_out = np.linspace(0, 2 * math.pi, 7, endpoint=False)
        err = self._apply_error(1.0, 1e-4, 0.25, wt, 10 ** 6, coeffs, phi_out)
        assert err < 1e-12

    def test_window_at_two_to_the_forty_is_zero(self):
        # CircleState allows |n_lo| up to 2^53; there the node count once
        # grew with n_lo itself
        sector = Sector(0.25)
        psi = random_state(sector, n_lo=2 ** 40, width=4,
                           rng=np.random.default_rng(5))
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 3.0, eta=1e-4)
        vals = kernel_apply(spec, psi, np.array([0.0, 1.0, -2.5]))
        bound = math.exp(-40) * np.sum(np.abs(psi.coeffs))
        assert np.max(np.abs(vals)) <= bound

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-4.0, 0.0), st.floats(0.5, 2.0), st.floats(0.0, 0.999),
           st.floats(math.log10(0.05), math.log10(20.0)),
           st.integers(-500, 500),
           st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=1, max_size=30),
           st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    def test_matches_damped_propagate_hypothesis(self, log_damping, eps, delta,
                                                 log_t, n_lo, pairs, phi_out):
        # eps omega eta over [1e-4, 1], any window within 500 of the origin
        coeffs = [complex(re, im) for re, im in pairs]
        if max(abs(c) for c in coeffs) < 1e-3:
            return
        eta, t = 10.0 ** log_damping / eps, 10.0 ** log_t
        err = self._apply_error(eps, eta, delta, t, n_lo, coeffs,
                                np.array(phi_out))
        # both sides round the phase eps t (n+delta)^2/2 to ~1e-16 of
        # itself, and the damping leaves at most (t/eta)/e of it in play
        assert err < 1e-12 + 1e-15 * t / eta

    @staticmethod
    def _band(spec):
        """ceil(B), B = sqrt(80/(eps omega eta)): past it the kernel's
        coefficients are below exp(-40)."""
        eps_omega_eta = spec.params.epsilon * spec.params.omega * spec.eta
        return int(math.ceil(math.sqrt(80.0 / eps_omega_eta)))

    @classmethod
    def _node_count(cls, spec, psi):
        """kernel_apply's documented m: the least length with no prime
        factor above 7 at or above ceil(B) + min(ceil(R), ceil(B)) + 1, R =
        max |n + delta| over the window."""
        delta = spec.sector.delta
        band = cls._band(spec)
        reach = int(math.ceil(max(abs(psi.n_lo + delta),
                                  abs(psi.n_hi + delta))))
        m = band + min(reach, band) + 1
        while not _seven_smooth(m):
            m += 1
        return m

    @pytest.mark.parametrize("eps,delta,wt,eta,n_lo,width", [
        (1.0, 0.3, 0.7, 1e-2, -2, 5),      # Gaussian face
        (0.5, 0.7, 20.0, 2e-3, -3, 9),     # series face, |q| = 0.9995
        (1.0, 0.25, 12.0, 1e-2, 400, 3),   # series face, |q| = 0.995, far window
        (2.0, 0.45, 3.0, 1e-1, -10, 21),
        (1.3, 0.0, 0.05, 5e-2, 0, 1)])
    def test_weights_are_the_rotated_trapezoid_rule(self, eps, delta, wt, eta,
                                                    n_lo, width):
        # output phi is (1/m) sum_j K(phi - phi_j) psi(phi_j) over the nodes
        # phi_j = phi + 2 pi j/m, summed here from kernel and evaluate
        sector = Sector(delta)
        psi = random_state(sector, n_lo=n_lo, width=width,
                           rng=np.random.default_rng(width))
        spec = EvolutionSpec(Params(eps, 1.0), sector, wt, eta=eta)
        m = self._node_count(spec, psi)
        # window indices past ceil(B) are dropped (their kernel coefficient
        # is below exp(-40)); the rule integrates the rest
        kept = CircleState(sector, n_lo, np.where(
            np.abs(psi.indices + delta) <= self._band(spec), psi.coeffs, 0.0))
        phi_out = np.array([-3.0, 0.4, 2.9, 7.5])
        vals = kernel_apply(spec, psi, phi_out)
        for phi, val in zip(phi_out, vals):
            nodes = phi + np.arange(m) * (2.0 * math.pi / m)
            ref = np.mean(kernel(spec, phi - nodes) * kept.evaluate(nodes))
            assert abs(val - ref) < 1e-13 * psi.norm()

    @pytest.mark.parametrize("t,delta", [(0.9, 0.2), (3.3, 0.7)])
    def test_theta_samples_sit_on_the_exact_nodes(self, t, delta):
        # the m samples are theta at the exact angles -2 pi j/m, so their
        # inverse FFT gives the kernel's Fourier coefficients exp(-i eps T
        # (k^2 + 2 k delta)/2) (times the fused modulus) to rounding; with
        # the angles rounded to doubles first they were off by ~1e-13 at
        # eps omega eta = 1e-6
        eta = 1e-6
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(delta), t, eta=eta)
        m = int(math.ceil(math.sqrt(80.0 / eta))) + 3
        const, samples = _kernel_theta(spec, _Nodes(m))
        coeffs = np.fft.ifft(samples)
        big_t = complex(t, -eta)
        k = np.arange(-3, 4)
        exact = np.exp(0.5 * delta * delta * big_t.imag
                       - 0.5j * big_t * (k * k + 2 * k * delta))
        assert np.max(np.abs(coeffs[k % m] - exact)) < 2e-14

    def test_one_theta_sample_set_per_call(self, monkeypatch):
        # the theta factor is sampled on m angles once per call, however
        # many outputs, and an output does not depend on the others' bits
        sector = Sector(0.35)
        psi = random_state(sector, n_lo=-4, width=11,
                           rng=np.random.default_rng(3))
        spec = EvolutionSpec(Params(0.8, 1.0), sector, 2.1, eta=1e-3)
        m = self._node_count(spec, psi)
        sizes = self._counted_nodes(monkeypatch)
        phi_out = np.random.default_rng(4).uniform(-20.0, 20.0, 64)
        single = kernel_apply(spec, psi, phi_out[5])
        assert sizes == [m]
        batch = kernel_apply(spec, psi, phi_out)
        assert sizes == [m, m]
        assert single == batch[5]
        for i, phi in enumerate(phi_out):
            assert kernel_apply(spec, psi, phi) == batch[i]
            assert kernel_apply(spec, psi, phi_out[i:i + 1])[0] == batch[i]

    def test_far_output_angles_match_spectral_sum(self):
        # the theta factor is sampled at -2 pi j/m whatever the outputs, so
        # a far output angle costs only the rounding of its own phases:
        # 1.2e-9 here, against 2.9e-8 for a theta sampled at phi - phi_j
        sector = Sector(0.3)
        coeffs = np.array([0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j, 0.1, -0.6j])
        psi = CircleState(sector, -1, coeffs)
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 4.0, eta=1e-4)
        phi_out = np.array([1e6 + 0.3, -3e7])
        ref = _flow_sum_mp(1.0, 0.3, complex(4.0, -1e-4), -1, coeffs, phi_out)
        err = np.max(np.abs(kernel_apply(spec, psi, phi_out) - ref))
        assert err < 1.2e-8 * psi.norm()

    def test_delta_limit_convergence_sweep(self):
        # as t -> 0 (eta = t/100) the kernel approaches the reproducing
        # delta-functional: convolution against a fixed smooth state
        # converges to the state's value
        sector = Sector(0.3)
        psi = CircleState(sector, -1,
                          np.array([0.5, 1.0, 0.5 + 0.5j])).normalized()
        phi0 = 1.1
        errors = []
        for wt in (1e-2, 1e-3, 1e-4):
            spec = EvolutionSpec(Params(1.0, 1.0), sector, wt, eta=wt / 100)
            val = kernel_apply(spec, psi, phi0)
            errors.append(abs(val - psi.evaluate(phi0)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-3


class TestEvolveW:
    def test_zero_time_matches_family(self):
        params = WZParams(1.0, Sector(0.4))
        z = PhasePoint(0.8, 0.5)
        spec = EvolutionSpec(Params(1.0, 1.0), Sector(0.4), 0.0)
        phi = np.linspace(0, 2 * math.pi, 9)
        vals = evolve_w(spec, z)(phi)
        ref = w_value(params, z, phi)
        assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_zero_time_is_w_value_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            eps, delta = 10 ** rng.uniform(-2, 0.5), rng.uniform(0, 1)
            z = PhasePoint(rng.uniform(0, 2 * math.pi), rng.uniform(-4, 4))
            spec = EvolutionSpec(Params(eps, rng.uniform(0.5, 2)),
                                 Sector(delta), 0.0)
            phi = rng.uniform(0, 2 * math.pi, 7)
            with np.errstate(all="ignore"):
                vals = evolve_w(spec, z)(phi)
                ref = w_value(WZParams(eps, Sector(delta)), z, phi)
            assert np.array_equal(vals, ref, equal_nan=True)

    def test_raw_label_reduced_like_phase_point(self):
        # a complex label is taken modulo 2 pi in its real part, as by
        # PhasePoint; the value moves only at rounding
        spec = EvolutionSpec(Params(0.7, 1.0), Sector(0.3), 1.1)
        phi = np.linspace(0, 2 * math.pi, 9)
        raw = complex(0.4 + 6 * math.pi, 0.5)
        a = evolve_w(spec, raw)(phi)
        b = evolve_w(spec, PhasePoint(0.4, 0.5))(phi)
        assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("delta,wt", [(0.0, 1.0), (0.4, 1.0), (0.4, 2.7)])
    def test_matches_spectral_propagation(self, delta, wt):
        eps = 1.0
        params = WZParams(eps, Sector(delta))
        z = PhasePoint(1.2, 0.6)
        spec = EvolutionSpec(Params(eps, 1.0), Sector(delta), wt)
        closed = evolve_w(spec, z)
        spectral = propagate(spec, w_state(params, z, window_tol=1e-15))
        phi = np.linspace(0, 2 * math.pi, 13)
        a = closed(phi)
        b = spectral.evaluate(phi)
        assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(b))

    def test_delta_zero_only_nome_moves(self):
        # the theta argument keeps theta fixed at delta = 0: the evolved
        # state at phi equals the family form with the original z but the
        # rotated nome
        eps, wt = 1.0, 1.5
        spec = EvolutionSpec(Params(eps, 1.0), Sector(0.0), wt)
        z = PhasePoint(0.7, 0.3)
        from circleqm.specfun import ThetaNome, theta
        nome_t = ThetaNome.from_q(cmath.exp(-0.5 * eps * (1 + 1j * wt)))
        phi = np.linspace(0, 2 * math.pi, 7)
        ref = theta(3, (phi - z.z) / 2.0, nome_t)
        vals = evolve_w(spec, z)(phi)
        assert np.max(np.abs(vals - ref)) < 1e-12 * np.max(np.abs(ref))


class TestEvolveMin:
    def test_zero_time_matches_family(self):
        p = MinUncParams(0.4, 1.3, 0.6, 0.9)
        spec = EvolutionSpec(Params(1.0, 1.0), p.sector, 0.0)
        out = evolve_min(spec, p)
        ref = min_state(p)
        assert np.max(np.abs(out.coeffs - ref.coeffs)) < 1e-15

    def test_magnitudes_invariant(self):
        p = MinUncParams(0.0, 0.3, 0.2, 1.1)
        spec = EvolutionSpec(Params(0.8, 1.0), p.sector, 2.2)
        out = evolve_min(spec, p)
        ref = min_state(p)
        assert np.max(np.abs(np.abs(out.coeffs) - np.abs(ref.coeffs))) < 1e-15

    @pytest.mark.parametrize("wt", [0.4, 1.7, 5.0])
    def test_matches_spectral_propagation(self, wt):
        p = MinUncParams(0.9, 2.3, 0.5, 0.8)
        spec = EvolutionSpec(Params(1.0, 1.0), p.sector, wt)
        out = evolve_min(spec, p)
        ref = propagate(spec, min_state(p))
        assert out.n_lo == ref.n_lo
        assert np.array_equal(out.coeffs, ref.coeffs)

    def test_refuses_phase_past_2_52(self):
        p = MinUncParams(0.9, 2.3, 0.5, 0.8)
        spec = EvolutionSpec(Params(1.0, 1.0), p.sector, 1e16)
        with pytest.raises(ValueError, match="2\\^52"):
            evolve_min(spec, p)

    def test_momentum_constant_and_angle_disperses(self):
        # <L> is conserved; the angular distribution spreads at early times
        # (no rigid rotation once sigma != 0)
        p = MinUncParams(0.0, 0.0, 0.0, 1.5)
        sector = p.sector
        spread, mean_l = [], []
        for wt in (0.0, 0.3, 0.6, 1.0, 1.5):
            spec = EvolutionSpec(Params(1.0, 1.0), sector, wt)
            psi = evolve_min(spec, p).normalized()
            c_psi = apply_operator("C", psi)
            s_psi = apply_operator("S", psi)
            l_psi = apply_operator("L", psi)
            mean_c = inner(psi, c_psi).real
            mean_s = inner(psi, s_psi).real
            spread.append(1.0 - mean_c ** 2 - mean_s ** 2)
            mean_l.append(inner(psi, l_psi).real)
        assert all(b > a for a, b in zip(spread, spread[1:]))
        assert np.max(np.abs(np.diff(mean_l))) < 1e-12


class TestLargeTime:
    """At eps = 1, delta = 0.3, eta = 1e-2 and t = 1e7 the flow theta's
    argument (dphi - eps delta omega t)/2 lies 1.5e6 rad out; the kernel
    raised the term-budget ValueError there.  Rounding eps delta omega t =
    3e6 to double moves the argument by up to 2.3e-10, so the values carry
    ~2e-10 of their scale (seen: 1.8e-10 for the kernel, 1.4e-10 for w_z,
    4e-11 for kernel_apply in units of the kernel's scale); the bounds
    leave about 10x."""

    EPS, DELTA, ETA, T = 1.0, 0.3, 1e-2, 1e7
    PHI = np.array([-3.0, -0.4, 0.9, 2.5])

    def _spec(self):
        return EvolutionSpec(Params(self.EPS, 1.0), Sector(self.DELTA),
                             self.T, eta=self.ETA)

    @pytest.mark.parametrize("form", ["auto", "series", "gaussian"])
    def test_kernel_matches_spectral_sum(self, form):
        # "auto" is the kernel, the others its written-out faces
        # (`verify._kernel_faces`), which reduce tau and zeta by their
        # periods as the kernel does
        half = int(math.ceil(math.sqrt(83.0 / (self.EPS * self.ETA)))) + 2
        ref = _flow_sum_mp(self.EPS, self.DELTA, complex(self.T, -self.ETA),
                           -half, np.ones(2 * half + 1, dtype=complex),
                           self.PHI)
        unit = math.sqrt(2 * math.pi / (self.EPS * self.ETA))
        if form == "auto":
            vals = kernel(self._spec(), self.PHI)
        else:
            vals = _kernel_faces(self._spec(), self.PHI)[form == "gaussian"]
        assert np.max(np.abs(vals - ref)) < 2e-9 * unit

    def test_kernel_apply_matches_spectral_sum(self):
        coeffs = np.array([0.3 - 0.1j, 0.8 + 0.2j, -0.4 + 0.5j])
        psi = CircleState(Sector(self.DELTA), -1, coeffs)
        ref = _flow_sum_mp(self.EPS, self.DELTA, complex(self.T, -self.ETA),
                           -1, coeffs, self.PHI)
        unit = math.sqrt(2 * math.pi / (self.EPS * self.ETA))
        vals = kernel_apply(self._spec(), psi, self.PHI)
        assert np.max(np.abs(vals - ref)) < 4e-10 * unit * psi.norm()

    def test_evolve_w_matches_spectral_sum(self):
        z = PhasePoint(1.2, 0.6)
        n = np.arange(-40, 41)
        coeffs = fn_basis(WZParams(self.EPS, Sector(self.DELTA)), n, z)
        ref = _flow_sum_mp(self.EPS, self.DELTA, complex(self.T, 0.0),
                           int(n[0]), coeffs, self.PHI)
        vals = evolve_w(self._spec(), z)(self.PHI)
        assert np.max(np.abs(vals - ref)) < 1.5e-9 * np.max(np.abs(ref))


class TestPhaseLimit:
    @pytest.mark.parametrize("call", ["kernel", "kernel_apply", "evolve_w"])
    def test_theta_entry_points_refuse_phase_past_2_52(self, call):
        # the kernel series' time phases eps omega t (n+delta)^2 / 2 pass
        # 2^52 rad at t = 1e17, as propagate's do; these calls returned
        # noise there, and still return values at t = 20
        sector = Sector(0.3)
        state = random_state(sector)
        run = {"kernel": lambda spec: kernel(spec, 0.4),
               "kernel_apply": lambda spec: kernel_apply(spec, state, 0.4),
               "evolve_w": lambda spec: evolve_w(spec, 0.3 + 0.5j)(0.4)}[call]
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 20.0, eta=1e-2)
        assert cmath.isfinite(run(spec))
        spec = EvolutionSpec(Params(1.0, 1.0), sector, 1e17, eta=1e-2)
        with pytest.raises(ValueError, match="2\\^52"):
            run(spec)

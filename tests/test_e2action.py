"""Group law, symplectic action, transitivity and induced vector fields."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from circleqm.e2action import (
    GroupElement,
    PhaseSpacePoint,
    act,
    compose,
    identity,
    induced_fields,
    poisson_bracket,
    solve_transporter,
    symplectic_residual,
)

RNG = np.random.default_rng(11)


def random_element(rng=RNG):
    return GroupElement(rng.uniform(-6, 6),
                        complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))


def random_point(rng=RNG):
    return PhaseSpacePoint(rng.uniform(0, 2 * math.pi), rng.uniform(-5, 5))


class TestFiniteLabels:
    # alpha % 2 pi and phi % 2 pi turned +-inf into nan, and act() then
    # returned a nan point
    @pytest.mark.parametrize("group,cover_q", [("base", 1), ("cover", 3),
                                               ("universal", None)])
    @pytest.mark.parametrize("alpha,t", [
        (math.inf, 0j), (-math.inf, 0j), (math.nan, 0j),
        (0.0, complex(math.inf, 0.0)), (0.0, complex(0.0, math.nan))])
    def test_group_element_rejects_non_finite(self, group, cover_q, alpha, t):
        with pytest.raises(ValueError, match="finite"):
            GroupElement(alpha, t, cover_q)

    @pytest.mark.parametrize("phi,p", [(math.inf, 0.1), (math.nan, 0.1),
                                       (0.3, -math.inf)])
    def test_point_rejects_non_finite(self, phi, p):
        with pytest.raises(ValueError, match="finite"):
            PhaseSpacePoint(phi, p)


class TestCompose:
    def test_identity(self):
        g = random_element()
        h = compose(identity(), g)
        assert h.alpha == pytest.approx(g.alpha, abs=1e-15)
        assert abs(h.t - g.t) < 1e-15

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g, h, k = (random_element(rng) for _ in range(3))
            lhs = compose(g, compose(h, k))
            rhs = compose(compose(g, h), k)
            assert abs(lhs.alpha - rhs.alpha) < 1e-13
            assert abs(lhs.t - rhs.t) < 1e-13

    def test_universal_cover_no_reduction(self):
        g = GroupElement(3 * math.pi, 0j, cover_q=None)
        h = compose(g, g)
        assert h.alpha == pytest.approx(6 * math.pi)

    def test_base_mode_reduces(self):
        g = GroupElement(3 * math.pi, 0j)
        assert g.alpha == pytest.approx(math.pi)

    def test_qfold_cover_mode(self):
        g = GroupElement(5 * math.pi, 0j, cover_q=3)
        assert g.alpha == pytest.approx(5 * math.pi)
        h = compose(g, g)
        assert h.alpha == pytest.approx(10 * math.pi - 6 * math.pi)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="covering orders"):
            compose(GroupElement(0.0, 0j, None), GroupElement(0.0, 0j))
        with pytest.raises(ValueError, match="covering orders"):
            compose(GroupElement(0.0, 0j, 2), GroupElement(0.0, 0j, 3))

    def test_base_group_spelled_either_way_composes(self):
        # a default element and one given cover_q=1 are both in E(2); two
        # covering fields used to make compose refuse the pair
        h = compose(GroupElement(4.0, 1j), GroupElement(3.0, 0.5, cover_q=1))
        assert h.cover_q == 1
        assert h.alpha == (3.0 + 4.0) % (2 * math.pi)
        assert GroupElement(7.0, 0j, np.int64(2)).alpha == 7.0

    @pytest.mark.parametrize("cover_q", [
        0, -1, -2, 2.5, 2.0, True, np.bool_(True), np.float64(3.0),
        np.int64(0), "3"])
    def test_bad_covering_rejected(self, cover_q):
        with pytest.raises(ValueError, match="covering order"):
            GroupElement(1.0, 0j, cover_q)

    def test_inverse(self):
        g = random_element()
        ginv = GroupElement(-g.alpha, -np.exp(-1j * g.alpha) * g.t)
        h = compose(ginv, g)
        assert h.alpha % (2 * math.pi) == pytest.approx(0.0, abs=1e-13)
        assert abs(h.t) < 1e-13


class TestRecordContract:
    # the records validate in one hand-written __init__ and keep the
    # generated dataclass behaviour
    def test_fields_and_default(self):
        assert [f.name for f in dataclasses.fields(GroupElement)] == [
            "alpha", "t", "cover_q"]
        assert dataclasses.fields(GroupElement)[2].default == 1
        assert [f.name for f in dataclasses.fields(PhaseSpacePoint)] == [
            "phi", "p_phi"]
        g = GroupElement(1.0, 2)
        assert (g.alpha, g.t, g.cover_q) == (1.0, 2 + 0j, 1)
        assert type(g.alpha) is float and type(g.t) is complex

    def test_eq_hash_and_repr(self):
        g, h = GroupElement(1.0, 2j), GroupElement(1.0 + 2 * math.pi, 2j)
        assert g == h and hash(g) == hash(h)
        assert g != GroupElement(1.0, 2j, None)
        assert repr(g) == "GroupElement(alpha=1.0, t=2j, cover_q=1)"
        s = PhaseSpacePoint(7.0, 3)
        assert s == PhaseSpacePoint(7.0 - 2 * math.pi, 3.0)
        assert hash(s) == hash(PhaseSpacePoint(7.0 - 2 * math.pi, 3.0))
        assert repr(s) == f"PhaseSpacePoint(phi={7.0 - 2 * math.pi!r}, p_phi=3.0)"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GroupElement(1.0, 2j).alpha = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            PhaseSpacePoint(1.0, 2.0).p_phi = 0.0

    def test_replace_validates(self):
        g = dataclasses.replace(GroupElement(1.0, 2j), alpha=7.0)
        assert g == GroupElement(7.0, 2j)
        assert dataclasses.replace(g, cover_q=None) == GroupElement(
            7.0 - 2 * math.pi, 2j, None)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(PhaseSpacePoint(1.0, 2.0), p_phi=math.nan)

    def test_numpy_integer_accepted_bool_refused(self):
        g = GroupElement(7.0, 0j, np.int64(2))
        assert g.cover_q == 2 and g.alpha == 7.0
        g = GroupElement(-0.5, 2j, np.int64(3))
        assert g.alpha == (-0.5) % (6.0 * math.pi) and g.t == 2j
        assert GroupElement(-0.5, 2j, None).alpha == -0.5
        with pytest.raises(ValueError, match="covering order"):
            GroupElement(7.0, 0j, False)

    @pytest.mark.parametrize("cover_q", [10 ** 400, 10 ** 308, 2 ** 1023])
    def test_unrepresentable_cover_refused(self, cover_q):
        # 2 pi q past double range used to raise OverflowError, or blame a
        # finite alpha after (-1.0) % inf
        with pytest.raises(ValueError, match="covering order"):
            GroupElement(-1.0, 0j, cover_q)

    def test_largest_cover_accepted(self):
        q = int(np.finfo(float).max / (2 * math.pi)) // 2
        assert GroupElement(5.0, 0j, q).alpha == 5.0

    @pytest.mark.parametrize("cover_q", [1, 3, None])
    def test_angle_endpoint_folds_to_zero(self, cover_q):
        # -1e-17 % 2 pi q rounds up to 2 pi q itself, the excluded end of
        # [0, 2 pi q): it is the identity rotation
        g = GroupElement(-1e-17, 0j, cover_q)
        if cover_q is None:
            assert g.alpha == -1e-17
        else:
            assert g.alpha == 0.0 and g == GroupElement(0.0, 0j, cover_q)
        assert GroupElement(-1e-10, 0j).alpha == 2 * math.pi - 1e-10
        assert PhaseSpacePoint(-1e-17, 0.0).phi == 0.0
        assert PhaseSpacePoint(-1e-17, 0.0) == PhaseSpacePoint(0.0, 0.0)
        assert PhaseSpacePoint(-1e-10, 0.0).phi == 2 * math.pi - 1e-10

    def test_compose_bits_match_numpy_exp(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            g2, g1 = random_element(rng), random_element(rng)
            t = g2.t + complex(np.exp(1j * g2.alpha)) * g1.t
            h = compose(g2, g1)
            assert h == GroupElement(g1.alpha + g2.alpha, t)


def _bits(x):
    """Every bit of a float or complex, signed zeros included."""
    return tuple(float(v).hex() for v in (complex(x).real, complex(x).imag))


def _folded(x, period):
    x %= period
    return 0.0 if x == period else x


class TestWrittenOutFormulas:
    # each action gives, bit for bit, its formula evaluated in the same
    # order of float operations
    TURN = 2.0 * math.pi

    def draws(self, seed, n=1500):
        rng = np.random.default_rng(seed)
        for i in range(n):
            cover_q = (1, 3, None)[i % 3]
            g1, g2 = (GroupElement(rng.uniform(-9, 9),
                                   complex(*rng.uniform(-3, 3, 2)), cover_q)
                      for _ in range(2))
            yield g1, g2, random_point(rng), random_point(rng)

    def test_act(self):
        for g, _, s, _ in self.draws(41):
            phi = s.phi + g.alpha
            p = s.p_phi + g.t.real * math.sin(phi) - g.t.imag * math.cos(phi)
            out = act(g, s)
            assert _bits(out.phi) == _bits(_folded(phi, self.TURN))
            assert _bits(out.p_phi) == _bits(p)

    def test_compose(self):
        for g1, g2, _, _ in self.draws(43):
            alpha = g1.alpha + g2.alpha
            if g1.cover_q is not None:
                alpha = _folded(alpha, self.TURN * g1.cover_q)
            t = g2.t + cmath.exp(1j * g2.alpha) * g1.t
            h = compose(g2, g1)
            assert _bits(h.alpha) == _bits(alpha) and _bits(h.t) == _bits(t)
            assert h.cover_q == g1.cover_q

    def test_solve_transporter(self):
        for _, _, s1, s2 in self.draws(47):
            alpha = (s2.phi - s1.phi) % self.TURN
            dp = s2.p_phi - s1.p_phi
            sin2, cos2 = math.sin(s2.phi), math.cos(s2.phi)
            t = (complex(dp / sin2, 0.0) if abs(sin2) >= abs(cos2)
                 else complex(0.0, -dp / cos2))
            g = solve_transporter(s1, s2)
            assert _bits(g.alpha) == _bits(_folded(alpha, self.TURN))
            assert _bits(g.t) == _bits(t) and g.cover_q == 1

    def test_symplectic_residual(self):
        h = 1e-30
        for g, _, s, _ in self.draws(53):
            a, b = g.t.real, g.t.imag
            z = complex(s.phi, h) + g.alpha
            dp_dphi = (s.p_phi + a * cmath.sin(z) - b * cmath.cos(z)).imag / h
            x = s.phi + g.alpha
            w = complex(s.p_phi, h) + a * math.sin(x) - b * math.cos(x)
            det = z.imag / h * (w.imag / h) - x.imag / h * dp_dphi
            assert _bits(symplectic_residual(g, s)) == _bits(abs(det - 1.0))


class TestAct:
    def test_identity_fixes_points(self):
        s = random_point()
        out = act(identity(), s)
        assert out.phi == pytest.approx(s.phi)
        assert out.p_phi == pytest.approx(s.p_phi)

    def test_full_rotation_in_center(self):
        g = GroupElement(2 * math.pi, 0j, cover_q=None)
        for _ in range(10):
            s = random_point()
            out = act(g, s)
            assert out.phi == pytest.approx(s.phi, abs=1e-12)
            assert out.p_phi == pytest.approx(s.p_phi, abs=1e-12)

    def test_homomorphism_random(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(10_000):
            g2, g1 = random_element(rng), random_element(rng)
            s = random_point(rng)
            via_compose = act(compose(g2, g1), s)
            via_steps = act(g2, act(g1, s))
            dphi = abs((via_compose.phi - via_steps.phi + math.pi)
                       % (2 * math.pi) - math.pi)
            dp = abs(via_compose.p_phi - via_steps.p_phi)
            worst = max(worst, dphi, dp)
        assert worst < 1e-12


class TestTransporter:
    def test_same_point(self):
        s = random_point()
        g = solve_transporter(s, s)
        assert g.alpha == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn(self):
        g = solve_transporter(PhaseSpacePoint(0.0, 0.0),
                              PhaseSpacePoint(math.pi / 2, 1.0))
        assert g.alpha == pytest.approx(math.pi / 2)
        assert g.a == pytest.approx(1.0)
        assert g.b == pytest.approx(0.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            s1, s2 = random_point(rng), random_point(rng)
            out = act(solve_transporter(s1, s2), s1)
            dphi = abs((out.phi - s2.phi + math.pi) % (2 * math.pi) - math.pi)
            assert dphi < 1e-12
            assert abs(out.p_phi - s2.p_phi) < 1e-12

    @pytest.mark.parametrize("phi2", [1e-7, math.pi - 1e-7, 2e-8])
    def test_translation_bounded(self, phi2):
        # the branch is chosen by the larger of |sin phi2| and |cos phi2|,
        # so |t| <= sqrt(2) |dp| and the round trip stays at rounding level
        s1, s2 = PhaseSpacePoint(1.0, 0.3), PhaseSpacePoint(phi2, 4.0)
        g = solve_transporter(s1, s2)
        assert abs(g.t) <= math.sqrt(2.0) * 3.7 * (1 + 1e-15)
        assert abs(act(g, s1).p_phi - 4.0) < 1e-14

    def test_branch_at_sin_zero(self):
        # phi2 on the sin-zero line forces the b-branch
        s1 = PhaseSpacePoint(1.0, 0.3)
        s2 = PhaseSpacePoint(0.0, 2.0)
        g = solve_transporter(s1, s2)
        assert g.a == 0.0
        out = act(g, s1)
        assert out.p_phi == pytest.approx(2.0, abs=1e-12)


class TestSymplectic:
    def test_identity_zero(self):
        assert symplectic_residual(identity(), random_point()) < 1e-10

    def test_rotation_only(self):
        g = GroupElement(1.234, 0j)
        assert symplectic_residual(g, random_point()) < 1e-10

    def test_random_grid(self):
        rng = np.random.default_rng(31)
        worst = max(symplectic_residual(random_element(rng), random_point(rng))
                    for _ in range(100))
        assert worst < 1e-9

    def test_complex_step_at_rounding_level(self):
        # the complex-step Jacobian takes no difference, so the residual
        # is rounding, not finite-difference noise of ~1e-9
        rng = np.random.default_rng(37)
        worst = max(symplectic_residual(random_element(rng), random_point(rng))
                    for _ in range(2000))
        assert worst < 1e-14


class TestInducedFields:
    def test_x1_vanishes_at_phi_zero(self):
        fields = induced_fields(PhaseSpacePoint(0.0, 1.7))
        assert abs(fields["X1"][0]) < 1e-8
        assert abs(fields["X1"][1]) < 1e-8

    def test_x1_at_quarter_circle(self):
        fields = induced_fields(PhaseSpacePoint(math.pi / 2, 0.4))
        assert fields["X1"][0] == pytest.approx(0.0, abs=1e-8)
        assert fields["X1"][1] == pytest.approx(-1.0, abs=1e-8)

    def test_matches_hamiltonian_fields(self):
        # X1 = (0, -sin phi), X2 = (0, cos phi), L = (-1, 0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = random_point(rng)
            fields = induced_fields(s)
            assert fields["X1"][1] == pytest.approx(-math.sin(s.phi), abs=1e-8)
            assert fields["X2"][1] == pytest.approx(math.cos(s.phi), abs=1e-8)
            assert fields["L"][0] == pytest.approx(-1.0, abs=1e-8)
            assert fields["L"][1] == pytest.approx(0.0, abs=1e-8)

    def test_poisson_brackets_close(self):
        # {p, cos} = sin, {p, sin} = -cos, {cos, sin} = 0
        f1 = lambda phi, p: math.cos(phi)
        f2 = lambda phi, p: math.sin(phi)
        f3 = lambda phi, p: p
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_point(rng)
            assert poisson_bracket(f3, f1, s) == pytest.approx(
                math.sin(s.phi), abs=1e-10)
            assert poisson_bracket(f3, f2, s) == pytest.approx(
                -math.cos(s.phi), abs=1e-10)
            assert poisson_bracket(f1, f2, s) == pytest.approx(0.0, abs=1e-10)

    def test_field_commutators_structure_constants(self):
        # [L, X1] = X2, [L, X2] = -X1, [X1, X2] = 0 via finite differences
        # of the induced field components
        h = 1e-4

        def field(name, s):
            return np.array(induced_fields(s)[name])

        def commutator(na, nb, s):
            # (Xa . grad) Xb - (Xb . grad) Xa, derivatives by central diffs
            def directional(nb_, va, pt):
                sp = PhaseSpacePoint(pt.phi + h * va[0], pt.p_phi + h * va[1])
                sm = PhaseSpacePoint(pt.phi - h * va[0], pt.p_phi - h * va[1])
                return (field(nb_, sp) - field(nb_, sm)) / (2 * h)

            va, vb = field(na, s), field(nb, s)
            return directional(nb, va, s) - directional(na, vb, s)

        rng = np.random.default_rng(13)
        for _ in range(10):
            s = random_point(rng)
            c1 = commutator("L", "X1", s)
            assert np.allclose(c1, field("X2", s), atol=1e-6)
            c2 = commutator("L", "X2", s)
            assert np.allclose(c2, -field("X1", s), atol=1e-6)
            c3 = commutator("X1", "X2", s)
            assert np.allclose(c3, 0.0, atol=1e-6)

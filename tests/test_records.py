"""The validated records: each is a frozen dataclass whose hand-written
`__init__` checks its arguments and writes every field once into the
instance `__dict__`.  Refusals, the angle folds, frozenness and the
generated eq, hash, repr, pickle, copy and `dataclasses.replace` are
checked here for all of them."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from circleqm.circlespace import CircleState, Sector
from circleqm.e2action import GroupElement, PhaseSpacePoint
from circleqm.mincs import MinUncParams
from circleqm.specfun import ThetaNome
from circleqm.zakcs import PhasePoint

# records with hashable fields, built from valid arguments
HASHABLE = {
    "group-base": lambda: GroupElement(7.5, 1 - 2j),
    "group-cover": lambda: GroupElement(-1.0, 0.5, 3),
    "group-numpy-cover": lambda: GroupElement(7.0, 1j, np.int64(3)),
    "group-universal": lambda: GroupElement(-20.0, 3j, None),
    "point": lambda: PhaseSpacePoint(-0.5, 2.0),
    "nome": lambda: ThetaNome(0.25 + 1.5j),
    "label": lambda: PhasePoint(7.0, -3.0),
    "min-params": lambda: MinUncParams(-1.0, 2.3, 0.5, 1.25),
}
ALL = dict(HASHABLE, state=lambda: CircleState(Sector(0.3), np.int64(-2),
                                               [1.0, 2j, -0.5]))


def _fields(record):
    return [(f.name, getattr(record, f.name))
            for f in dataclasses.fields(record)]


@pytest.mark.parametrize("make", ALL.values(), ids=ALL.keys())
class TestEveryRecord:
    def test_instance_dict_holds_exactly_the_fields(self, make):
        record = make()
        assert list(vars(record)) == [f.name for f in
                                      dataclasses.fields(record)]

    def test_frozen(self, make):
        record = make()
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)

    def test_replace_rebuilds_through_init(self, make):
        record = make()
        again = dataclasses.replace(record)
        assert type(again) is type(record)
        for (name, x), (_, y) in zip(_fields(record), _fields(again)):
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y) and y.dtype == complex
            else:
                assert type(x) is type(y) and repr(x) == repr(y), name

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    def test_clones_keep_every_field(self, make, clone):
        record = make()
        twin = clone(record)
        assert type(twin) is type(record) and repr(twin) == repr(record)
        for (_, x), (_, y) in zip(_fields(record), _fields(twin)):
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y)
            else:
                assert type(x) is type(y) and repr(x) == repr(y)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(twin, dataclasses.fields(twin)[0].name, 0)


@pytest.mark.parametrize("make", HASHABLE.values(), ids=HASHABLE.keys())
def test_eq_and_hash_survive_the_clones(make):
    record = make()
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record), dataclasses.replace(record), make()):
        assert twin == record and hash(twin) == hash(record)


def test_numpy_covering_order_stored_as_int():
    # alpha took the type of 2 pi q, an np.float64, from an np.int64 q
    record = HASHABLE["group-numpy-cover"]()
    assert type(record.alpha) is float and type(record.cover_q) is int
    assert repr(record) == repr(GroupElement(7.0, 1j, 3))


class TestRefusals:
    @pytest.mark.parametrize("tau,word", [
        (complex(0.0, -1.0), "Im\\(tau\\)"), (0.5, "Im\\(tau\\)"),
        (complex(0.0, 5e-324), "2\\^-1022"),
        (complex(math.nan, 1.0), "finite"), (complex(1.0, math.inf), "finite")])
    def test_nome_refusals(self, tau, word):
        with pytest.raises(ValueError, match=word):
            ThetaNome(tau)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_label_refuses_a_non_finite_angle(self, theta):
        with pytest.raises(ValueError, match="angle must be finite"):
            PhasePoint(theta, 1.0)

    def test_label_folds_its_angle(self):
        assert PhasePoint(-1e-17, 2).theta == 0.0
        label = PhasePoint(7.0, 2)
        assert label.theta == 7.0 - 2.0 * math.pi
        assert type(label.l_tilde) is float

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_min_params_name_the_non_finite_label(self, index, bad):
        args = [0.1, 2.3, 0.5, 1.25]
        args[index] = bad
        name = ("alpha", "l_tilde", "gamma", "s")[index]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            MinUncParams(*args)

    def test_min_params_fold_alpha_only(self):
        p = MinUncParams(-1e-17, -7.0, -8.0, -9.0)
        assert (p.alpha, p.l_tilde, p.gamma, p.s) == (0.0, -7.0, -8.0, -9.0)
        assert MinUncParams(7, 1, 2, 3).alpha == 7.0 - 2.0 * math.pi

    @pytest.mark.parametrize("n_lo", [np.bool_(False), True, 2.0, "1",
                                      2 ** 53, -2 ** 53, np.int64(2 ** 53)])
    def test_state_refuses_its_start_index(self, n_lo):
        with pytest.raises(ValueError, match="n_lo"):
            CircleState(Sector(0.0), n_lo, [1.0])

    def test_state_by_keyword(self):
        st = CircleState(coeffs=[1, 2], n_lo=np.int32(-3), sector=Sector(0.5))
        assert st.n_lo == -3 and type(st.n_lo) is int
        assert st.coeffs.dtype == complex and list(st.coeffs) == [1, 2]

    @pytest.mark.parametrize("coeffs", [[0.0, 0.0], [1e200, 1.0],
                                        [1e-300j, 0.0]],
                             ids=["zero", "past-range", "underflow"])
    def test_normalized_refuses_a_norm_it_cannot_divide_out(self, coeffs):
        # inf / inf and 0 / 0 used to give zeros or nan with a warning
        with pytest.raises(ValueError, match="norm"):
            CircleState(Sector(0.3), -1, coeffs).normalized()

    def test_normalized_at_the_edges_of_range(self):
        for c in ([1e150, 1e150], [1e-150, 0.0]):
            out = CircleState(Sector(0.3), -1, c).normalized()
            assert out.norm() == pytest.approx(1.0, abs=1e-15)

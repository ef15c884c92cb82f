"""`base.Record`, the base of the library's immutable records."""

from fractions import Fraction as F

import pytest

from slopecalc.bc import BCObject, HeightRank
from slopecalc.filtration import HodgeData
from slopecalc.hn import HNStep, Verdict
from slopecalc.isocrystal import PhiModule
from slopecalc.base import Dimension, Record, rat_str
from slopecalc.sheaf import QuotientDim

ROW = ((F(1), F(0)),)


def _module():
    return PhiModule.from_matrices(2, [[0, 2], [1, 0]])


def _flag():
    return HodgeData.from_flag([(0, [[1, 0], [0, 1]]), (1, [[0, 1]])], rank=2)


class One(Record):
    x: int


class Other(Record):
    x: int


class TestEquality:
    def test_false_across_classes_with_the_same_fields(self):
        assert One(1) == One(1) and One(1) != Other(1)
        assert One(1).__eq__(Other(1)) is NotImplemented
        assert Dimension(1, 2) != QuotientDim(1, 2, False)
        assert HeightRank(1, True) != (1, True)

    @pytest.mark.parametrize("make", [
        lambda: Verdict("certified-false", ROW),
        lambda: HNStep(ROW, F(1, 2), 1, 1, F(1, 2)),
        _module,
        _flag,
        lambda: Dimension(3, -1),
        lambda: BCObject(qp=2),
    ], ids=["verdict", "hn-step", "phi-module", "hodge-flag", "dimension", "bc-object"])
    def test_equal_records_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)


class TestRepr:
    """The form the dataclass-generated `repr` gave."""

    def test_verdict(self):
        assert repr(Verdict("certified-false", ROW)) == (
            "Verdict(status='certified-false', witness=((Fraction(1, 1), Fraction(0, 1)),))"
        )

    def test_hn_step(self):
        assert repr(HNStep(ROW, F(1, 2), 1, 1, F(1, 2))) == (
            "HNStep(basis=((Fraction(1, 1), Fraction(0, 1)),), slope=Fraction(1, 2), "
            "rank=1, graded_rank=1, graded_degree=Fraction(1, 2))"
        )

    def test_phi_module(self):
        assert repr(_module()) == (
            "PhiModule(p=2, phi=RatMatrix[0 2; 1 0], nilpotent=RatMatrix[0 0; 0 0], form='matrix')"
        )

    def test_dimension(self):
        assert repr(Dimension(1, -2)) == "Dimension(dim=1, ht=-2)"


class TestImmutable:
    @pytest.mark.parametrize("record", [Verdict("certified-true"), Dimension(1, 2), _module()],
                             ids=["verdict", "dimension", "phi-module"])
    def test_assignment_and_deletion_raise(self, record):
        name = record._fields[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, before)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, "not_a_field", 1)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, name)
        assert getattr(record, name) is before


class TestArguments:
    def test_defaults_and_keywords(self):
        assert Verdict("certified-true").witness is None
        assert Verdict("certified-true") == Verdict(status="certified-true", witness=None)
        assert Verdict("certified-false", witness=ROW) == Verdict("certified-false", ROW)
        assert BCObject() == BCObject((), (), (), 0)
        assert BCObject(qp=2) == BCObject((), (), (), 2)
        assert HNStep(slope=F(1), basis=ROW, rank=1, graded_degree=F(1), graded_rank=1) == (
            HNStep(ROW, F(1), 1, 1, F(1)))

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),
        (("certified-true", None, 1), {}),
        (("certified-true",), {"status": "certified-true"}),
        ((), {"status": "certified-true", "proof": None}),
        ((), {"witness": None}),
    ], ids=["missing", "too-many", "repeated", "unexpected", "missing-with-keyword"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^Verdict\.__init__\(\) "):
            Verdict(*args, **kwargs)

    def test_post_init_runs_on_every_path(self):
        for build in (lambda: Verdict("bogus"), lambda: Verdict(status="bogus")):
            with pytest.raises(ValueError, match="bad verdict status 'bogus'"):
                build()

    def test_dimension_messages(self):
        with pytest.raises(ValueError, match="Dimension components must be integers, got 'a'"):
            Dimension(1, "a")
        with pytest.raises(ValueError, match="Dimension components must be integers, got True"):
            Dimension(True, 0)


class TestValuesOutsideTheFields:
    def test_tn_and_coeffs(self):
        m, twin = _module(), _module()
        before = (repr(m), hash(m))
        assert m.tn == 1 and m.coeffs == (F(-2), F(0), F(1))
        assert set(vars(m)) - set(m._fields) == {"tn", "coeffs"}
        assert "coeffs" not in vars(twin)
        assert (repr(m), hash(m)) == before and m == twin
        assert "tn=" not in before[0] and "coeffs=" not in before[0]

    def test_flag(self):
        h, twin = _flag(), _flag()
        before = (repr(h), hash(h))
        assert h.flag == ((1, ((F(0), F(1)),)),)
        assert "flag" in vars(h) and "flag" not in vars(twin)
        assert (repr(h), hash(h)) == before and h == twin
        assert "flag=" not in before[0]


class TestCompiledMethods:
    """A subclass compiles its own `__init__`, `==` and `hash` on first use."""

    def test_compiled_on_first_use(self):
        class Pair(Record):
            a: int
            b: int = 2

        assert not {"__init__", "__eq__", "__hash__"} & set(vars(Pair))
        assert Pair(1) == Pair(1, 2) == Pair(a=1, b=2) and Pair(1) != Pair(2)
        assert {"__init__", "__eq__", "__hash__"} <= set(vars(Pair))
        assert Pair.__init__.__qualname__.endswith("Pair.__init__")
        assert hash(Pair(1)) == hash((1, 2))

    def test_default_before_a_required_field_fails_at_first_construction(self):
        class Bad(Record):
            a: int = 0
            b: int

        with pytest.raises(SyntaxError):
            Bad(1, 2)


class TestToObj:
    @pytest.mark.parametrize("witness", [None, (), ((F(1), F(-1, 2)), (F(0), F(3)))],
                             ids=["none", "empty", "fraction-basis"])
    def test_a_verdict_writes_the_status_and_the_witness_rows_by_rat_str(self, witness):
        # the form `Verdict` once wrote by hand, before `Record.to_obj` wrote it
        rows = None if witness is None else [[rat_str(x) for x in row] for row in witness]
        assert "to_obj" not in vars(Verdict)
        assert Verdict("certified-false" if witness else "certified-true", witness).to_obj() == {
            "status": "certified-false" if witness else "certified-true", "witness": rows,
        }

"""Value semantics of the package's parameter and result classes, which are
plain classes rather than dataclasses: each keeps its constructor's order and
defaults, equality (and, where frozen, hashing) over its compared fields
only, and refuses assignment where frozen."""

import pytest

from tlab.complexes import ChainMap, ContinuantBuild, FormalComplex, FormalObject, K0Class, ValidationReport
from tlab.contpoly import IntPolynomial, QuantumTable
from tlab.fusion import BoundReport, FusionRing, Verdict
from tlab.rings import Triple, construct_ring
from tlab.sl2model import DegreeHomology, FiberParams, HomologyReport
from tlab.tldiag import NotExists, RotatabilityReport, Word

Q = construct_ring("Q")
TWO, THREE = Q.from_int(2), Q.from_int(3)
TRIPLE = Triple(Q, TWO, THREE)
UNIT = FormalComplex(TRIPLE, {0: FormalObject.unit()}, {})
OTHER = FormalComplex(TRIPLE, {0: FormalObject.of(Word.of("v^"))}, {})
XY = IntPolynomial({(1, 1): 1})
VEC = ("Vec", ("1",), 0, (0,), ((((0, 1),),),))


def case(cls, args, defaults=None, differ=None, uncompared=None, frozen=True, hashable=True):
    """args are positional; defaults the {field: value} of the arguments left
    out; differ an (index, value) that changes a compared field; uncompared
    the {index: value} of arguments that equality ignores."""
    return pytest.param(cls, args, defaults or {}, differ, uncompared or {}, frozen, hashable, id=cls.__name__)


CASES = [
    case(Word, [("^", "v")], differ=(0, ("v", "^"))),
    case(NotExists, [5, "binom(5,2) is not invertible", 2], differ=(2, 3)),
    case(RotatabilityReport, ["rotatable", 3, "why"], {"binomials_vanish": None, "cyclotomic_vanish": None},
         differ=(1, 4)),
    case(Triple, [Q, TWO, THREE], differ=(2, TWO)),
    case(QuantumTable, [TRIPLE, (Q.zero, Q.one), (Q.zero, Q.one)], differ=(1, (Q.one, Q.one))),
    case(FormalObject, [(Word.of("^v"), Word.empty())], differ=(0, (Word.empty(),))),
    case(ChainMap, [UNIT, OTHER], {"parts": {}}, differ=(1, UNIT), frozen=False),
    case(ContinuantBuild, [UNIT, 4, "lower", "^"], differ=(2, "upper"), frozen=False),
    case(K0Class, [XY, XY], differ=(1, IntPolynomial({(2, 0): 1}))),
    case(ValidationReport, [True, [], {0: (1, 1)}], differ=(1, ["d^2 != 0 out of degree 1"]), frozen=False),
    case(FiberParams, [Q, TWO], differ=(1, THREE)),
    case(DegreeHomology, [4, 1, 3, 2, 1], differ=(4, 0)),
    case(HomologyReport, [{0: DegreeHomology(1, 0, 1, 0, 1)}, 1, 1], {"certificate": "exact"},
         differ=(1, 2), uncompared={3: "Fp"}, hashable=False),
    case(FusionRing, list(VEC), {"aliases": {}}, differ=(0, "Vec2"), uncompared={5: {"one": "1"}}),
    case(Verdict, ["unbounded"], {"n": None, "reason": ""}, differ=(0, "inconclusive")),
    case(BoundReport, ["fib", "tau", (0, 1), 1.618, Verdict("strictly_bounded", 3), ((0, 1),), (), None, False],
         differ=(8, True)),
]


@pytest.mark.parametrize("cls, args, defaults, differ, uncompared, frozen, hashable", CASES)
def test_value_semantics(cls, args, defaults, differ, uncompared, frozen, hashable):
    a, b = cls(*args), cls(*args)
    for name, value in defaults.items():
        assert getattr(a, name) == value, name
    assert a == b and not a != b
    assert a != object() and a != args
    if differ is not None:
        index, value = differ
        changed = list(args)
        changed[index] = value
        assert a != cls(*changed) and not a == cls(*changed)
    full = list(args) + list(defaults.values())
    for index, value in uncompared.items():
        ignored = list(full)
        ignored[index] = value
        c = cls(*ignored)
        assert a == c and repr(a) != repr(c)
        if hashable:
            assert hash(a) == hash(c)
    name = next(iter(vars(a)))
    if frozen:
        if hashable:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1
        else:
            with pytest.raises(TypeError):
                hash(a)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            setattr(a, "extra", None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == b
    else:
        assert cls.__hash__ is None
        setattr(a, name, None)
        assert getattr(a, name) is None and a != b


def test_keyword_arguments_name_the_fields():
    assert Verdict(kind="unbounded", reason="r") == Verdict("unbounded", None, "r")
    assert FiberParams(ring=Q, q=TWO) == FiberParams(Q, TWO)
    assert HomologyReport({}, 0, 0, certificate="Fp").certificate == "Fp"


def test_the_reprs_of_dataclasses_are_kept():
    assert repr(Verdict("unbounded", 3, "x")) == "Verdict(kind='unbounded', n=3, reason='x')"
    assert repr(NotExists(5, "r", 2)) == "NotExists(n=5, reason='r', witness=2)"
    assert repr(Word.of("^v")) == str(Word.of("^v")) == "∧∨"
    assert repr(TRIPLE) == f"Triple({Q!r}, 2, 3)"
    params = FiberParams(Q, TWO)
    assert params.q_inverse == TWO.inverse()
    assert repr(params) == f"FiberParams(ring={Q!r}, q={TWO!r})"
    assert repr(HomologyReport({}, 0, 0)) == "HomologyReport(degrees={}, euler_terms=0, euler_homology=0, certificate='exact')"

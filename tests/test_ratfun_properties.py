"""Property and differential tests for Q, Q(t) and Q(t)(u) on integer
payloads, the depths 0, 1 and 2 of one arithmetic.

Field axioms and canonical-form uniqueness are checked with hypothesis;
Q is compared with fractions.Fraction, and reduced forms and gcds over Q(t)
and Q(t)(u) with sympy, both test-only oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlab.rings import _zgcd, _zlead, _zmul, construct_ring

Q = construct_ring("Q")
QT = construct_ring("ratfun:Q")
QTU = construct_ring("ratfun:ratfun:Q")
RINGS = {0: Q, 1: QT, 2: QTU}
SETTINGS = settings(max_examples=60, deadline=None)

small = st.integers(-4, 4)
# polynomials as {exponent tuple: coefficient}; exponents innermost first
poly0 = st.dictionaries(st.tuples(), st.integers(-60, 60), max_size=1)
poly1 = st.dictionaries(st.tuples(st.integers(0, 3)), small, max_size=4)
poly2 = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), small, max_size=4)
POLYS = {0: poly0, 1: poly1, 2: poly2}


def build(ring, terms):
    gens = [ring.generators()[name] for name in "tu"[: ring.depth]]
    acc = ring.zero
    for exps, c in terms.items():
        mono = ring.from_int(c)
        for g, e in zip(gens, exps):
            mono = mono * g**e
        acc = acc + mono
    return acc


def values(depth):
    """Random elements num/den of the depth-level ring, with den != 0."""
    ring = RINGS[depth]
    nonzero = POLYS[depth].filter(lambda d: any(d.values()))
    return st.builds(lambda n, d: build(ring, n) / build(ring, d), POLYS[depth], nonzero)


def int_content(poly, depth):
    if depth == 0:
        return abs(poly)
    return math.gcd(*(int_content(c, depth - 1) for c in poly)) if poly else 0


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_field_axioms(depth):
    ring = RINGS[depth]

    @SETTINGS
    @given(values(depth), values(depth), values(depth))
    def check(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero == a and a * ring.one == a
        assert (a - a).is_zero()
        if a.is_zero():
            assert a.inverse() is None
        else:
            assert (a * a.inverse()).is_one()
            assert (b / a) * a == b

    check()


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_canonical_form_is_unique(depth):
    unit = RINGS[depth].one.payload[1]

    ring = RINGS[depth]
    nonzero = POLYS[depth].filter(lambda d: any(d.values()))

    @SETTINGS
    @given(values(depth), values(depth), values(depth).filter(lambda v: not v.is_zero()), nonzero)
    def check(a, b, c, h):
        # the same value reached along different paths
        pairs = [(a * c / c, a), ((a + b) - b, a), (-(-a), a),
                 ((a + c) * (a - c), a * a - c * c), ((a * c + b * c) / c, a + b)]
        for x, y in pairs:
            assert x == y
            assert x.payload == y.payload
            assert hash(x) == hash(y)
        P, D = a.payload
        # any common factor, of either sign, is cancelled
        H = build(ring, h).payload[0]
        assert ring._canon(_zmul(P, H, depth), _zmul(D, H, depth)) == a.payload
        assert _zgcd(P, D, depth) == unit
        assert math.gcd(int_content(P, depth), int_content(D, depth)) == 1
        assert _zlead(D, depth) > 0

    check()


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_reduction_is_a_ring_map_where_defined(depth):
    ring = RINGS[depth]
    p, psi = ring.reduction()

    @SETTINGS
    @given(values(depth), values(depth))
    def check(a, b):
        x, y = psi(a.payload), psi(b.payload)
        if x is None or y is None:
            return
        assert psi((a + b).payload) == (x + y) % p
        assert psi((a * b).payload) == x * y % p
        if a:
            inverse = psi(a.inverse().payload)
            assert inverse is None or inverse * x % p == 1

    check()
    if depth:
        t = ring.generators()["t"]
        root = t - psi(t.payload)
    else:
        root = ring.from_int(p)
    assert psi(root.payload) == 0
    assert psi((1 / root).payload) is None


def test_rationals_match_fraction():
    """Q's pairs against fractions.Fraction, a test-only oracle."""
    numerators = st.integers(-10**20, 10**20)
    denominators = st.one_of(st.integers(-36, 36), numerators).filter(bool)

    def size(f: Fraction) -> int:
        return 0 if f == 1 else (abs(f.numerator) * f.denominator).bit_length()

    @SETTINGS
    @given(numerators, denominators, numerators, denominators)
    def check(n1, d1, n2, d2):
        a, b = Q.from_int(n1) / Q.from_int(d1), Q.from_int(n2) / Q.from_int(d2)
        fa, fb = Fraction(n1, d1), Fraction(n2, d2)
        cases = [(a, fa), (a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)]
        if fa:
            cases.append((a.inverse(), 1 / fa))
        else:
            assert a.inverse() is None
        for got, want in cases:
            assert got.payload == (want.numerator, want.denominator)
            assert str(got) == str(want)
            assert Q.size(got.payload) == size(want)

    check()


# -- sympy as an independent oracle -----------------------------------------

try:
    import sympy
except ImportError:  # the oracle is optional; the property tests above still run
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")
T, U = sympy.symbols("t u") if sympy else (None, None)


def to_sympy(poly, depth):
    if depth == 0:
        return sympy.Integer(poly)
    var = (T, U)[depth - 1]
    return sum((to_sympy(c, depth - 1) * var**i for i, c in enumerate(poly)), sympy.Integer(0))


def sympy_of(terms):
    return sum((c * T ** e[0] * (U ** e[1] if len(e) > 1 else 1) for e, c in terms.items()),
               sympy.Integer(0))


@needs_sympy
@pytest.mark.parametrize("depth", [1, 2])
def test_reduced_forms_match_sympy_cancel(depth):
    ring = RINGS[depth]
    nonzero = POLYS[depth].filter(lambda d: any(d.values()))

    @SETTINGS
    @given(POLYS[depth], nonzero, POLYS[depth], nonzero)
    def check(n1, d1, n2, d2):
        ours = build(ring, n1) / build(ring, d1) + build(ring, n2) / build(ring, d2)
        theirs = sympy.cancel(sympy_of(n1) / sympy_of(d1) + sympy_of(n2) / sympy_of(d2))
        num, den = sympy.fraction(theirs)
        P, D = (to_sympy(x, depth) for x in ours.payload)
        assert sympy.expand(P * den - num * D) == 0
        # sympy's reduced form and ours have the same degrees in every variable
        for var in (T, U)[:depth]:
            assert sympy.degree(P, var) == sympy.degree(num, var)
            assert sympy.degree(D, var) == sympy.degree(den, var)

    check()


@needs_sympy
@pytest.mark.parametrize("depth", [1, 2])
def test_gcd_matches_sympy(depth):
    ring = RINGS[depth]

    @SETTINGS
    @given(POLYS[depth], POLYS[depth], POLYS[depth])
    def check(f, g, h):
        # a common factor h makes the gcd non-trivial
        a = (build(ring, f) * build(ring, h)).payload[0]
        b = (build(ring, g) * build(ring, h)).payload[0]
        got = to_sympy(_zgcd(a, b, depth), depth)
        want = sympy.gcd(to_sympy(a, depth), to_sympy(b, depth))
        assert sympy.expand(got - want) == 0 or sympy.expand(got + want) == 0

    check()

"""Property and differential tests for cyclotomic and prime fields.

Field axioms, canonical-form uniqueness and the text round trip are checked
with hypothesis; Phi_m, products and inverses modulo Phi_m are compared
with sympy, a test-only oracle."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlab.rings import MAX_CYCLO_M, _is_prime, construct_ring, cyclotomic_polynomial, parse_element

CYCLO = ["cyclo:1", "cyclo:2", "cyclo:5", "cyclo:8", "cyclo:10", "cyclo:12", "cyclo:105"]
SPECS = CYCLO + ["Fp:2", "Fp:7", "Fp:101"]


SETTINGS = settings(max_examples=60, deadline=None)


def top_exponent(ring):
    """Exponents reach past deg Phi_m, so that reduction is exercised."""
    return 2 * (len(ring.modulus) - 1) + 2 if ring.kind == "cyclo" else 0


def terms(ring, size=5):
    """Polynomials in q as {exponent: coefficient}; constants over Fp."""
    return st.dictionaries(st.integers(0, top_exponent(ring)), st.integers(-9, 9), max_size=size)


def build(ring, poly):
    q = ring.generators().get("q", ring.one)
    acc = ring.zero
    for e, c in poly.items():
        acc = acc + ring.from_int(c) * q**e
    return acc


def values(ring, nonzero=False):
    """Random quotients n/d, d a binomial or 1 where it vanishes, so that
    denominators are non-trivial; 1 in place of 0 with nonzero."""

    def quotient(n, d):
        x = build(ring, n) / (build(ring, d) or ring.one)
        return ring.one if nonzero and not x else x

    return st.builds(quotient, terms(ring), terms(ring, 2))


def check_canonical(ring, x):
    """The payload invariants that make payload equality value equality."""
    if ring.kind == "Fp":
        assert type(x.payload) is int and 0 <= x.payload < ring.p
        return
    num, den = x.payload
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in num)
    assert not num or num[-1] != 0
    assert len(num) < len(ring.modulus)
    assert math.gcd(den, *num) == 1
    # the size of a value is unchanged from rational coefficients
    coeffs = [Fraction(c, den) for c in num]
    want = max(((abs(c.numerator) * c.denominator).bit_length() for c in coeffs), default=0)
    assert ring.size(x.payload) == (0 if x.is_one() else want)


@pytest.mark.parametrize("spec", SPECS)
def test_field_axioms(spec):
    ring = construct_ring(spec)

    @SETTINGS
    @given(values(ring), values(ring), values(ring))
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


@pytest.mark.parametrize("spec", SPECS)
def test_canonical_form_is_unique(spec):
    ring = construct_ring(spec)
    q = ring.generators().get("q", ring.one)
    m = ring.m if ring.kind == "cyclo" else 1

    @SETTINGS
    @given(values(ring), values(ring), values(ring, nonzero=True))
    def check(a, b, c):
        # the same value reached along different paths
        pairs = [(a * c / c, a), ((a + b) - b, a), (-(-a), a), (a * q**m, a),
                 ((a + c) * (a - c), a * a - c * c), ((a * c + b * c) / c, a + b)]
        for x, y in pairs:
            assert x == y
            assert x.payload == y.payload
            assert hash(x) == hash(y)
        for x in (a, b, c, a + b, a * b, a / c, -a):
            check_canonical(ring, x)

    check()


@pytest.mark.parametrize("spec", SPECS + ["ratfun:cyclo:10"])
def test_text_round_trip(spec):
    ring = construct_ring(spec)
    gens = list(ring.generators().values())

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(-9, 9), st.lists(st.integers(-3, 12), min_size=len(gens),
                                                           max_size=len(gens))), max_size=4),
           st.integers(1, 6))
    def check(monomials, den):
        x = ring.zero
        for c, exps in monomials:
            term = ring.from_int(c)
            for g, e in zip(gens, exps):
                term = term * g**e
            x = x + term
        if not ring.from_int(den).is_zero():
            x = x / den
        assert parse_element(ring, str(x)) == x

    check()


@pytest.mark.parametrize("spec", SPECS + ["Q"])
def test_reduction_is_a_ring_map_where_defined(spec):
    ring = construct_ring(spec)
    p, psi = ring.reduction()

    @SETTINGS
    @given(values(ring), values(ring))
    def check(a, b):
        x, y = psi(a.payload), psi(b.payload)
        if x is None or y is None:
            return
        assert psi((a + b).payload) == (x + y) % p
        assert psi((a * b).payload) == x * y % p
        assert psi((-a).payload) == -x % p
        if a:
            inverse = psi(a.inverse().payload)
            assert inverse is None or inverse * x % p == 1

    check()
    assert psi(ring.one.payload) == 1 and psi(ring.zero.payload) == 0


# -- sympy as an independent oracle -----------------------------------------

try:
    import sympy
except ImportError:  # the oracle is optional; the property tests above still run
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")
X = sympy.Symbol("x") if sympy else None


def to_sympy(x):
    num, den = x.payload
    return sum((sympy.Integer(c) * X**i for i, c in enumerate(num)), sympy.Integer(0)) / den


def sympy_of(poly, den):
    return sum((sympy.Integer(c) * X**e for e, c in poly.items()), sympy.Integer(0)) / den


@needs_sympy
def test_cyclotomic_polynomial_matches_sympy():
    for m in range(1, 121):
        want = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(m)) == want, m


@needs_sympy
@pytest.mark.parametrize("spec", CYCLO)
def test_products_and_inverses_match_sympy(spec):
    ring = construct_ring(spec)
    phi = sympy.cyclotomic_poly(ring.m, X)
    dens = st.integers(1, 12)

    @SETTINGS
    @given(terms(ring), dens, terms(ring), dens)
    def check(n1, d1, n2, d2):
        a, b = build(ring, n1) / d1, build(ring, n2) / d2
        A, B = sympy_of(n1, d1), sympy_of(n2, d2)
        assert sympy.expand(to_sympy(a) - sympy.rem(sympy.expand(A), phi, X)) == 0
        assert sympy.expand(to_sympy(a * b) - sympy.rem(sympy.expand(A * B), phi, X)) == 0
        if not a.is_zero():
            assert sympy.expand(to_sympy(a.inverse()) - sympy.invert(sympy.expand(A), phi, X)) == 0

    check()


def dense(ring, seed):
    """A value of degree phi - 1 with coefficients in -9..9 over the
    denominator 5, as {exponent: coefficient}."""
    rng, top = random.Random(seed), len(ring.modulus) - 2
    num = {e: rng.randint(-9, 9) for e in range(top)}
    num[top] = rng.choice([-3, -1, 2, 7])
    return num


@needs_sympy
@pytest.mark.parametrize("seed", range(3))
def test_dense_inverses_match_sympy(seed):
    ring = construct_ring("cyclo:105")  # phi = 48
    num = dense(ring, seed)
    a = build(ring, num) / 5
    want = sympy.invert(sympy_of(num, 5), sympy.cyclotomic_poly(105, X), X)
    assert sympy.expand(to_sympy(a.inverse()) - want) == 0


@needs_sympy
@pytest.mark.parametrize("seed", range(3))
def test_dense_inverses_in_a_larger_field_are_fast_and_checked_by_sympy(seed):
    # phi = 96: extended Euclid over Q took 20 s here, as does sympy.invert
    # on its pure-Python rationals, so sympy checks the product instead
    ring = construct_ring("cyclo:420")
    num = dense(ring, seed)
    a = build(ring, num) / 5
    start = time.perf_counter()
    inverse = a.inverse()
    assert time.perf_counter() - start < 2
    check_canonical(ring, inverse)
    numerator, den = inverse.payload
    product = sympy.Poly(sympy_of(num, 1), X) * sympy.Poly(sum(c * X**i for i, c in enumerate(numerator)), X)
    assert sympy.rem(product, sympy.Poly(sympy.cyclotomic_poly(420, X), X)) == sympy.Poly(5 * den, X)


@pytest.mark.parametrize("m", list(range(1, 201)) + [5040, MAX_CYCLO_M])
def test_the_cyclotomic_reduction_factors_through_z_zeta(m):
    # q goes to a root a of Phi_m mod a prime p = 1 (mod m), the condition
    # for psi to be a ring map on Z[zeta_m] localised at the integers prime to p
    ring = construct_ring(f"cyclo:{m}")
    p, psi = ring.reduction()
    a = psi(ring.generators()["q"].payload)
    assert (sympy.isprime if sympy else _is_prime)(p), m
    assert (p - 1) % m == 0 and p > 1 << 30, m
    value = 0
    for c in reversed(cyclotomic_polynomial(m)):
        value = (value * a + c) % p
    assert value == 0, m

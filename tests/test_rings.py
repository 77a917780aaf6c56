import math
import random
from fractions import Fraction

import pytest

from tlab.rings import (
    ElementParseError,
    MAX_PRIME,
    RingLimitError,
    RingSpecError,
    Triple,
    _is_prime,
    _zgcd,
    construct_ring,
    cyclotomic_polynomial,
    generic_tower,
    parse_element,
)


def test_construct_prime_field():
    F5 = construct_ring("Fp:5")
    assert F5.p == 5
    assert parse_element(F5, "7") == F5.from_int(2)


def test_prime_field_rejects_composite():
    with pytest.raises(RingSpecError):
        construct_ring("Fp:6")


def test_malformed_specs():
    for spec in ("", "Fp:", "cyclo:0", "cyclo:x", "what", "ratfun:"):
        with pytest.raises(RingSpecError):
            construct_ring(spec)


def test_cyclotomic_modulus_is_cyclotomic_polynomial():
    # independent characterization: q is a primitive m-th root of unity
    C10 = construct_ring("cyclo:10")
    assert C10.modulus == tuple(Fraction(c) for c in (1, -1, 1, -1, 1))
    q = C10.generators()["q"]
    assert (q**10).is_one()
    assert all(not (q**k).is_one() for k in range(1, 10))
    # degrees are Euler phi
    for m, phi in [(1, 1), (2, 1), (8, 4), (12, 4), (9, 6), (20, 8)]:
        assert len(cyclotomic_polynomial(m)) - 1 == phi


def test_cyclotomic_inverse_example():
    C10 = construct_ring("cyclo:10")
    q = C10.generators()["q"]
    assert q.inverse() == parse_element(C10, "-q^3+q^2-q+1")
    assert (q * q.inverse()).is_one()


def test_invert_in_fields_fails_exactly_on_zero():
    for spec in ("Q", "Fp:5", "cyclo:10", "ratfun:Q"):
        ring = construct_ring(spec)
        assert ring.zero.inverse() is None
        assert ring.one.inverse() == ring.one


def test_rational_function_reduction():
    R = construct_ring("ratfun:Q")
    t = R.generators()["t"]
    assert parse_element(R, "(t^2-1)/(t-1)") == t + 1


def test_parse_errors():
    R = construct_ring("ratfun:Q")
    for text in ("", "q", "t +", "1/0", "(t", "0^-1", "t^t"):
        with pytest.raises((ElementParseError, ZeroDivisionError)):
            parse_element(R, text)


def test_parse_negative_power():
    C10 = construct_ring("cyclo:10")
    val = parse_element(C10, "q+q^-1")
    q = C10.generators()["q"]
    assert val == q + q.inverse()


@pytest.mark.parametrize("spec", ["Q", "Fp:5", "Fp:2", "cyclo:10", "cyclo:12", "ratfun:Q", "ratfun:Fp:3"])
def test_ring_axioms_on_randoms(spec):
    ring = construct_ring(spec)
    rng = random.Random(spec)
    gens = list(ring.generators().values())

    def rand():
        acc = ring.zero
        for _ in range(rng.randint(1, 3)):
            term = ring.from_int(rng.randint(-5, 5))
            for g in gens:
                term = term * g ** rng.randint(0, 2)
            acc = acc + term
        return acc

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero == a
        assert a * ring.one == a
        assert (a - a).is_zero()
        inv = a.inverse()
        if inv is None:
            assert a.is_zero()
        else:
            assert (a * inv).is_one()


def test_nested_tower_axioms():
    T = generic_tower()
    R = T.ring
    t, u = R.generators()["t"], R.generators()["u"]
    rng = random.Random(7)

    def rand():
        acc = R.zero
        for _ in range(rng.randint(1, 3)):
            term = R.from_int(rng.randint(-3, 3))
            term = term * t ** rng.randint(0, 2) * u ** rng.randint(0, 2)
            acc = acc + term
        return acc

    for _ in range(60):
        a, b = rand(), rand()
        assert a * b == b * a
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a


def test_canonicalization_idempotent():
    T = generic_tower()
    R = T.ring
    t, u = R.generators()["t"], R.generators()["u"]
    v = (t * u - 1) / (t**2 * u + t)
    num, den = v.payload
    assert R._canon(num, den) == v.payload


def test_tower_swap_involution():
    T = generic_tower()
    assert T.swap().swap() == T
    assert T.swap().delta1 == T.delta2


def test_element_strings_round_trip():
    rng = random.Random(3)
    for spec in ("Q", "Fp:7", "cyclo:12", "ratfun:Q", "ratfun:ratfun:Q"):
        ring = construct_ring(spec)
        gens = list(ring.generators().values())

        def rand():
            acc = ring.zero
            for _ in range(rng.randint(1, 3)):
                term = ring.from_int(rng.randint(-6, 6))
                for g in gens:
                    term = term * g ** rng.randint(0, 2)
                acc = acc + term
            den = ring.from_int(rng.randint(1, 4))
            return acc / den

        for _ in range(15):
            v = rand()
            assert parse_element(ring, str(v)) == v, (spec, str(v))


def test_fraction_field_over_prime_field():
    R = construct_ring("ratfun:Fp:5")
    t = R.generators()["t"]
    v = (t**2 + t) / (t + 1)
    assert v == t
    assert (t**5 - t).inverse() is not None


def test_triple_membership_guard():
    F5 = construct_ring("Fp:5")
    Q = construct_ring("Q")
    with pytest.raises(Exception):
        Triple(F5, Q.one, F5.zero)


def test_bivariate_gcd_keeps_common_content():
    # t(u+1) and t(u+2) share the Z[t]-content t
    assert _zgcd(((0, 1), (0, 1)), ((0, 2), (0, 1)), 2) == ((0, 1),)
    T = generic_tower()
    t, u = T.ring.generators()["t"], T.ring.generators()["u"]
    lhs = (t * u + t) / (t * u + 2 * t)
    rhs = (u + 1) / (u + 2)
    assert lhs == rhs
    assert lhs.payload == rhs.payload
    assert hash(lhs) == hash(rhs)


def test_miller_rabin_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to many small bases
    for n in (561, 1105, 3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    # the ceiling is the least composite that passes all 13 witnesses, which
    # is why Fp refuses any modulus from it on
    assert MAX_PRIME == 1287836182261 * 2575672364521 and _is_prime(MAX_PRIME)
    with pytest.raises(RingLimitError):
        construct_ring(f"Fp:{MAX_PRIME}")
    for p in (2**61 - 1, 2**31 - 1, 1_000_000_007, 3317044064679887385961813):
        assert _is_prime(p), p


def test_power_size_ceiling_catches_nested_powers():
    for spec, text in (("ratfun:Q", "(t^1000)^3"), ("ratfun:ratfun:Q", "(t^1000)^3"),
                       ("ratfun:ratfun:Fp:7", "(u^1000)^3"), ("ratfun:Q", "(2^1000)^1000"),
                       ("Q", "(3^1000)^10"), ("cyclo:12", "671^962356"), ("cyclo:10", "(1+q)^100000"),
                       ("ratfun:cyclo:10", "(t^1000)^3")):
        R = construct_ring(spec)
        with pytest.raises(RingLimitError, match="predicted size"):
            parse_element(R, text)
    # powers of roots of unity stay small whatever the exponent
    for spec, text in (("cyclo:10", "q^1000000001"), ("cyclo:10", "(-q^3)^-999999999"),
                       ("cyclo:105", "q^99999999"), ("cyclo:1", "(-1)^99999999")):
        parse_element(construct_ring(spec), text)
    for spec, text in (("ratfun:Q", "t^1000"), ("ratfun:Q", "t^-1000"), ("ratfun:Q", "3^1000"),
                       ("ratfun:ratfun:Q", "(u*t)^600"), ("Q", "3^1000"), ("Q", "(3^1000)^8")):
        parse_element(construct_ring(spec), text)
    # the prediction bounds the size of the power from above
    R = construct_ring("ratfun:ratfun:Q")
    for text in ("t", "u + 1", "3*t/u", "(t - u)/(2*t + 7)"):
        x = parse_element(R, text)
        for e in (2, 5, -3):
            assert R.size((x**e).payload) <= abs(e) * R.size(x.payload), (text, e)


def test_ring_sizes():
    Q, Qt = construct_ring("Q"), construct_ring("ratfun:Q")
    assert [Q.size(Fraction(n, d)) for n, d in ((1, 1), (-1, 1), (3, 1), (1, 2), (7, 3))] == [0, 1, 2, 2, 5]
    sizes = [Qt.size(parse_element(Qt, s).payload) for s in ("1", "-1", "t", "3", "t^2 + 1", "1/t")]
    assert sizes == [0, 1, 2, 2, 3, 2]


def test_deep_nesting_is_refused():
    Q = construct_ring("Q")
    for text in ("(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1", "-(" * 60 + "1" + ")" * 60):
        with pytest.raises(RingLimitError, match="deeper than 100"):
            parse_element(Q, text)
    assert parse_element(Q, "(" * 98 + "-1" + ")" * 98) == -1

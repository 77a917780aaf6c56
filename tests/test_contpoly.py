import math

import pytest

from tlab.contpoly import (
    IntPolynomial,
    kappa,
    mu,
    nu,
    qbinom,
    qbinom_exponents,
    qnum,
)
from tlab.rings import Triple, construct_ring, parse_element

X = IntPolynomial.x()
Y = IntPolynomial.y()
ONE = IntPolynomial.const(1)


def kappa_closed_form(n: int) -> IntPolynomial:
    """The alternating binomial expansion of kappa_n (independent oracle)."""
    out = {}
    for i in range(n // 2 + 1):
        out[(n - 2 * i, 0)] = (-1) ** i * math.comb(n - i, i)
    return IntPolynomial(out)


def qbinom_literal(triple: Triple, n: int, i: int):
    """The division-based quantum binomial, or None when a denominator is
    not invertible.  Cross-check oracle for :func:`qbinom`."""
    if not 1 <= i <= n:
        raise ValueError(f"binomial index {i} out of range 1..{n}")
    numerator = triple.ring.one
    for k in range(n - i + 1, n + 1):
        numerator = numerator * qnum(triple, k)[0]
    denominator = triple.ring.one
    for k in range(1, i + 1):
        denominator = denominator * qnum(triple, k)[0]
    inv = denominator.inverse()
    if inv is None:
        return None
    return numerator * inv


def test_kappa_base_cases_and_display():
    assert kappa(0) == ONE
    assert kappa(1) == X
    assert kappa(2) == X * X - ONE
    assert kappa(3) == IntPolynomial({(3, 0): 1, (1, 0): -2})
    assert kappa(4) == IntPolynomial({(4, 0): 1, (2, 0): -3, (0, 0): 1})
    assert kappa(5) == IntPolynomial({(5, 0): 1, (3, 0): -4, (1, 0): 3})


def test_kappa_recurrence_matches_closed_form():
    for n in range(31):
        assert kappa(n) == kappa_closed_form(n)


def test_kappa_rejects_negative_index():
    with pytest.raises(ValueError):
        kappa(-1)


def test_mu_and_nu_reject_negative_index():
    with pytest.raises(ValueError):
        mu(-1)
    with pytest.raises(ValueError):
        nu(-1)


def test_kappa_at_two():
    # the recurrence forces kappa_n(2) = U_n(4) = n + 1; summed in integers,
    # as a float sum would cancel coefficients of up to about 2^137 at n = 200
    for n in range(201):
        assert sum(c * 2**i for (i, _), c in kappa(n).coeffs.items()) == n + 1, n


def test_mod_p_collapse():
    cases = [(p, l) for p in (3, 5, 7) for l in (1, 2)] + [(2, l) for l in (1, 2, 3, 4)]
    for p, l in cases:
        n = p**l - 1
        got = kappa(n).reduce_mod(p)
        if p == 2:
            want = IntPolynomial({(n, 0): 1})
        else:
            base = IntPolynomial({(2, 0): 1, (0, 0): -4})
            power = ONE
            for _ in range(n // 2):
                power = power * base
            want = power.reduce_mod(p)
        assert got == want, (p, l)


def test_root_identity():
    for N in range(2, 21):
        for j in range(1, N):
            val = kappa(N - 1).evaluate_float(2 * math.cos(j * math.pi / N))
            assert abs(val) < 1e-9, (N, j)


def test_continuant_triangle_shadows():
    for n in range(2, 16):
        for l in range(2, n + 1):
            assert kappa(n) == kappa(l - 1) * kappa(n - l + 1) - kappa(l - 2) * kappa(n - l)
    for n in range(1, 16):
        assert kappa(n + 1) * kappa(n - 1) == kappa(n) * kappa(n) - ONE


def test_mu_examples_and_structure():
    assert mu(0) == ONE
    assert mu(1) == X
    assert mu(2) == X * Y - ONE
    assert mu(3) == X * (X * Y - IntPolynomial.const(2))
    for i in range(0, 12, 2):
        # even indices depend only on the product xy
        assert all(a == b for (a, b) in mu(i).coeffs), i
    for n in range(12):
        assert mu(n).substitute_y_with_x() == kappa(n)


def test_nu_divisor_factorization():
    assert nu(0) == ONE
    assert nu(1) == X
    assert nu(2) == X * Y - ONE
    assert nu(3) == X * Y - IntPolynomial.const(2)
    for m in range(1, 121):
        product = ONE
        for i in range(1, m + 1):
            if m % i == 0:
                product = product * nu(i - 1)
        assert product == mu(m - 1), m


def test_mu_at_a_deep_index():
    assert mu(1500).coeffs[(0, 0)] == 1  # mu_{4k}(0, 0) = 1


def test_qnum_at_a_deep_index_matches_the_recurrence():
    F7 = construct_ring("Fp:7")
    d1, d2 = F7.from_int(3), F7.from_int(5)
    triple = Triple(F7, d1, d2)
    # [n+1] = d[n] - [n-1], the multiplier d1 after odd n and d2 after even n
    prev, current = F7.zero, F7.one
    for n in range(1, 1200):
        prev, current = current, (d1 if n % 2 else d2) * current - prev
    assert qnum(triple, 1200)[0] == current


def test_qnum_examples(tower):
    d1, d2 = tower.delta1, tower.delta2
    assert qnum(tower, 0) == (tower.ring.zero, tower.ring.zero)
    assert qnum(tower, 1)[0].is_one()
    assert qnum(tower, 2)[0] == d1
    assert qnum(tower, 3)[0] == d1 * d2 - 1
    assert qnum(tower, 4)[0] == d1 * (d1 * d2 - 2)


def test_qnum_vanishes_at_root_of_unity(zeta12_balanced):
    assert qnum(zeta12_balanced, 6)[0].is_zero()


def test_qbinom_examples(tower, f2_zero):
    want = parse_element(tower.ring, "(t*u-2)*(t*u-1)")
    assert qbinom(tower, 4, 2) == want
    assert qbinom(tower, 4, 4).is_one()
    assert qbinom(f2_zero, 5, 2).is_zero()


def test_qbinom_exponents_lie_in_01():
    for n in range(1, 41):
        for i in range(1, n + 1):
            exps = qbinom_exponents(n, i)
            assert all(e in (0, 1) for e in exps.values()), (n, i)


def test_qbinom_against_literal_quotient(tower, zeta10_balanced):
    for triple in (tower, zeta10_balanced):
        for n in range(1, 9):
            for i in range(1, n + 1):
                literal = qbinom_literal(triple, n, i)
                if literal is not None:
                    assert qbinom(triple, n, i) == literal, (n, i)


def test_qbinom_range_errors(tower):
    with pytest.raises(ValueError):
        qbinom(tower, 4, 0)
    with pytest.raises(ValueError):
        qbinom(tower, 4, 5)


def test_quantum_table():
    Q = construct_ring("Q")
    triple = Triple(Q, Q.from_int(3), Q.from_int(3))
    assert [str(qnum(triple, k)[0]) for k in range(5)] == ["0", "1", "3", "8", "21"]

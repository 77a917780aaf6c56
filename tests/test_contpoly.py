import math

import pytest

from tlab.contpoly import (
    IntPolynomial,
    QuantumTable,
    kappa,
    kappa_closed_form,
    mu,
    nu,
    qbinom,
    qbinom_exponents,
    qbinom_literal,
    qnum,
)
from tlab.rings import Triple, construct_ring, generic_tower, parse_element

X = IntPolynomial.x()
Y = IntPolynomial.y()
ONE = IntPolynomial.const(1)


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


def test_kappa_at_two():
    # recurrence forces kappa_n(2) = n + 1
    for n in range(12):
        assert kappa(n).evaluate_float(2.0) == pytest.approx(n + 1)


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
    for m in range(1, 25):
        product = ONE
        for i in range(1, m + 1):
            if m % i == 0:
                product = product * nu(i - 1)
        assert product == mu(m - 1), m


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
    table = QuantumTable.build(triple, 4)
    assert [str(v) for v in table.qnums] == ["0", "1", "3", "8", "21"]

"""Jones-Wenzl idempotents from the integer table over Z[z].

``jw(..., "auto")`` builds JW_n over Q(t) and Q(t)(u) from one certified
table P_n = [2]...[n] JW_n at the loop values (z, 1) when both loop values
are monic monomials with a non-constant product.  These tests compare it
with the single-clasp recursion and the sandwich recursion (hypothesis),
and each mapped coefficient with sympy's cancel."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ratfun_properties import RINGS, T, U, sympy, to_sympy
from test_tldiag import _jw_by_sandwich
from tlab import tldiag
from tlab.rings import Triple, _zlead


def _monomial(ring, exponents):
    """The monic monomial with these exponents, innermost generator first."""
    value = ring.one
    for name, e in zip("tu", exponents):
        value = value * ring.generators()[name] ** e
    return value


def _same(got, want):
    assert got == want
    assert {m: c.payload for m, c in got.terms.items()} == {m: c.payload for m, c in want.terms.items()}
    assert str(got) == str(want)


@st.composite
def _monomial_triples(draw):
    """A triple of monic monomials over Q(t) or Q(t)(u), with exponents in
    -3..3; about one in four has delta1 * delta2 = 1."""
    depth = draw(st.sampled_from((1, 2)))
    e1 = tuple(draw(st.integers(-3, 3)) for _ in range(depth))
    if draw(st.integers(0, 3)) == 0:
        e2 = tuple(-e for e in e1)
    else:
        e2 = tuple(draw(st.integers(-3, 3)) for _ in range(depth))
    ring = RINGS[depth]
    return Triple(ring, _monomial(ring, e1), _monomial(ring, e2)), e1, e2


@settings(max_examples=25, deadline=None)
@given(_monomial_triples(), st.integers(2, 6))
def test_auto_matches_both_recursions_on_monomial_triples(case, n):
    triple, e1, e2 = case
    routed = []
    table_route = tldiag._jw_by_table

    def spy(t, k):
        routed.append(k)
        return table_route(t, k)

    with mock.patch.dict(tldiag._JW_CACHE, clear=True), mock.patch.object(tldiag, "_jw_by_table", spy):
        got = tldiag.jw(triple, n)
    if all(a + b == 0 for a, b in zip(e1, e2)):
        # delta1 * delta2 = 1 is constant: the table route does not apply
        assert tldiag._monomial_loops(triple) is None and not routed
        want = tldiag.jw(triple, n, "solve")
        assert isinstance(got, tldiag.NotExists) == isinstance(want, tldiag.NotExists)
        if not isinstance(want, tldiag.NotExists):
            _same(got, want)
        return
    assert tldiag._monomial_loops(triple) == (e1[::-1], e2[::-1]) and routed == [n]
    _same(got, tldiag.jw(triple, n, "recursion"))
    _same(got, _jw_by_sandwich(triple, n)[-1])


def test_other_triples_do_not_take_the_table_route():
    for spec, d1, d2 in (
        ("ratfun:Q", "2*t", "t"), ("ratfun:Q", "t+1", "t"), ("ratfun:Q", "t", "t^-1"),
        ("ratfun:ratfun:Q", "t+u", "t"), ("ratfun:ratfun:Q", "0", "t"), ("ratfun:Fp:5", "t", "t"),
        ("Q", "2", "3"), ("Fp:101", "3", "5"),
    ):
        assert tldiag._monomial_loops(Triple.parse(spec, d1, d2)) is None, (spec, d1, d2)


def test_the_integral_certificate_rejects_a_wrong_table(monkeypatch):
    qnum = tldiag.qnum

    def doubled(triple, k):
        q = qnum(triple, k)
        return (2 * q[0], q[1]) if triple == tldiag._INTEGRAL and k == 3 else q

    # [3] doubled at (z, 1) only: the identity coefficient is still the
    # product of the [k] used, but the kills fail
    monkeypatch.setattr(tldiag, "qnum", doubled)
    with pytest.raises(AssertionError, match="not killed"):
        tldiag._jw_table(4)


# sha256 of repr((c_n, sorted (inv, P_D) pairs)) for _jw_table(n), recorded
# while the table was still built on plain Z[z] tuples by its own loop
TABLE_DIGESTS = {
    2: "8c5c955fad0370d67add83b304ffe6bdc5043081795eba32f03b1d960c551c18",
    3: "f9864a2b7a52b1c44ec6b960e9ab898aaa4af69c642094a66733ce960b4ece66",
    4: "0dd582a7149a45bf5a37f42c7d0be7e947da2e53c4f17895177542cb4dd6aab7",
    5: "4521b5a283ec03ee88f89f8ac7986c275d4eab96494fe49741739514a8074ea0",
    6: "26b160c0e912e0d359349868cb6c6535b4be4dda0ade20f026d5e8b282f0206c",
    7: "71683d771c637bad40bad914b7cc48e29a40364167f793a996442890c6da0375",
    8: "c485aa62b07616f9ed3f5ce2e5ba9fe9a7c7df24f493755a18bcf16b1393b634",
}


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_the_integer_table_is_pinned(n):
    table, c_n = tldiag._jw_table(n)
    text = repr((c_n, sorted((m.inv, p) for m, p in table.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[n]


# -- sympy as an independent oracle -----------------------------------------

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


@needs_sympy
@pytest.mark.parametrize("depth, e1, e2", [(2, (1, 0), (0, 1)), (1, (-1,), (3,)), (2, (-2, 1), (1, 1))])
def test_mapped_coefficients_match_sympy_cancel(depth, e1, e2):
    """Each coefficient is cancel(delta2^-w * P_D(z0) / c_n(z0)), z0 =
    delta1 * delta2 (for the default tower, u^-w P_D(tu) / c_n(tu)), in
    lowest terms with a positive leading integer in the denominator."""
    ring = RINGS[depth]
    gens = (T, U)[:depth]
    d1 = sympy.Mul(*(g**e for g, e in zip(gens, e1)))
    d2 = sympy.Mul(*(g**e for g, e in zip(gens, e2)))
    z = sympy.Symbol("z")
    triple = Triple(ring, _monomial(ring, e1), _monomial(ring, e2))
    for n in range(2, 6):
        table, c_n = tldiag._jw_table(n)
        c = sympy.Poly(list(reversed(c_n)), z).as_expr()
        got = tldiag.jw(triple, n)
        assert set(got.terms) == set(table)
        for m, p in table.items():
            p_z0 = sympy.Poly(list(reversed(p)), z).as_expr().subs(z, d1 * d2)
            want = sympy.cancel(d2 ** -tldiag.rescale_weight(m) * p_z0 / c.subs(z, d1 * d2))
            num, den = got.terms[m].payload
            num_s, den_s = to_sympy(num, depth), to_sympy(den, depth)
            assert sympy.cancel(want - num_s / den_s) == 0, (n, m)
            assert sympy.gcd(num_s, den_s) == 1 and _zlead(den, depth) > 0, (n, m)

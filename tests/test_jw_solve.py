"""A sparse linear solve of the right kill conditions x e_i = 0, kept here
as the test-only reference for JW_n, against the integer table divided at
the point (``tldiag._jw_by_table``) and the binomial criterion.

The two-sided system it once replaced survives here as a second reference,
and the recursion is an oracle on the triples where it is legal.
Rotatability, which now tests the [[d]] factors of each binomial, is
compared with the multiplied-out binomials of ``qbinom``."""

import functools
from typing import Dict, List, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matrix_reference import ExactMatrix
from tlab import linalg, tldiag
from tlab.contpoly import qbinom, qnum
from tlab.linalg import FieldModulus
from tlab.rings import RingValue, Triple
from tlab.tldiag import (
    NotExists,
    PlanarMatching,
    TLMorphism,
    Word,
    _jw_by_recursion,
    _recursion_legal,
    compose,
    enumerate_basis,
    hazi_witness,
    jw,
    rotatability,
)

# lopsided triples (d1 != d2) included; 16 in all
SOLVE_TRIPLES = [
    ("Fp:2", "0", "0"), ("Fp:2", "1", "1"), ("Fp:2", "0", "1"),
    ("Fp:3", "2", "2"), ("Fp:3", "1", "2"), ("Fp:3", "0", "0"),
    ("Fp:5", "2", "2"), ("Fp:5", "2", "3"),
    ("Fp:7", "3", "5"), ("Fp:7", "2", "2"),
    ("cyclo:6", "q+q^-1", "q+q^-1"), ("cyclo:8", "q+q^-1", "q+q^-1"),
    ("cyclo:10", "q+q^-1", "q+q^-1"), ("cyclo:12", "q+q^-1", "q+q^-1"),
    ("cyclo:12", "q", "q^-1"), ("Q", "1", "3"),
]


def solve(matrix: ExactMatrix, rhs: List[RingValue]) -> Optional[List[RingValue]]:
    """One solution of A x = rhs with every free variable zero, or None when
    the system is inconsistent: the augmented matrix [A | rhs] through
    linalg._sweep, untransposed, then back substitution.  A pivot in the last
    column is a row 0 = non-zero."""
    n = matrix.ncols
    augmented = [{**row, n: e} if e else dict(row) for row, e in zip(matrix.entries, rhs)]
    pivots, rows = linalg._sweep(augmented, n + 1, FieldModulus(matrix.ring))
    if pivots and pivots[-1][0] == n:
        return None
    solution = [matrix.ring.zero] * n
    # a pivot row has no entry left of its pivot; only pivot columns are non-zero
    for c, p in reversed(pivots):
        row = rows[p]
        acc = row.get(n, matrix.ring.zero)
        for j, e in row.items():
            if j != c and j != n:
                acc = acc - e * solution[j]
        solution[c] = acc / row[c]
    return solution


def _jw_by_solve(triple: Triple, n: int) -> Optional[TLMorphism]:
    """JW_n from the right kills x e_i = 0 with identity coefficient 1, or
    None when they have no solution; by tldiag._check_jw's docstring these
    conditions determine JW_n and have no solution when it does not exist."""
    ring = triple.ring
    word = Word.alt(n)
    basis = enumerate_basis(word, word)
    index = {m: j for j, m in enumerate(basis)}
    # One sparse row {basis index: coefficient} per diagram in x * e_i; a
    # basis diagram maps to a single diagram, so no entry repeats, and a row
    # met under two generators is kept once.
    kills: Dict[tuple, Dict[int, RingValue]] = {}
    for i in range(1, n):
        equations: Dict[PlanarMatching, Dict[int, RingValue]] = {}
        for j, m in enumerate(basis):
            for res, coeff in tldiag._times_generator(triple, {m: ring.one}, i).items():
                equations.setdefault(res, {})[j] = coeff
        for row in equations.values():
            kills.setdefault(tuple(row.items()), row)
    rows = [*kills.values(), {index[PlanarMatching.identity(word)]: ring.one}]
    system = ExactMatrix.zeros(ring, len(rows), len(basis))
    system.entries = rows
    solution = solve(system, [ring.zero] * (len(rows) - 1) + [ring.one])
    if solution is None:
        return None
    return TLMorphism(triple, word, word, {m: solution[j] for j, m in enumerate(basis)})


def _two_sided_solve(triple: Triple, n: int):
    """JW_n from the kill conditions on both sides, e_i x = 0 and x e_i = 0,
    with identity coefficient 1, or None when they have no solution."""
    ring = triple.ring
    word = Word.alt(n)
    basis = enumerate_basis(word, word)
    rows: List[Dict[int, RingValue]] = []
    for i in range(1, n):
        gen = TLMorphism.e(triple, n, i)
        for left in (True, False):
            equations: Dict[PlanarMatching, Dict[int, RingValue]] = {}
            for j, m in enumerate(basis):
                term = TLMorphism.from_matching(triple, m)
                product = compose(gen, term) if left else compose(term, gen)
                for res, coeff in product.terms.items():
                    equations.setdefault(res, {})[j] = coeff
            rows.extend(equations.values())
    rows.append({basis.index(PlanarMatching.identity(word)): ring.one})
    system = ExactMatrix.zeros(ring, len(rows), len(basis))
    system.entries = rows
    solution = solve(system, [ring.zero] * (len(rows) - 1) + [ring.one])
    if solution is None:
        return None
    return TLMorphism(triple, word, word, {m: solution[j] for j, m in enumerate(basis)})


def test_one_sided_solve_agrees_with_the_two_sided_system():
    missing = 0
    for spec, d1, d2 in SOLVE_TRIPLES:
        triple = Triple.parse(spec, d1, d2)
        for n in range(2, 7):
            one_sided = _jw_by_solve(triple, n)
            assert one_sided == _two_sided_solve(triple, n), (spec, d1, d2, n)
            assert (one_sided is None) == (hazi_witness(triple, n) is not None), (spec, d1, d2, n)
            missing += one_sided is None
    # 41 of the 80 cases have no JW_n
    assert missing == 41


def test_jw_returns_not_exists_on_every_missing_case():
    for spec, d1, d2 in SOLVE_TRIPLES:
        triple = Triple.parse(spec, d1, d2)
        for n in range(2, 7):
            if hazi_witness(triple, n) is not None:
                assert _jw_by_solve(triple, n) is None, (spec, d1, d2, n)
                assert isinstance(jw(triple, n), NotExists), (spec, d1, d2, n)
                with pytest.raises(AssertionError, match="pole"):
                    tldiag._jw_by_table(triple, n)


def test_solve_system_has_only_the_right_kill_rows(monkeypatch):
    sizes, distinct = [], []
    original = solve

    def counting(matrix, rhs):
        sizes.append((matrix.nrows, matrix.ncols))
        distinct.append(len({tuple(sorted(row.items())) for row in matrix.entries}))
        return original(matrix, rhs)

    monkeypatch.setitem(globals(), "solve", counting)
    result = _jw_by_solve(Triple.parse("Fp:2", "0", "0"), 7)
    assert isinstance(result, TLMorphism)
    # 6 generators, 132 rows each, of which 731 are distinct, plus the
    # identity row; with the repeated rows the system had 793, and the
    # two-sided system 1,585
    assert sizes == [(732, 429)] and distinct == [732]


@pytest.fixture
def one_table_per_n(monkeypatch):
    """Build the integer table once for each n and certification mode; it
    is pinned on its own in test_jw_table."""
    monkeypatch.setattr(tldiag, "_jw_table", functools.lru_cache(tldiag._jw_table))


def _route(triple: Triple, n: int) -> Optional[TLMorphism]:
    """The integer table divided at the point, or None where it meets a pole."""
    try:
        return tldiag._jw_by_table(triple, n)
    except AssertionError as exc:
        if "pole" not in str(exc):
            raise
        return None


def test_the_table_at_the_point_matches_the_solve_over_small_prime_fields(one_table_per_n):
    """Every (delta1, delta2) in F_p^2 for p <= 7 and 2 <= n <= 6: the route
    gives the solve's JW_n, and a pole exactly where the solve has no
    solution and the binomial criterion a witness.  The route also runs
    where the recursion is legal; jw does not send it there."""
    cases = poles = 0
    for p in (2, 3, 5, 7):
        for d1 in range(p):
            for d2 in range(p):
                triple = Triple.parse(f"Fp:{p}", str(d1), str(d2))
                for n in range(2, 7):
                    got = _route(triple, n)
                    assert got == _jw_by_solve(triple, n), (p, d1, d2, n)
                    assert (got is None) == (hazi_witness(triple, n) is not None), (p, d1, d2, n)
                    cases, poles = cases + 1, poles + (got is None)
    assert cases == 435 and 0 < poles < cases


def test_the_table_at_the_point_matches_the_solve_at_roots_of_unity(one_table_per_n):
    """The balanced triples of cyclo:4 to cyclo:12 up to n = 8.  The solve
    runs up to n = 6, and above where JW_n exists and the recursion is
    blocked: proving a missing JW_8 takes it about a second a ring, so a
    pole there is compared with the binomial criterion only."""
    blocked = set()
    for m in range(4, 13):
        triple = Triple.parse(f"cyclo:{m}", "q+q^-1", "q+q^-1")
        for n in range(2, 9):
            got = _route(triple, n)
            assert (got is None) == (hazi_witness(triple, n) is not None), (m, n)
            if _recursion_legal(triple, n):
                assert got == _jw_by_recursion(triple, n), (m, n)
            elif got is not None:
                blocked.add((m, n))
            if n <= 6 or (m, n) in blocked:
                assert got == _jw_by_solve(triple, n), (m, n)
    assert blocked == {(4, 3), (4, 5), (4, 7), (6, 5), (6, 8), (8, 7)}


RANDOM_RINGS = {
    "Q": ["1", "2", "3", "-2", "1/2", "5/3", "-3"],
    "Fp:5": ["1", "2", "3", "4"],
    "Fp:7": ["1", "2", "3", "4", "5", "6"],
    "Fp:11": ["2", "3", "5", "7", "10"],
    "Fp:101": ["2", "3", "5", "17", "50", "100"],
    "ratfun:Q": ["t", "1/t", "t+1", "2*t", "t^2-1", "3"],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(RANDOM_RINGS)), st.data(), st.integers(2, 5))
def test_recursion_and_solve_agree_on_random_legal_triples(spec, data, n):
    values = RANDOM_RINGS[spec]
    triple = Triple.parse(spec, data.draw(st.sampled_from(values)), data.draw(st.sampled_from(values)))
    assume(_recursion_legal(triple, n))
    assert _jw_by_recursion(triple, n) == _jw_by_solve(triple, n)


def _rotatability_by_products(triple: Triple, n: int):
    """(status, binomials_vanish, cyclotomic_vanish) from the multiplied-out
    binomials (n over i) and (n+1 over i) of both triples."""
    if n == 1:
        return "rotatable", None, None
    swapped = triple.swap()
    for t in (triple, swapped):
        if any(qbinom(t, n, i).inverse() is None for i in range(1, n + 1)):
            return "no_jw", None, None
    binomials = all(
        qbinom(triple, n + 1, i).is_zero() and qbinom(swapped, n + 1, i).is_zero()
        for i in range(1, n + 1)
    )
    cyclotomic = qnum(triple, n + 1)[1].is_zero() and qnum(swapped, n + 1)[1].is_zero()
    return ("rotatable" if binomials else "not_rotatable"), binomials, cyclotomic


def test_rotatability_matches_the_binomial_products():
    triples = [(f"cyclo:{m}", "q+q^-1", "q+q^-1") for m in (8, 10, 12)]
    triples += [("Fp:2", "0", "0"), ("Fp:3", "2", "2"), ("Fp:5", "2", "2"), ("Q", "2", "2")]
    statuses = set()
    for spec, d1, d2 in triples:
        triple = Triple.parse(spec, d1, d2)
        for n in range(1, 13):
            report = rotatability(triple, n)
            got = (report.status, report.binomials_vanish, report.cyclotomic_vanish)
            assert got == _rotatability_by_products(triple, n), (spec, n)
            statuses.add(report.status)
    assert statuses == {"rotatable", "not_rotatable", "no_jw"}

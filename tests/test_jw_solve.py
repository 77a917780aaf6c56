"""The Jones-Wenzl solve imposes only the right kill conditions x e_i = 0.

The two-sided system it replaced survives here as a test-only reference,
and the recursion is a second oracle on the triples where it is legal.
Rotatability, which now tests the [[d]] factors of each binomial, is
compared with the multiplied-out binomials of ``qbinom``."""

from typing import Dict, List

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlab.contpoly import qbinom, qnum
from tlab.linalg import ExactMatrix
from tlab.rings import RingValue, Triple
from tlab.tldiag import (
    NotExists,
    PlanarMatching,
    TLMorphism,
    Word,
    _jw_by_solve,
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
    solution = system.solve([ring.zero] * (len(rows) - 1) + [ring.one])
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


def test_solve_returns_not_exists_on_every_missing_case():
    for spec, d1, d2 in SOLVE_TRIPLES:
        triple = Triple.parse(spec, d1, d2)
        for n in range(2, 7):
            if hazi_witness(triple, n) is not None:
                assert isinstance(jw(triple, n, "solve"), NotExists), (spec, d1, d2, n)


def test_solve_system_has_only_the_right_kill_rows(monkeypatch):
    sizes = []
    original = ExactMatrix.solve

    def counting(self, rhs):
        sizes.append((self.nrows, self.ncols))
        return original(self, rhs)

    monkeypatch.setattr(ExactMatrix, "solve", counting)
    result = jw(Triple.parse("Fp:2", "0", "0"), 7, "solve")
    assert isinstance(result, TLMorphism)
    # 6 generators, 132 rows each, plus the identity row; the two-sided
    # system had 1,585
    assert sizes == [(793, 429)]


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
    assert jw(triple, n, "recursion") == jw(triple, n, "solve")


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

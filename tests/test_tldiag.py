import random

import pytest

from test_jw_solve import _jw_by_solve
from trace_reference import is_negligible, markov_trace, rescale_transport
from tlab.contpoly import qbinom, qnum
from tlab.rings import RingValue, Triple, construct_ring, generic_tower, parse_element
from tlab.sl2model import FiberParams
from tlab.tldiag import (
    UP,
    DiagramError,
    NotExists,
    PlanarMatching,
    TLMorphism,
    Word,
    _INTEGRAL,
    _clasp,
    _jw_by_recursion,
    _recursion_legal,
    _times_generator,
    compose,
    enumerate_basis,
    hazi_witness,
    jw,
    partial_trace,
    rotatability,
    tensor,
)


def catalan(n):
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def rand_morph(triple, src, tgt, rng):
    out = TLMorphism.zero(triple, src, tgt)
    for m in enumerate_basis(src, tgt):
        out = out + triple.ring.from_int(rng.randint(-2, 2)) * TLMorphism.from_matching(triple, m)
    return out


# -- words and matchings -----------------------------------------------------


def test_alt_word_convention():
    assert str(Word.alt(3)) == "∧∨∧"
    for n in range(9):
        w = Word.alt(n)
        assert w.count_up() == (n + 1) // 2
        assert n == 0 or w[-1] == UP


def test_word_dual():
    assert Word.of("^v^").dual() == Word.of("v^v")
    assert Word.of("^v").dual() == Word.of("^v")


def test_matching_rules():
    w = Word.of("v^")
    PlanarMatching(w, w, ((("b", 0), ("t", 0)), (("b", 1), ("t", 1))))
    with pytest.raises(DiagramError):  # same letters in the same word
        PlanarMatching(Word.of("^^"), Word.empty(), ((("b", 0), ("b", 1)),))
    with pytest.raises(DiagramError):  # distinct letters across words
        PlanarMatching(Word.of("^"), Word.of("v"), ((("b", 0), ("t", 0)),))
    with pytest.raises(DiagramError):  # crossings
        PlanarMatching(
            Word.of("v^v^"),
            Word.empty(),
            ((("b", 0), ("b", 2)), (("b", 1), ("b", 3))),
        )
    with pytest.raises(DiagramError, match="bad endpoint side"):
        PlanarMatching(w, w, ((("b", 0), ("x", 0)), (("b", 1), ("t", 1))))
    with pytest.raises(DiagramError, match="t:2 out of range"):
        PlanarMatching(w, w, ((("b", 0), ("t", 2)), (("b", 1), ("t", 1))))
    with pytest.raises(DiagramError, match="b:0 matched twice"):
        PlanarMatching(w, w, ((("b", 0), ("t", 0)), (("b", 0), ("t", 1))))
    with pytest.raises(DiagramError, match="not perfect"):
        PlanarMatching(w, w, ((("b", 0), ("t", 0)),))
    # matchings built from a circle involution go through the same checks
    assert PlanarMatching._of(w, w, (3, 2, 1, 0)) == PlanarMatching.identity(w)
    for source, target, inv, message in (
        (w, w, (3, 2, 1, 1), "perfect pairing"),
        (w, w, (0, 2, 1, 3), "perfect pairing"),
        (w, w, (3, 2), "cover both words"),
        (w, w, (2, 3, 0, 1), "identical letters"),
        (Word.of("^^"), Word.empty(), (1, 0), "distinct letters"),
        (Word.of("v^^v"), Word.empty(), (2, 3, 0, 1), "crossings"),
    ):
        with pytest.raises(DiagramError, match=message):
            PlanarMatching._of(source, target, inv)


def test_basis_counts_match_catalan():
    for n in range(0, 11):
        basis = enumerate_basis(Word.alt(n), Word.alt(n))
        assert len(basis) == catalan(n), n


def test_basis_edge_cases():
    assert len(enumerate_basis(Word.empty(), Word.empty())) == 1
    assert enumerate_basis(Word.of("^"), Word.empty()) == []
    assert len(enumerate_basis(Word.alt(6), Word.alt(6))) == 132


def test_basis_deterministic_order():
    a = enumerate_basis(Word.alt(4), Word.alt(4))
    b = enumerate_basis(Word.alt(4), Word.alt(4))
    assert a == b
    assert a == sorted(a, key=lambda m: m.pairs)


def test_printing_computes_each_order_key_once_per_term(monkeypatch):
    """A morphism sorts its terms by _order_key and prints each matching
    from the same key, so printing costs one key per term; a complex
    prints each distinct entry object once, however many blocks share it."""
    import tlab.tldiag as tldiag
    from tlab.complexes import build_continuant

    tower = generic_tower()
    morphisms = [jw(tower, 4), TLMorphism.identity(tower, Word.alt(3)), TLMorphism.zero(tower, Word.alt(2), Word.alt(2))]
    complex_ = build_continuant(8, triple=tower).complex
    entries = {id(e): e for d in complex_.diffs.values() for e in d.blocks.values()}.values()
    expected = [str(m) for m in morphisms]
    calls = []
    original = tldiag._order_key

    def counted(matching):
        calls.append(matching)
        return original(matching)

    monkeypatch.setattr(tldiag, "_order_key", counted)
    assert [str(m) for m in morphisms] == expected
    assert len(calls) == sum(len(m.terms) for m in morphisms) == 14 + 1
    del calls[:]
    complex_.to_json_dict()
    assert len(calls) == sum(len(e.terms) for e in entries) > 0
    single = enumerate_basis(Word.alt(4), Word.alt(4))[1]
    del calls[:]
    assert str(single) == single._text(original(single)) and len(calls) == 1


# -- composition and tensor ---------------------------------------------------


def test_generator_relations(tower):
    d1, d2 = tower.delta1, tower.delta2
    e1 = TLMorphism.e(tower, 2, 1)
    assert compose(e1, e1) == d1 * e1
    a, b = TLMorphism.e(tower, 3, 1), TLMorphism.e(tower, 3, 2)
    assert compose(a, compose(b, a)) == a
    assert compose(b, compose(a, b)) == b
    assert compose(a, a) == d1 * a
    assert compose(b, b) == d2 * b


def test_identity_and_associativity(tower):
    rng = random.Random(5)
    w = Word.alt(3)
    ident = TLMorphism.identity(tower, w)
    for _ in range(100):
        f = rand_morph(tower, w, w, rng)
        g = rand_morph(tower, w, w, rng)
        h = rand_morph(tower, w, w, rng)
        assert compose(ident, f) == f == compose(f, ident)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_boundary_guard(tower):
    with pytest.raises(DiagramError):
        compose(TLMorphism.e(tower, 2, 1), TLMorphism.e(tower, 3, 1))


def test_interchange_law(tower):
    rng = random.Random(9)
    words = [Word.alt(2), Word.alt(3)]
    for _ in range(50):
        w1, w2 = rng.choice(words), rng.choice(words)
        f, h = rand_morph(tower, w1, w1, rng), rand_morph(tower, w1, w1, rng)
        g, k = rand_morph(tower, w2, w2, rng), rand_morph(tower, w2, w2, rng)
        assert compose(tensor(f, g), tensor(h, k)) == tensor(compose(f, h), compose(g, k))


def test_tensor_identities(tower):
    up = TLMorphism.identity(tower, Word.single(UP))
    assert tensor(up, up) == TLMorphism.identity(tower, Word.of("^^"))
    cup = TLMorphism.co(tower, UP)
    cap = TLMorphism.ev(tower, UP)
    both = tensor(cup, cap)
    assert both.source == Word.of("v^")
    assert both.target == Word.of("^v")


def test_dual_is_contravariant(tower):
    rng = random.Random(13)
    w = Word.alt(3)
    for _ in range(20):
        f = rand_morph(tower, w, w, rng)
        g = rand_morph(tower, w, w, rng)
        assert compose(f, g).dual() == compose(g.dual(), f.dual())


# -- Jones-Wenzl ---------------------------------------------------------------


def test_jw2_generic(qt_balanced):
    t = qt_balanced.delta1
    got = jw(qt_balanced, 2)
    want = TLMorphism.identity(qt_balanced, Word.alt(2)) - (1 / t) * TLMorphism.e(qt_balanced, 2, 1)
    assert got == want


def test_jw1_is_identity(tower):
    assert jw(tower, 1) == TLMorphism.identity(tower, Word.alt(1))


def test_jw5_fails_over_f2_zero(f2_zero):
    result = jw(f2_zero, 5)
    assert isinstance(result, NotExists)
    assert "binom(5,2)" in result.reason


def test_jw_builders_agree(tower, qt_balanced, f2_zero):
    for n in range(2, 5):
        assert _jw_by_solve(tower, n) == _jw_by_recursion(tower, n) == jw(tower, n)
        assert _jw_by_solve(qt_balanced, n) == _jw_by_recursion(qt_balanced, n) == jw(qt_balanced, n)
    assert _jw_by_solve(f2_zero, 3) == _reduce_from_integer_lift(f2_zero, 3, 2) == jw(f2_zero, 3)


# Test-only reference constructions for the cases where the recursion is
# blocked but JW_n exists, computed apart from the integer table that jw()
# divides at the point there.


def _reduce_from_integer_lift(triple, n, m):
    """JW_n over a balanced prime-field triple as the reduction mod p of
    JW_n over Q at the integer loop value m, which must reduce to the
    triple's loop value and keep the recursion over Q legal."""
    ring = triple.ring
    assert triple.delta1 == triple.delta2 == ring.from_int(m)
    rationals = construct_ring("Q")
    universal = _jw_by_recursion(Triple(rationals, rationals.from_int(m), rationals.from_int(m)), n)
    terms = {}
    for matching, coeff in universal.terms.items():
        num, den = coeff.payload
        inv = ring.from_int(den).inverse()
        assert inv is not None, f"a denominator of JW_{n} at {m} is divisible by p"
        terms[matching] = ring.from_int(num) * inv
    return TLMorphism(triple, Word.alt(n), Word.alt(n), terms)


def _horner(poly, points):
    """A Z[x1..xk] polynomial as nested int tuples, ascending, at the points
    x1, ..., xk (innermost variable first)."""
    *inner, x = points
    acc = x.ring.zero
    for c in reversed(poly):
        acc = acc * x + (_horner(c, inner) if inner else x.ring.from_int(c))
    return acc


def _specialize_universal(triple, n):
    """JW_n of the triple by evaluating the coefficients P/D of the universal
    idempotent, over Q(t) for a balanced triple and over Q(t)(u) otherwise."""
    if triple.delta1 == triple.delta2:
        ring = construct_ring("ratfun:Q")
        t = ring.generators()["t"]
        universal, points = jw(Triple(ring, t, t), n), (triple.delta1,)
    else:
        universal, points = jw(generic_tower(), n), (triple.delta1, triple.delta2)
    terms = {}
    for matching, coeff in universal.terms.items():
        num, den = coeff.payload
        inv = _horner(den, points).inverse()
        assert inv is not None, f"a denominator of the universal JW_{n} vanishes"
        terms[matching] = _horner(num, points) * inv
    return TLMorphism(triple, Word.alt(n), Word.alt(n), terms)


def _triple(spec, d1, d2):
    ring = construct_ring(spec)
    return Triple(ring, parse_element(ring, d1), parse_element(ring, d2))


def test_blocked_jw_matches_the_reference_constructions():
    for (spec, d1, d2), n, m in ((("Fp:2", "0", "0"), 3, 2), (("Fp:2", "0", "0"), 7, 2),
                                  (("Fp:3", "2", "2"), 5, 2)):
        triple = _triple(spec, d1, d2)
        assert not _recursion_legal(triple, n), (spec, n)
        assert jw(triple, n) == _reduce_from_integer_lift(triple, n, m), (spec, n)
    for (spec, d1, d2), n in ((("Fp:7", "3", "5"), 5), (("cyclo:6", "q+q^-1", "q+q^-1"), 5)):
        triple = _triple(spec, d1, d2)
        assert not _recursion_legal(triple, n), (spec, n)
        assert jw(triple, n) == _specialize_universal(triple, n), (spec, n)
    # binom(4, 2) = 6 vanishes mod 3, so there is nothing to construct
    assert isinstance(jw(_triple("Fp:3", "2", "2"), 4), NotExists)


def test_recursion_legality_takes_no_inverse(monkeypatch):
    # every coefficient ring is a field, so [k] is invertible when non-zero
    cases = [
        (("Fp:2", "0", "0"), 3), (("Fp:3", "2", "2"), 5), (("Fp:7", "3", "5"), 5),
        (("Fp:101", "3", "5"), 9), (("Q", "1", "3"), 6), (("cyclo:6", "q+q^-1", "q+q^-1"), 5),
        (("cyclo:12", "q", "q^-1"), 7), (("cyclo:12", "q+q^-1", "q^2+q^-2"), 7),
        (("cyclo:10", "q+q^-1", "q+q^-1"), 4), (("ratfun:Q", "t", "t"), 6),
    ]
    triples = [(_triple(*spec), n) for spec, n in cases]

    def no_inverse(self):
        raise AssertionError("_recursion_legal took an inverse")

    monkeypatch.setattr(RingValue, "inverse", no_inverse)
    legal = [_recursion_legal(triple, n) for triple, n in triples]
    monkeypatch.undo()
    want = [all(qnum(triple, k)[0].inverse() is not None for k in range(2, n + 1)) for triple, n in triples]
    assert legal == want
    assert legal == [False, False, False, True, False, False, False, True, True, True]


def _jw_by_sandwich(triple, n):
    """JW_1, ..., JW_n by the Wenzl recursion as a product of morphisms,
    JW_{k+1} = A - ([k]/[k+1]) A e_k A with A = 1 (x) JW_k."""
    levels = [TLMorphism.identity(triple, Word.alt(1))]
    for k in range(1, n):
        padded = tensor(TLMorphism.identity(triple, Word.single(Word.alt(k + 1)[0])), levels[-1])
        coeff = -(qnum(triple, k)[0] * qnum(triple, k + 1)[0].inverse())
        sandwich = compose(compose(padded, TLMorphism.e(triple, k + 1, k)), padded)
        levels.append(padded + coeff * sandwich)
    return levels


def test_single_clasp_expansion_matches_the_sandwich_recursion():
    # lopsided triples included; the prime field also at n = 7
    for (spec, d1, d2), top in (
        (("Q", "3", "3"), 6), (("Q", "2", "5"), 6), (("Q", "3", "7"), 6), (("Q", "-3", "7"), 6),
        (("Fp:101", "3", "5"), 7), (("ratfun:Q", "t", "t"), 6), (("ratfun:Q", "t", "t^2"), 6),
        (("ratfun:ratfun:Q", "t", "u"), 6), (("cyclo:12", "q+q^-1", "q^2+q^-2"), 6),
    ):
        triple = _triple(spec, d1, d2)
        for n, reference in enumerate(_jw_by_sandwich(triple, top), start=1):
            assert _jw_by_recursion(triple, n) == reference, (spec, d1, d2, n)


def test_clasp_is_the_sandwich_recursion_times_the_quantum_numbers():
    # P_n = c_n * JW_n with c_n = [2]...[n], on triples where [2..n] are invertible
    for (spec, d1, d2), top in (
        (("Fp:101", "3", "5"), 7), (("Q", "2", "5"), 6), (("Q", "-3", "7"), 6),
        (("cyclo:12", "q+q^-1", "q^2+q^-2"), 6), (("ratfun:Q", "t+t^-1", "2*t"), 5), (("ratfun:Q", "t", "1"), 6),
    ):
        triple = _triple(spec, d1, d2)
        c_n = triple.ring.one
        for n, reference in enumerate(_jw_by_sandwich(triple, top), start=1):
            c_n = c_n * qnum(triple, n)[0]  # [1] = 1
            terms, c = _clasp(triple, n)
            assert c == c_n and terms == reference.scale(c_n).terms, (spec, d1, d2, n)


def test_every_matching_the_clasp_and_its_certificate_return_was_checked(monkeypatch):
    # _clasp and _times_generator run on bare involutions; each matching they
    # hand back must still have been built through PlanarMatching._store
    store, checked = PlanarMatching._store, []

    def recording_store(matching, source, target, inv):
        store(matching, source, target, inv)
        checked.append(matching)  # kept alive, so the ids below stay unique

    monkeypatch.setattr(PlanarMatching, "_store", recording_store)
    one = _INTEGRAL.ring.one
    for n in range(1, 9):
        word = Word.alt(n)
        basis = enumerate_basis(word, word)
        checked.clear()
        terms, _ = _clasp(_INTEGRAL, n)
        assert set(terms) == set(basis)  # over Z[z] no coefficient of P_n vanishes
        assert {id(m) for m in terms} <= {id(m) for m in checked}, n
        for i in range(1, n):
            checked.clear()
            assert not _times_generator(_INTEGRAL, terms, i), (n, i)
            products = _times_generator(_INTEGRAL, dict.fromkeys(basis, one), i)
            assert products and {id(m) for m in products} <= {id(m) for m in checked}, (n, i)


def test_jw_recursion_guard(f2_zero):
    # jw picks its builder itself: there is no strategy to ask for
    with pytest.raises(TypeError):
        jw(f2_zero, 3, "recursion")
    # [2] = 0 over F_2 at (0, 0), so c_3 = [2][3] has no inverse
    with pytest.raises(ValueError, match="invertible"):
        _jw_by_recursion(f2_zero, 3)


def test_jw_defining_properties(tower, qt_balanced, zeta10_balanced, f2_zero):
    # identity coefficient and two-sided kills are checked inside jw(); the
    # quadratic idempotency is asserted here directly
    cases = [
        (tower, range(2, 5)),
        (qt_balanced, range(2, 6)),
        (zeta10_balanced, range(2, 5)),
        (f2_zero, [3]),
    ]
    for triple, span in cases:
        for n in span:
            result = jw(triple, n)
            assert isinstance(result, TLMorphism), (triple, n)
            assert compose(result, result) == result, (triple, n)
            assert result.identity_coefficient().is_one()
            for i in range(1, n):
                gen = TLMorphism.e(triple, n, i)
                assert compose(gen, result).is_zero()
                assert compose(result, gen).is_zero()


def test_jw_existence_agrees_with_criterion_small_sweep():
    rings = [
        ("Q", ["0", "1", "2", "3", "-2"]),
        ("Fp:2", ["0", "1"]),
        ("Fp:3", ["0", "1", "2"]),
        ("Fp:5", ["0", "2", "3"]),
    ]
    combos = 0
    for spec, values in rings:
        ring = construct_ring(spec)
        for a in values:
            for b in values:
                triple = Triple(ring, parse_element(ring, a), parse_element(ring, b))
                for n in range(1, 6):
                    combos += 1
                    exists = not isinstance(jw(triple, n), NotExists)
                    assert exists == (hazi_witness(triple, n) is None), (spec, a, b, n)
    assert combos >= 200


def test_hazi_witness_matches_the_product_definition():
    """The factor test agrees with inverting the multiplied-out binomials."""
    cases = {
        "Q": [("0", "0"), ("1", "1"), ("2", "2"), ("-2", "-2"), ("2", "3"), ("1", "3")],
        "Fp:2": [("0", "0"), ("1", "1"), ("0", "1")],
        "Fp:3": [("2", "2"), ("1", "2"), ("0", "0")],
        "Fp:7": [("3", "5"), ("2", "2"), ("2", "3")],
        "cyclo:6": [("q+q^-1", "q+q^-1"), ("q", "q^-1")],
        "cyclo:10": [("q+q^-1", "q+q^-1"), ("q^2+q^-2", "q^2+q^-2"), ("q", "1")],
        "cyclo:12": [("q+q^-1", "q+q^-1"), ("q", "q^-1")],
        "ratfun:Q": [("t", "t"), ("t", "1/t"), ("t", "0"), ("t", "2/t")],
        "ratfun:ratfun:Q": [("t", "u"), ("t", "1/t"), ("u", "1/u"), ("t", "t"), ("t*u", "1/u")],
    }
    witnessed = set()
    for spec, values in cases.items():
        for d1, d2 in values:
            triple = _triple(spec, d1, d2)
            for n in range(1, 11):
                want = next((i for i in range(1, n + 1) if qbinom(triple, n, i).inverse() is None), None)
                assert hazi_witness(triple, n) == want, (spec, d1, d2, n)
                if want is not None:
                    witnessed.add(spec)
    assert witnessed == set(cases)


def test_jw_lucas_cases():
    for p, l in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        ring = construct_ring(f"Fp:{p}")
        triple = Triple(ring, ring.from_int(2), ring.from_int(2))
        result = jw(triple, p**l - 1)
        assert isinstance(result, TLMorphism), (p, l)


# -- traces ---------------------------------------------------------------------


def test_partial_trace_anchors(tower):
    d1, d2 = tower.delta1, tower.delta2
    id1 = TLMorphism.identity(tower, Word.alt(1))
    assert partial_trace(TLMorphism.identity(tower, Word.alt(2))) == d2 * id1
    assert partial_trace(TLMorphism.e(tower, 2, 1)) == id1
    assert partial_trace(jw(tower, 2)) == ((d1 * d2 - 1) / d1) * id1


def test_partial_trace_rejects_empty(tower):
    with pytest.raises(DiagramError):
        partial_trace(TLMorphism.identity(tower, Word.empty()))


def test_ew_identity(tower, qt_balanced, zeta10_balanced):
    # the scalar is [n+1]/[n] in the same triple, wherever [n] is invertible
    for triple, top in ((tower, 5), (qt_balanced, 6), (zeta10_balanced, 4)):
        for n in range(2, top + 1):
            jw_n = jw(triple, n)
            jw_prev = jw(triple, n - 1)
            num = qnum(triple, n + 1)[0]
            den_inv = qnum(triple, n)[0].inverse()
            assert den_inv is not None
            assert partial_trace(jw_n) == (num * den_inv) * jw_prev, (triple, n)


def test_markov_trace_anchors(tower):
    d1, d2 = tower.delta1, tower.delta2
    assert markov_trace(TLMorphism.identity(tower, Word.alt(1))) == d2
    assert markov_trace(TLMorphism.e(tower, 2, 1)) == d1
    assert markov_trace(jw(tower, 2)) == d1 * d2 - 1


def test_markov_trace_rejects_non_endomorphism(tower):
    with pytest.raises(DiagramError):
        markov_trace(TLMorphism.ev(tower, UP))


def test_markov_trace_of_scalar(tower):
    empty = TLMorphism.identity(tower, Word.empty())
    assert markov_trace(empty).is_one()


def test_markov_trace_of_jw(tower, qt_balanced):
    # right-side closure gives the quantum numbers of the swapped triple;
    # in balanced triples the subscript does not matter
    swapped = tower.swap()
    for n in range(1, 6):
        assert markov_trace(jw(tower, n)) == qnum(swapped, n + 1)[0], n
    for n in range(1, 7):
        assert markov_trace(jw(qt_balanced, n)) == qnum(qt_balanced, n + 1)[0], n


def test_negligibility(zeta10_balanced, qt_balanced):
    for N, spec in ((3, "cyclo:6"), (4, "cyclo:8"), (5, "cyclo:10"), (6, "cyclo:12")):
        ring = construct_ring(spec)
        triple = FiberParams(ring, ring.generators()["q"]).balanced_triple()
        jw_top = jw(triple, N - 1)
        assert isinstance(jw_top, TLMorphism), N
        assert is_negligible(jw_top), N
    assert not is_negligible(TLMorphism.identity(qt_balanced, Word.alt(1)))
    assert is_negligible(TLMorphism.zero(qt_balanced, Word.alt(2), Word.alt(2)))


# -- rotatability ---------------------------------------------------------------


def test_rotatability_examples(tower, f2_zero, qt_balanced):
    assert rotatability(tower, 1).status == "rotatable"
    assert rotatability(f2_zero, 5).status == "no_jw"
    for N in (4, 5, 6):
        ring = construct_ring(f"cyclo:{2 * N}")
        triple = FiberParams(ring, ring.generators()["q"]).balanced_triple()
        report = rotatability(triple, N - 1)
        assert report.status == "rotatable", N
        assert report.binomials_vanish and report.cyclotomic_vanish
    assert rotatability(qt_balanced, 3).status == "not_rotatable"


def test_rotatability_criteria_agree(tower, qt_balanced, zeta10_balanced, zeta12_balanced):
    # the all-binomials condition and the single cyclotomic condition are
    # cross-checked inside rotatability(); sweep a few integral domains
    triples = [tower, qt_balanced, zeta10_balanced, zeta12_balanced]
    Q = construct_ring("Q")
    triples.append(Triple(Q, Q.from_int(2), Q.from_int(3)))
    for triple in triples:
        for n in range(2, 7):
            report = rotatability(triple, n)
            if report.status != "no_jw":
                assert report.binomials_vanish == report.cyclotomic_vanish


# -- rescaling -------------------------------------------------------------------


def test_rescaling_covariance(tower):
    rng = random.Random(21)
    lam = parse_element(tower.ring, "t")
    words = [Word.alt(2), Word.alt(3)]
    for _ in range(30):
        w = rng.choice(words)
        f = rand_morph(tower, w, w, rng)
        g = rand_morph(tower, w, w, rng)
        left = rescale_transport(compose(f, g), lam)
        right = compose(rescale_transport(f, lam), rescale_transport(g, lam))
        assert left == right


def test_rescaling_changes_triple(tower):
    lam = parse_element(tower.ring, "t^2")
    f = TLMorphism.e(tower, 2, 1)
    moved = rescale_transport(f, lam)
    assert moved.triple.delta1 == lam * tower.delta1
    assert moved.triple.delta2 == tower.delta2 / lam


def test_negligible_exactly_when_the_jw_trace_vanishes():
    # `homology --model 2tl` builds no JW_n: it decides existence by the
    # binomial criterion alone, reads tr(JW_n) as [n+1] (the proof is beside
    # it in cli.py) and negligibility off that trace, since JW_n is killed by
    # every e_i and so tr(JW_n m) = [m = id] tr(JW_n).  jw, markov_trace and
    # is_negligible, the basis-loop definition, are the oracles, blocked
    # cases included
    cases = [(f"cyclo:{m}", "q+q^-1", 6) for m in (8, 10, 12)]
    cases += [("Fp:2", "0", 7), ("Fp:3", "2", 7), ("Fp:5", "2", 7), ("ratfun:Q", "t", 5), ("Q", "3", 5)]
    negligible = []
    for spec, d, top in cases:
        triple = Triple.parse(spec, d, d)
        for n in range(1, top + 1):
            f = jw(triple, n)
            assert (hazi_witness(triple, n) is None) == (not isinstance(f, NotExists)), (spec, n)
            if isinstance(f, NotExists):
                continue
            trace = markov_trace(f)
            assert trace == qnum(triple, n + 1)[0], (spec, n)
            verdict = is_negligible(f)
            assert verdict == trace.is_zero(), (spec, n)
            if verdict:
                negligible.append((spec, n))
    # the Lucas cases over F_2 and F_3 and the roots of unity are reached
    assert {("Fp:2", 3), ("Fp:2", 7), ("Fp:3", 5), ("cyclo:10", 4)} <= set(negligible)


def test_jw_caches_only_checked_idempotents(monkeypatch):
    from tlab import tldiag

    monkeypatch.setattr(tldiag, "_JW_CACHE", {})
    checked = []
    original = tldiag._check_jw
    monkeypatch.setattr(
        tldiag, "_check_jw", lambda candidate, n: checked.append(n) or original(candidate, n)
    )
    triple = _triple("Fp:101", "3", "5")
    jw7 = jw(triple, 7)
    assert checked == [7]
    jw5 = jw(triple, 5)
    assert checked == [7, 5]
    assert jw(triple, 5) is jw5 and jw(triple, 7) is jw7
    assert checked == [7, 5]
    # the recursion builds from level 1, whatever jw has cached
    assert _jw_by_recursion(triple, 6) == _jw_by_solve(triple, 6)


def test_printing_leaves_nothing_allocated():
    """Sorting and printing read the boundary involutions and cache nothing
    on the matchings they print."""
    import gc
    import tracemalloc

    from tlab.complexes import build_continuant

    tower = generic_tower()
    complex_ = build_continuant(12, triple=tower).complex
    jw6 = jw(tower, 6)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        payload, text = complex_.to_json_dict(), str(jw6)
        assert payload["degrees"] and text
        del payload, text
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_reference import ExactMatrix, identity, kron, matmul, realize_formal, realize_morphism
from test_formal_properties import formal_morphisms, formal_objects
from trace_reference import is_negligible
from tlab.complexes import FormalComplex, FormalMorphism, FormalObject, build_continuant
from tlab.contpoly import kappa
from tlab.rings import _zmonomial, _zneg, construct_ring, parse_element
from tlab.sl2model import (
    FiberParams,
    ModelError,
    _matching_entries,
    homology,
    word_dimension,
)
from tlab.tldiag import (
    TLMorphism,
    Word,
    compose,
    enumerate_basis,
    flip_letter,
    jw,
    tensor,
)


@pytest.fixture(scope="module")
def generic_params():
    ring = construct_ring("ratfun:Q")
    return FiberParams(ring, ring.generators()["t"])


@pytest.fixture(scope="module")
def zeta10_params():
    ring = construct_ring("cyclo:10")
    return FiberParams(ring, ring.generators()["q"])


def test_params_require_invertible_q():
    Q = construct_ring("Q")
    with pytest.raises(ModelError):
        FiberParams(Q, Q.zero)


def test_identity_realizes_to_identity(generic_params):
    T = generic_params.balanced_triple()
    got = realize_morphism(TLMorphism.identity(T, Word.alt(1)), generic_params)
    assert got == identity(generic_params.ring, 2)
    assert word_dimension(Word.alt(3)) == 8


def test_ev_matrix_shape_and_weights(generic_params):
    T = generic_params.balanced_triple()
    ev = realize_morphism(TLMorphism.ev(T, "^"), generic_params)
    assert (ev.nrows, ev.ncols) == (1, 4)
    nonzero = [e for row in ev.rows for e in row if not e.is_zero()]
    assert len(nonzero) == 2
    q = generic_params.q
    assert set(map(str, nonzero)) == {"1", str(q.inverse())}


def test_snake_composites_are_identities(generic_params):
    # (ev (x) id) after (id (x) co) straightens to the identity strand
    T = generic_params.balanced_triple()
    for letter in ("^", "v"):
        other = flip_letter(letter)
        first = tensor(TLMorphism.identity(T, Word.single(other)), TLMorphism.co(T, letter))
        second = tensor(TLMorphism.ev(T, letter), TLMorphism.identity(T, Word.single(other)))
        snake = compose(second, first)
        assert snake == TLMorphism.identity(T, Word.single(other))
        assert realize_morphism(snake, generic_params) == identity(generic_params.ring, 2)


def test_loop_values(generic_params):
    T = generic_params.balanced_triple()
    for letter in ("^", "v"):
        loop = compose(TLMorphism.ev(T, letter), TLMorphism.co(T, flip_letter(letter)))
        got = realize_morphism(loop, generic_params)
        assert got.rows[0][0] == generic_params.delta


def test_triple_mismatch_rejected(generic_params, tower):
    with pytest.raises(ModelError):
        realize_morphism(TLMorphism.identity(tower, Word.alt(1)), generic_params)


def test_zero_morphism_over_another_triple_rejected(generic_params, tower):
    # a zero morphism realizes to a zero matrix, but only over its own triple
    w = Word.alt(2)
    ring = generic_params.ring
    other_q = FiberParams(ring, ring.from_int(2) * generic_params.q).balanced_triple()
    for triple in (tower, other_q):
        with pytest.raises(ModelError, match="balanced"):
            realize_morphism(TLMorphism.zero(triple, w, w), generic_params)
        with pytest.raises(ModelError, match="balanced"):
            realize_formal(FormalMorphism.zero(triple, FormalObject.of(w), FormalObject.of(w)), generic_params)


def test_each_entry_of_a_formal_morphism_is_checked(generic_params, tower):
    w = FormalObject.of(Word.alt(1))
    balanced = generic_params.balanced_triple()
    ident = TLMorphism.identity(tower, Word.alt(1))
    mixed = FormalMorphism._from_blocks(balanced, w, w, {(0, 0): ident})
    with pytest.raises(ModelError, match="balanced"):
        realize_formal(mixed, generic_params)


def _realize_entry(f, params):
    """One diagram morphism realized as its own matrix."""
    out = ExactMatrix.zeros(params.ring, word_dimension(f.target), word_dimension(f.source))
    for matching, coeff in f.terms.items():
        for row, col, exponent in _matching_entries(matching):
            value = coeff * params.q**exponent
            old = out.entries[row].pop(col, None)
            if old is not None:
                value = old + value
            if value:
                out.entries[row][col] = value
    return out


def _per_entry_assembly(morphism, params):
    """The reference: realize every entry as its own matrix, then copy it
    cell by cell into its block of the whole matrix."""
    rows, cols = [0], [0]
    for offsets, obj in ((rows, morphism.target), (cols, morphism.source)):
        for w in obj.summands:
            offsets.append(offsets[-1] + 2 ** len(w))
    out = ExactMatrix.zeros(params.ring, rows[-1], cols[-1])
    for (i, j), entry in morphism.blocks.items():
        for a, row in enumerate(_realize_entry(entry, params).entries):
            for b, value in row.items():
                out.entries[rows[i] + a][cols[j] + b] = value
    return out


_Q, _F5, _QT, _C10 = (construct_ring(spec) for spec in ("Q", "Fp:5", "ratfun:Q", "cyclo:10"))
BALANCED_PARAMS = (
    FiberParams(_Q, _Q.one),  # every cell of every diagram is 1, so sums cancel often
    FiberParams(_F5, _F5.from_int(2)),  # q + q^-1 = 0
    FiberParams(_QT, _QT.generators()["t"]),
    FiberParams(_C10, _C10.generators()["q"]),
)


@st.composite
def dense_formal_morphisms(draw, triple, source, target):
    """Every basis diagram of every entry with a coefficient in {-1, 0, 1}:
    at q = 1 every realized cell is a sum of these, and many cancel."""
    coefficients = st.sampled_from([triple.ring.from_int(k) for k in (-1, 0, 1)])

    def entry(ws, wt):
        return TLMorphism(triple, ws, wt, {m: draw(coefficients) for m in enumerate_basis(ws, wt)})

    rows = [[entry(ws, wt) for ws in source.summands] for wt in target.summands]
    return FormalMorphism(triple, source, target, rows)


@st.composite
def realization_cases(draw):
    """A formal morphism over a balanced triple; the source may be empty,
    entries may be zero, and terms may cancel in the realized cells."""
    params = draw(st.sampled_from(BALANCED_PARAMS))
    charge = draw(st.integers(-1, 1))
    S, T = draw(formal_objects(charge, min_size=0)), draw(formal_objects(charge))
    morphisms = st.sampled_from((formal_morphisms, dense_formal_morphisms))
    return params, draw(draw(morphisms)(params.balanced_triple(), S, T))


@settings(max_examples=150, deadline=None)
@given(realization_cases())
def test_one_pass_realization_is_the_per_entry_assembly(case):
    params, morphism = case
    got, want = realize_formal(morphism, params), _per_entry_assembly(morphism, params)
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert got.entries == want.entries
    # the same cells in the same order, and no zero stored by a cancellation
    assert [list(row) for row in got.entries] == [list(row) for row in want.entries]
    assert all(v for row in got.entries for v in row.values())


def test_cancelling_cells_are_not_stored():
    # at q = 1 the identity and e_1 on alt(2) share the two middle diagonal
    # cells, which cancel in id - e_1
    Q = construct_ring("Q")
    params = FiberParams(Q, Q.one)
    T = params.balanced_triple()
    f = TLMorphism.identity(T, Word.alt(2)) - TLMorphism.e(T, 2, 1)
    got = realize_morphism(f, params)
    w = FormalObject.of(Word.alt(2))
    assert got.entries == _per_entry_assembly(FormalMorphism(T, w, w, [[f]]), params).entries
    assert {(r, c): str(v) for r, row in enumerate(got.entries) for c, v in row.items()} == {
        (0, 0): "1", (1, 2): "-1", (2, 1): "-1", (3, 3): "1"
    }


def test_functoriality_random_pairs():
    F7 = construct_ring("Fp:7")
    params = FiberParams(F7, F7.from_int(2))
    T = params.balanced_triple()
    rng = random.Random(11)
    words = [Word.alt(2), Word.alt(3), Word.alt(4)]

    def rand_morph(w):
        out = TLMorphism.zero(T, w, w)
        for m in enumerate_basis(w, w):
            out = out + T.ring.from_int(rng.randint(-2, 2)) * TLMorphism.from_matching(T, m)
        return out

    for _ in range(100):
        w1, w2 = rng.choice(words), rng.choice(words)
        f, g = rand_morph(w1), rand_morph(w1)
        h = rand_morph(w2)
        assert realize_morphism(compose(f, g), params) == matmul(
            realize_morphism(f, params), realize_morphism(g, params)
        )
        assert realize_morphism(tensor(f, h), params) == kron(
            realize_morphism(f, params), realize_morphism(h, params)
        )


CONTINUANT_FIBERS = {"cyclo:8": "q", "cyclo:10": "q", "cyclo:12": "q", "ratfun:Q": "t", "Fp:7": "3"}


def _signed_monomial(value) -> bool:
    """Whether a value of Q(t) is +-t^a."""
    num, den = value.payload
    return _zmonomial(den, 1) is not None and any(_zmonomial(p, 1) is not None for p in (num, _zneg(num, 1)))


@pytest.mark.parametrize("variant", ["lower", "upper"])
@pytest.mark.parametrize("spec, q", CONTINUANT_FIBERS.items())
def test_realization_is_a_functor_on_continuant_differentials(spec, q, variant):
    # homology checks d^2 = 0 on the formal complex only; realizing d d is
    # the product of the realized differentials, maps between different words
    ring = construct_ring(spec)
    params = FiberParams(ring, parse_element(ring, q))
    T = params.balanced_triple()
    for n in range(10):
        diffs = build_continuant(n, variant, T).complex.diffs
        realized = {k: realize_formal(d, params) for k, d in diffs.items()}
        for k in diffs:
            if k - 1 in diffs:
                square = realize_formal(diffs[k - 1] * diffs[k], params)
                assert square == matmul(realized[k - 1], realized[k]), (n, k)
                assert square.is_zero(), (n, k)
        if spec == "ratfun:Q":  # every realized cell is a single +-t^a
            assert all(_signed_monomial(v) for m in realized.values() for row in m.entries for v in row.values()), n


def test_homology_concentration_generic(generic_params):
    T = generic_params.balanced_triple()
    for n in range(0, 9):
        build = build_continuant(n, "lower", T)
        report = homology(build.complex, generic_params)
        assert report.concentrated_in() in ([], [0]), n
        assert report.degrees[0].homology == n + 1, n
        assert report.euler_terms == round(kappa(n).evaluate_float(2.0)), n
        assert report.euler_homology == report.euler_terms


def test_jw_image_identification_generic(generic_params):
    # rank of the realized idempotent equals dim H_0 = n + 1; at n = 6 the
    # rank is read off the matrix trace (idempotency is tested separately)
    T = generic_params.balanced_triple()
    ring = generic_params.ring
    for n in range(1, 7):
        realized = realize_morphism(jw(T, n), generic_params)
        trace = sum((row.get(i, ring.zero) for i, row in enumerate(realized.entries)), ring.zero)
        assert trace == ring.from_int(n + 1), n
        if n <= 5:
            assert realized.rank() == n + 1, n


def test_zeta10_degeneration(zeta10_params):
    T = zeta10_params.balanced_triple()
    build = build_continuant(4, "lower", T)
    report = homology(build.complex, zeta10_params)
    assert report.concentrated_in() == [0]
    assert report.degrees[0].homology == 5
    jw4 = jw(T, 4)
    assert realize_morphism(jw4, zeta10_params).rank() == 5
    assert is_negligible(jw4)


def test_zeta12_jw_rank():
    ring = construct_ring("cyclo:12")
    params = FiberParams(ring, ring.generators()["q"])
    T = params.balanced_triple()
    for n in range(1, 6):
        jw_n = jw(T, n)
        assert not isinstance(jw_n, type(None))
        rank = realize_morphism(jw_n, params).rank()
        build = build_continuant(n, "lower", T)
        report = homology(build.complex, params)
        assert rank == report.degrees[0].homology, n


def test_report_table_and_json(zeta10_params):
    T = zeta10_params.balanced_triple()
    report = homology(build_continuant(3, "lower", T).complex, zeta10_params)
    text = str(report)
    assert "degree" in text and "euler" in text
    data = report.to_json_dict()
    assert data["degrees"]["0"]["homology"] == 4


def test_corrupted_differential_fails_the_square_zero_check(zeta10_params):
    T = zeta10_params.balanced_triple()
    good = build_continuant(5, "lower", T).complex
    homology(good, zeta10_params)  # the real differentials square to zero
    # double one entry of the top differential; d d no longer vanishes
    top = max(good.diffs)
    assert top - 1 in good.diffs
    d = good.diffs[top]
    entries = [list(row) for row in d.entries]
    i, j = next((i, j) for i, row in enumerate(entries) for j, e in enumerate(row) if e.terms)
    entries[i][j] = entries[i][j] + entries[i][j]
    diffs = dict(good.diffs)
    diffs[top] = FormalMorphism(T, d.source, d.target, entries)
    bad = FormalComplex(T, good.terms, diffs)
    with pytest.raises(ModelError, match=f"do not square to zero at degree {top}"):
        homology(bad, zeta10_params)


# fibers of the modular certificate's oracle: the field, q, and the
# certificate homology must report there
ORACLE_FIBERS = [
    ("ratfun:Q", "t", "modular"), ("ratfun:Q", "t+1", "modular"),
    ("cyclo:8", "q", "modular"), ("cyclo:10", "q", "modular"), ("cyclo:12", "q", "modular"),
    ("Q", "2", "modular"), ("Q", "-1", "modular"),
    ("Fp:2", "1", "Fp"), ("Fp:3", "2", "Fp"), ("Fp:5", "2", "Fp"), ("Fp:7", "3", "Fp"),
]


def _exact_ranks(complex_, params):
    """The reference: every rank by elimination over the field itself."""
    return {i: realize_formal(d, params).rank() for i, d in complex_.diffs.items()}


def _assert_report_has_ranks(report, ranks):
    for i, d in report.degrees.items():
        assert d.rank_out == ranks.get(i, 0), i
        assert d.image_in == ranks.get(i + 1, 0), i
        assert d.homology == d.dimension - d.rank_out - d.image_in, i


@pytest.mark.parametrize("variant", ["lower", "upper"])
@pytest.mark.parametrize("spec, q, certificate", ORACLE_FIBERS)
def test_certified_ranks_are_the_ranks_over_the_field(spec, q, certificate, variant):
    ring = construct_ring(spec)
    params = FiberParams(ring, parse_element(ring, q))
    for n in range(10):
        complex_ = build_continuant(n, variant, params.balanced_triple()).complex
        report = homology(complex_, params)
        _assert_report_has_ranks(report, _exact_ranks(complex_, params))
        assert report.certificate.split(" ")[0] == certificate, n


def test_modular_certificate_names_the_prime_and_the_image_of_q():
    ring = construct_ring("cyclo:10")
    params = FiberParams(ring, ring.generators()["q"])
    report = homology(build_continuant(4, "lower", params.balanced_triple()).complex, params)
    p, psi = ring.reduction()
    assert report.certificate == f"modular p={p}, a={psi(params.q.payload)}"
    assert p % 10 == 1 and pow(psi(params.q.payload), 10, p) == 1


def test_a_dropped_modular_rank_falls_back_to_elimination(monkeypatch):
    from tlab import sl2model

    ring = construct_ring("ratfun:Q")
    params = FiberParams(ring, ring.generators()["t"])
    complex_ = build_continuant(6, "lower", params.balanced_triple()).complex
    certified = homology(complex_, params)
    assert certified.certificate.startswith("modular")
    kernel, calls = sl2model.rank_mod_p, []

    def one_rank_short(rows, ncols, p):
        calls.append(ncols)
        rank = kernel(rows, ncols, p)
        return rank - 1 if len(calls) == 1 and rank else rank

    monkeypatch.setattr(sl2model, "rank_mod_p", one_rank_short)
    fallback = homology(complex_, params)
    assert calls and fallback.certificate == "exact"
    assert fallback == certified and str(fallback) == str(certified)
    assert fallback.to_json_dict() == certified.to_json_dict()


def test_q_divisible_by_the_prime_falls_back_to_elimination():
    Q = construct_ring("Q")
    p, _ = Q.reduction()
    for q in (Q.from_int(p), Q.from_int(3 * p), Q.one / p):  # psi(q^-1) or psi(q) undefined
        params = FiberParams(Q, q)
        for n in range(6):
            complex_ = build_continuant(n, "lower", params.balanced_triple()).complex
            report = homology(complex_, params)
            assert report.certificate == "exact", (q, n)
            _assert_report_has_ranks(report, _exact_ranks(complex_, params))


def test_rings_without_a_reduction_eliminate_over_the_field():
    for spec, q in (("ratfun:Fp:5", "t"), ("ratfun:cyclo:5", "t")):
        ring = construct_ring(spec)
        params = FiberParams(ring, parse_element(ring, q))
        complex_ = build_continuant(3, "lower", params.balanced_triple()).complex
        report = homology(complex_, params)
        assert ring.reduction() is None and report.certificate == "exact"
        _assert_report_has_ranks(report, _exact_ranks(complex_, params))


@pytest.mark.parametrize("spec, q", [("ratfun:Q", "t"), ("cyclo:10", "q"), ("Q", "2"), ("Fp:7", "3")])
def test_an_unbalanced_complex_still_raises_before_any_rank(spec, q, monkeypatch):
    from tlab import sl2model

    ring = construct_ring(spec)
    params = FiberParams(ring, parse_element(ring, q))
    other = FiberParams(ring, ring.from_int(2) * params.q).balanced_triple()
    monkeypatch.setattr(sl2model, "rank_mod_p", None)  # never reached
    with pytest.raises(ModelError, match="balanced"):
        homology(build_continuant(4, "lower", other).complex, params)


def test_q_is_inverted_once_per_homology_request(monkeypatch, capsys):
    from tlab import rings
    from tlab.cli import main

    ring = construct_ring("cyclo:10")
    q = parse_element(ring, "q^3+2*q-5+q^7/3")
    invert, inverted = rings.CyclotomicField._invert, []

    def counted(self, a):
        inverted.append(a)
        return invert(self, a)

    monkeypatch.setattr(rings.CyclotomicField, "_invert", counted)
    for n in (2, 5):
        inverted.clear()
        assert main(["homology", "--n", str(n), "--ring", "cyclo:10", "--q", "q^3+2*q-5+q^7/3"]) == 0
        assert inverted.count(q.payload) == 1, n
    capsys.readouterr()

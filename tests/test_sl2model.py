import random

import pytest

from tlab.complexes import FormalComplex, FormalMorphism, build_continuant
from tlab.contpoly import kappa
from tlab.linalg import ExactMatrix
from tlab.rings import Triple, construct_ring
from tlab.sl2model import (
    FiberParams,
    ModelError,
    homology,
    realize_morphism,
    realized_trace,
    word_dimension,
)
from tlab.tldiag import (
    TLMorphism,
    Word,
    compose,
    enumerate_basis,
    flip_letter,
    is_negligible,
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
    assert got == ExactMatrix.identity(generic_params.ring, 2)
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
        assert realize_morphism(snake, generic_params) == ExactMatrix.identity(
            generic_params.ring, 2
        )


def test_loop_values(generic_params):
    T = generic_params.balanced_triple()
    for letter in ("^", "v"):
        loop = compose(TLMorphism.ev(T, letter), TLMorphism.co(T, flip_letter(letter)))
        got = realize_morphism(loop, generic_params)
        assert got.rows[0][0] == generic_params.delta


def test_triple_mismatch_rejected(generic_params, tower):
    with pytest.raises(ModelError):
        realize_morphism(TLMorphism.identity(tower, Word.alt(1)), generic_params)


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
        assert realize_morphism(compose(f, g), params) == realize_morphism(
            f, params
        ) * realize_morphism(g, params)
        assert realize_morphism(tensor(f, h), params) == realize_morphism(f, params).kron(
            realize_morphism(h, params)
        )


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
        jw_n = jw(T, n)
        assert realized_trace(jw_n, generic_params) == ring.from_int(n + 1), n
        if n <= 5:
            assert realize_morphism(jw_n, generic_params).rank() == n + 1, n


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

"""Property tests for the sparse formal matrices against a dense reference.

A formal morphism stores only its non-zero entries; the references below
recompute each operation entry by entry from the dense ``entries`` view,
zeros included, and each product pair by pair (``reference_compose``).
Matrices are small, between sums of up to three words of length at most
three, over the tower Q(t)(u) and over F_5."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tlab.complexes import FormalMorphism, FormalObject, build_continuant
from tlab.rings import Triple, construct_ring, generic_tower
from tlab.tldiag import DOWN, UP, TLMorphism, Word, enumerate_basis, tensor

from test_compose_reference import counted_stores, distinct_cells, reference_compose

TOWER = generic_tower()
F5 = construct_ring("Fp:5")
TRIPLES = (TOWER, Triple(F5, F5.from_int(2), F5.from_int(3)))
SETTINGS = settings(max_examples=60, deadline=None)


def _coefficients(triple):
    ring = triple.ring
    small = [ring.from_int(k) for k in (0, 1, -1, 2)]
    return small + [triple.delta1, -triple.delta2]


@st.composite
def words(draw, charge):
    """A word of length at most 3 with #^ - #v = charge; Hom(s, t) is
    non-empty exactly when s and t have the same charge."""
    length = draw(st.sampled_from([n for n in range(abs(charge), 4) if (n - charge) % 2 == 0]))
    ups = (length + charge) // 2
    return Word(tuple(draw(st.permutations([UP] * ups + [DOWN] * (length - ups)))))


@st.composite
def formal_objects(draw, charge, min_size=1):
    """Up to three words, most of the given charge, so most entries may be
    non-zero."""
    charges = st.sampled_from((charge, charge, charge, -charge or 2))
    summands = st.lists(charges.flatmap(words), min_size=min_size, max_size=3)
    return FormalObject(tuple(draw(summands)))


@st.composite
def diagram_morphisms(draw, triple, source, target):
    """Zero, or up to two basis diagrams with coefficients that may cancel."""
    basis = enumerate_basis(source, target)
    terms = {}
    if basis:
        for _ in range(draw(st.sampled_from((2, 1, 0)))):
            m = basis[draw(st.integers(0, len(basis) - 1))]
            c = draw(st.sampled_from(_coefficients(triple)))
            terms[m] = terms[m] + c if m in terms else c
    return TLMorphism(triple, source, target, terms)


@st.composite
def formal_morphisms(draw, triple, source, target):
    rows = [
        [draw(diagram_morphisms(triple, ws, wt)) for ws in source.summands]
        for wt in target.summands
    ]
    return FormalMorphism(triple, source, target, rows)


@st.composite
def cases(draw):
    """A triple, A and B: S -> T, and C: R -> S; R may be empty."""
    triple = draw(st.sampled_from(TRIPLES))
    charge = draw(st.integers(-1, 1))
    R = draw(formal_objects(charge, min_size=0))
    S, T = (draw(formal_objects(charge)) for _ in range(2))
    A, B = (draw(formal_morphisms(triple, S, T)) for _ in range(2))
    return triple, A, B, draw(formal_morphisms(triple, R, S))


def _stores_no_zero(M):
    return all(
        e.terms and 0 <= i < len(M.target) and 0 <= j < len(M.source)
        for (i, j), e in M.blocks.items()
    )


def _dense(M, rows):
    return FormalMorphism(M.triple, M.source, M.target, rows)


def _dense_product(A, C):
    left, right = A.entries, C.entries
    rows = []
    for i, wt in enumerate(A.target.summands):
        row = []
        for j, ws in enumerate(C.source.summands):
            acc = TLMorphism.zero(A.triple, ws, wt)
            for k in range(len(A.source)):
                acc = acc + reference_compose(left[i][k], right[k][j])
            row.append(acc)
        rows.append(row)
    return FormalMorphism(A.triple, C.source, A.target, rows)


@SETTINGS
@given(cases(), st.sampled_from((UP, DOWN)))
def test_operations_match_the_dense_reference(case, letter):
    triple, A, B, C = case
    a, b = A.entries, B.entries
    total = A + B
    assert total == _dense(A, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    product = A * C
    assert product == _dense_product(A, C)
    dual = A.dual()
    assert dual == FormalMorphism(
        triple, A.target.dual(), A.source.dual(),
        [[a[i][j].dual() for i in range(len(A.target))] for j in range(len(A.source))],
    )
    ident = TLMorphism.identity(triple, Word.single(letter))
    whiskered = A.tensor_letter(letter)
    assert whiskered == FormalMorphism(
        triple, A.source.tensor_letter(letter), A.target.tensor_letter(letter),
        [[tensor(ident, e) for e in row] for row in a],
    )
    difference = A + (-A)
    assert difference.is_zero() and not difference.blocks
    assert total + (-B) == A
    for M in (A, B, C, total, product, dual, whiskered, -A):
        assert _stores_no_zero(M)


@SETTINGS
@given(cases())
def test_products_check_each_distinct_composite_once_per_cell(case):
    _, A, _, C = case
    expected = distinct_cells(A, C)
    with counted_stores() as calls:
        A * C
    assert len(calls) == len(expected) and set(calls) == {inv for _, _, inv in expected}


@SETTINGS
@given(cases())
def test_dense_round_trip(case):
    triple, A, _, _ = case
    assert FormalMorphism(triple, A.source, A.target, A.entries) == A
    for i, row in enumerate(A.entries):
        for j, e in enumerate(row):
            assert (e.terms != {}) == ((i, j) in A.blocks)
            assert e.source == A.source.summands[j] and e.target == A.target.summands[i]


def test_continuant_builds_store_no_zero():
    for variant in ("lower", "upper"):
        for n in range(9):
            for d in build_continuant(n, variant, TOWER).complex.diffs.values():
                assert _stores_no_zero(d), (variant, n)


def test_zero_matrices_over_different_triples_differ():
    obj = FormalObject.of(Word.of("^v"), Word.empty())
    zero_a = FormalMorphism.zero(TRIPLES[0], obj, obj)
    zero_b = FormalMorphism.zero(TRIPLES[1], obj, obj)
    assert zero_a != zero_b
    assert zero_a == FormalMorphism.zero(TOWER, obj, obj)
    assert zero_a.is_zero() and zero_b.is_zero()


def test_printed_cells_match_the_dense_view():
    # the summary's term counts and the JSON differentials skip the cells
    # not stored; the dense entries view, zeros included, is the reference
    for variant in ("lower", "upper"):
        for n in range(6):
            complex_ = build_continuant(n, variant, TOWER).complex
            printed = complex_.to_json_dict()["degrees"]
            for k, d in complex_.diffs.items():
                assert d.term_counts() == [[len(e.terms) for e in row] for row in d.entries]
                assert printed[str(k)]["differential"] == [[str(e) for e in row] for row in d.entries]

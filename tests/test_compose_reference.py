"""The pair-by-pair composition, kept as the test-only reference for
``tldiag.compose`` and ``FormalMorphism.__mul__``.

``reference_compose`` stacks each pair of diagrams by walking strands
(``_compose_matchings``), builds and checks each pair's composite through
``PlanarMatching._of``, and sums the products per matching.  The kernel
under test stacks bare involutions, sums per composite and checks each
distinct composite once; the guards below count those checks."""

import itertools
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlab import complexes, tldiag
from tlab.complexes import FormalMorphism, FormalObject, build_continuant
from tlab.rings import generic_tower
from tlab.tldiag import DOWN, UP, DiagramError, PlanarMatching, TLMorphism, Word, compose, enumerate_basis

TOWER = generic_tower()  # delta1 = t and delta2 = u differ, so a loop's letter shows
SETTINGS = settings(max_examples=150, deadline=None)


def _compose_matchings(top: PlanarMatching, bot: PlanarMatching):
    """Stack bot below top; returns (composite, letters at the leftmost
    middle point of each closed loop).

    Middle position j is point nb + m - 1 - j of bot's circle and point j of
    top's, and a point q >= m of top's circle is point nb + q - m of the
    composite's (nb = len(bot.source), m = len(bot.target))."""
    binv, tinv = bot.inv, top.inv
    nb, m = len(bot.source), len(bot.target)
    mid = nb + m - 1
    size = nb + len(tinv) - m
    seen = [False] * m
    inv = [-1] * size
    for p in range(size):
        if inv[p] >= 0:
            continue
        up = p >= nb  # the next arc is one of top's
        c = p - nb + m if up else p
        while True:
            d = (tinv if up else binv)[c]
            if up and d >= m:
                end = nb + d - m
                break
            if not up and d < nb:
                end = d
                break
            j = d if up else mid - d
            seen[j] = True
            c = mid - j if up else j
            up = not up
        inv[p], inv[end] = end, p

    # the first unseen middle point of a loop is its leftmost one
    middle = bot.target.letters
    loop_letters = []
    for j in range(m):
        if seen[j]:
            continue
        loop_letters.append(middle[j])
        k = j
        while not seen[k]:
            seen[k] = True
            k = tinv[k]
            seen[k] = True
            k = mid - binv[mid - k]
    return PlanarMatching._of(bot.source, top.target, tuple(inv)), tuple(loop_letters)


def reference_compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """f after g: stack g below f, evaluating loops by the chirality rule."""
    if f.triple != g.triple:
        raise DiagramError("cannot compose morphisms over different triples")
    if f.source != g.target:
        raise DiagramError(f"boundary mismatch: {g.target} then {f.source}")
    triple = f.triple
    terms = {}
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            composite, loop_letters = _compose_matchings(mf, mg)
            value = cf * cg
            for letter in loop_letters:
                value = value * (triple.delta1 if letter == DOWN else triple.delta2)
            old = terms.get(composite)
            terms[composite] = value if old is None else old + value
    return TLMorphism(triple, g.source, f.target, terms)


@st.composite
def words(draw, charge, longest=4):
    """A word of length at most 4 with #^ - #v = charge."""
    length = draw(st.sampled_from([n for n in range(abs(charge), longest + 1) if (n - charge) % 2 == 0]))
    ups = (length + charge) // 2
    return Word(tuple(draw(st.permutations([UP] * ups + [DOWN] * (length - ups)))))


@st.composite
def morphisms(draw, source, target):
    """Up to three basis diagrams with coefficients that may cancel."""
    basis = enumerate_basis(source, target)
    one, t, u = TOWER.ring.one, TOWER.delta1, TOWER.delta2
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        m = basis[draw(st.integers(0, len(basis) - 1))]
        c = draw(st.sampled_from((one, -one, t, -u, one + one)))
        terms[m] = terms[m] + c if m in terms else c
    return TLMorphism(TOWER, source, target, terms)


@st.composite
def composable(draw):
    """(f, g) with f after g defined; a short outer word leaves the middle
    word mostly caps and cups, so closed loops form."""
    charge = draw(st.integers(-2, 2))
    outer = st.sampled_from((2, 4)).flatmap(lambda n: words(charge, n))
    bottom, middle, top = draw(outer), draw(words(charge)), draw(outer)
    return draw(morphisms(middle, top)), draw(morphisms(bottom, middle))


def _loop_letters(f, g):
    return Counter(
        letter for mf in f.terms for mg in g.terms for letter in _compose_matchings(mf, mg)[1]
    )


@SETTINGS
@given(composable())
def test_compose_matches_the_pair_by_pair_reference(fg):
    f, g = fg
    assert compose(f, g) == reference_compose(f, g)


def test_compose_evaluates_closed_loops_of_both_letters():
    # every cap diagram over every cup diagram of each word of length 2 or 4:
    # only closed loops are left, with leftmost letters of both kinds
    letters = Counter()
    for length in (2, 4):
        for middle in map(Word, itertools.product((UP, DOWN), repeat=length)):
            for top in enumerate_basis(middle, Word.empty()):
                for bottom in enumerate_basis(Word.empty(), middle):
                    f = TLMorphism.from_matching(TOWER, top)
                    g = TLMorphism.from_matching(TOWER, bottom)
                    assert compose(f, g) == reference_compose(f, g), (top, bottom)
                    letters += _loop_letters(f, g)
    assert letters[UP] and letters[DOWN], letters


# -- each distinct composite is checked once ------------------------------------


@contextmanager
def counted_stores():
    """The involutions PlanarMatching._store checks inside the block."""
    store, calls = PlanarMatching._store, []

    def counted(matching, source, target, inv):
        calls.append(inv)
        store(matching, source, target, inv)

    PlanarMatching._store = counted
    try:
        yield calls
    finally:
        PlanarMatching._store = store


def contribution_lists(A, C):
    """{cell (i, j) of A * C: its (left, right) entry pairs}, in the order of
    A's blocks.  Cells whose blocks share the same entries have the same
    list by identity; with no entry shared, a list is a cell."""
    right = {}
    for (k, j), e in C.blocks.items():
        right.setdefault(k, []).append((j, e))
    lists = {}
    for (i, k), left in A.blocks.items():
        for j, e in right.get(k, ()):
            lists.setdefault((i, j), []).append((left, e))
    return lists


def distinct_cells(A, C):
    """The distinct (contribution list, composite) pairs of A * C, zero sums
    included, a list taken by the identity of its entries."""
    return {
        (tuple((id(f), id(g)) for f, g in pairs), _compose_matchings(mf, mg)[0].inv)
        for pairs in contribution_lists(A, C).values()
        for f, g in pairs
        for mf in f.terms
        for mg in g.terms
    }


def test_compose_checks_each_distinct_composite_once():
    e1 = TLMorphism.e(TOWER, 3, 1)
    # (e_1 - delta1 id) e_1 = delta1 e_1 - delta1 e_1: two pairs, one composite, sum 0
    f = e1 - TLMorphism.identity(TOWER, Word.alt(3)).scale(TOWER.delta1)
    a, b = TLMorphism.e(TOWER, 4, 1), TLMorphism.e(TOWER, 4, 3)
    g = a + b + compose(a, b)
    for x, y in ((f, e1), (g, g), (e1, e1)):
        distinct = {_compose_matchings(mf, mg)[0].inv for mf in x.terms for mg in y.terms}
        with counted_stores() as calls:
            compose(x, y)
        assert sorted(calls) == sorted(distinct), (x, y)
    assert compose(f, e1).is_zero()


def test_matrix_products_check_each_distinct_composite_once_per_cell():
    # d^2 of E_n cancels to zero in every cell: every composite sums to 0;
    # cells with the same shared entries are one cell, checked once
    for variant in ("lower", "upper"):
        for n in range(4, 10):
            diffs = build_continuant(n, variant, TOWER).complex.diffs
            for k, d in diffs.items():
                if k - 1 in diffs:
                    expected = len(distinct_cells(diffs[k - 1], d))
                    with counted_stores() as calls:
                        assert (diffs[k - 1] * d).is_zero()
                    assert len(calls) == expected > 0, (variant, n, k)


def test_d_squared_stacks_each_pair_once_per_distinct_contribution_list(monkeypatch):
    # the cell memo is the only memo of the product: _add_products runs once
    # for every pair of every distinct contribution list, and never again
    # for a pair that two distinct lists share
    calls, add_products = [], complexes._add_products

    def counted(f, g, out, scaled):
        calls.append((f, g))
        add_products(f, g, out, scaled)

    monkeypatch.setattr(complexes, "_add_products", counted)
    for variant in ("lower", "upper"):
        for n in range(1, 11):
            built = build_continuant(n, variant, TOWER).complex
            diffs, expected = built.diffs, 0
            for k, d in diffs.items():
                if k - 1 in diffs:
                    lists = {tuple((id(f), id(g)) for f, g in pairs) for pairs in contribution_lists(diffs[k - 1], d).values()}
                    expected += sum(len(key) for key in lists)
            calls.clear()
            assert built.d_squared_failures() == []
            assert len(calls) == expected and (expected > 0) == (n >= 4), (variant, n)


def test_a_crossing_composite_is_refused_on_both_paths(monkeypatch):
    # on ^v^v, 0-5, 1-4, 2-7 and 3-6 pair legal letters, but 2-7 crosses 0-5
    word = Word.of("^v^v")
    ident = TLMorphism.identity(TOWER, word)
    matrix = FormalMorphism.identity(TOWER, FormalObject.of(word))
    monkeypatch.setattr(tldiag, "_stack", lambda *args: ((5, 4, 7, 6, 1, 0, 3, 2), 0, 0))
    with pytest.raises(DiagramError, match="crossings"):
        compose(ident, ident)
    with pytest.raises(DiagramError, match="crossings"):
        matrix * matrix

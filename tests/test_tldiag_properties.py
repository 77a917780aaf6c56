"""Property tests for the diagram calculus on random basis diagrams.

Words are arbitrary, of length at most 6, and coefficients live in the
generic tower Q(t)(u), where the two loop values differ, so every closed
loop's chirality shows in the result."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tlab.rings import generic_tower
from tlab.tldiag import (
    DOWN,
    UP,
    PlanarMatching,
    TLMorphism,
    Word,
    compose,
    enumerate_basis,
    tensor,
)

TOWER = generic_tower()
SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def words(draw, charge):
    """A word with #^ - #v = charge; Hom(s, t) is non-empty exactly when s
    and t have the same charge."""
    length = draw(st.sampled_from([n for n in range(abs(charge), 7) if (n - charge) % 2 == 0]))
    ups = (length + charge) // 2
    return Word(tuple(draw(st.permutations([UP] * ups + [DOWN] * (length - ups)))))


@st.composite
def matchings(draw, source, target):
    basis = enumerate_basis(source, target)
    return basis[draw(st.integers(0, len(basis) - 1))]


@st.composite
def morphisms(draw, source, target):
    """A combination of up to three basis diagrams with small coefficients."""
    ring = TOWER.ring
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        m = draw(matchings(source, target))
        terms[m] = terms.get(m, ring.zero) + ring.from_int(draw(st.integers(-2, 2)))
    return TLMorphism(TOWER, source, target, terms)


@st.composite
def chains(draw, length):
    """Morphisms f_1, ..., f_length with f_i * f_(i+1) defined."""
    charge = draw(st.integers(-3, 3))
    ws = [draw(words(charge)) for _ in range(length + 1)]
    return [draw(morphisms(ws[i + 1], ws[i])) for i in range(length)]


@st.composite
def diagrams(draw):
    charge = draw(st.integers(-3, 3))
    return draw(matchings(draw(words(charge)), draw(words(charge))))


@SETTINGS
@given(diagrams())
def test_matching_round_trips_through_pairs(m):
    again = PlanarMatching(m.source, m.target, m.pairs)
    assert again == m and hash(again) == hash(m) and again.inv == m.inv
    assert m.dual().dual() == m


@SETTINGS
@given(chains(3))
def test_composition_is_associative(fgh):
    f, g, h = fgh
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@SETTINGS
@given(chains(2), chains(2))
def test_interchange_law(fh, gk):
    (f, h), (g, k) = fh, gk
    assert compose(tensor(f, g), tensor(h, k)) == tensor(compose(f, h), compose(g, k))


@SETTINGS
@given(chains(2))
def test_dual_is_contravariant(fg):
    f, g = fg
    assert f.dual().dual() == f
    assert compose(f, g).dual() == compose(g.dual(), f.dual())

"""Property tests for the diagram calculus on random basis diagrams.

Words are arbitrary, of length at most 6, and coefficients live in the
generic tower Q(t)(u), where the two loop values differ, so every closed
loop's chirality shows in the result.  Products with a generator are also
checked over F_2 with both loop values 0, where a closed loop kills its
term, over F_101 at (3, 5) and at the balanced triple of Q(zeta_10).

Endpoint pairs, the sl2 matrix entries and the rescaling weight are read
off the boundary involution; the references below compute them from
sorted endpoint pairs instead, as the pairs were once stored."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tlab.rings import Triple, construct_ring, generic_tower
from tlab.sl2model import _matching_entries
from tlab.tldiag import (
    DOWN,
    UP,
    PlanarMatching,
    TLMorphism,
    Word,
    _order_key,
    _times_generator,
    compose,
    enumerate_basis,
    rescale_weight,
    tensor,
)

TOWER = generic_tower()
F2 = construct_ring("Fp:2")
F2_ZERO = Triple(F2, F2.zero, F2.zero)  # every closed loop kills its term
FP101 = Triple.parse("Fp:101", "3", "5")
ZETA10 = construct_ring("cyclo:10")
ZETA10_BALANCED = Triple.balanced(ZETA10, ZETA10.generators()["q"])
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
def morphisms(draw, source, target, triple=TOWER):
    """A combination of up to three basis diagrams with small coefficients."""
    ring = triple.ring
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        m = draw(matchings(source, target))
        terms[m] = terms.get(m, ring.zero) + ring.from_int(draw(st.integers(-2, 2)))
    return TLMorphism(triple, source, target, terms)


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


def reference_pairs(m):
    """Each pair of ("b", i)/("t", j) endpoints sorted, and the pairs sorted."""
    nb, last = len(m.source), len(m.inv) - 1
    ends = [("b", c) if c < nb else ("t", last - c) for c in range(last + 1)]
    return tuple(sorted(tuple(sorted((ends[c], ends[d]))) for c, d in enumerate(m.inv) if c < d))


def reference_entries(m):
    """The sl2 matrix entries (row, col, q-exponent) by walking the binary
    choice tree of the arcs, one arc per level, in sorted pair order."""
    choices = []
    for a, b in reference_pairs(m):
        if a[0] == b[0] == "b":  # cap: 1 on (0,1), q^-1 on (1,0)
            choices.append([((a, 0), (b, 1), 0), ((a, 1), (b, 0), -1)])
        elif a[0] == b[0] == "t":  # cup: q on (0,1), 1 on (1,0)
            choices.append([((a, 0), (b, 1), 1), ((a, 1), (b, 0), 0)])
        else:  # through strand
            choices.append([((a, 0), (b, 0), 0), ((a, 1), (b, 1), 0)])
    bits = {"b": [0] * len(m.source), "t": [0] * len(m.target)}
    entries = []

    def assemble(k, exponent):
        if k == len(choices):
            row = int("".join(map(str, bits["t"])) or "0", 2)
            col = int("".join(map(str, bits["b"])) or "0", 2)
            entries.append((row, col, exponent))
            return
        for ((s1, i1), bit1), ((s2, i2), bit2), weight in choices[k]:
            bits[s1][i1], bits[s2][i2] = bit1, bit2
            assemble(k + 1, exponent + weight)

    assemble(0, 0)
    return entries


def reference_weight(m):
    """Clockwise bottom arcs minus counter-clockwise top arcs."""
    weight = 0
    for a, b in reference_pairs(m):
        if a[0] == b[0] == "b" and m.source[min(a[1], b[1])] == UP:
            weight += 1
        elif a[0] == b[0] == "t" and m.target[min(a[1], b[1])] == DOWN:
            weight -= 1
    return weight


@SETTINGS
@given(diagrams())
def test_involution_readers_match_the_pair_references(m):
    assert m.pairs == reference_pairs(m)
    assert rescale_weight(m) == reference_weight(m)
    assert sorted(_matching_entries(m)) == sorted(reference_entries(m))
    assert m.dual().pairs == reference_pairs(m.dual())


def test_order_key_sorts_every_small_basis_in_pair_order():
    """Every pair of words of total length at most 8."""
    rng = random.Random(12)
    total = 0
    for length in range(9):
        for letters in itertools.product((UP, DOWN), repeat=length):
            for cut in range(length + 1):
                basis = enumerate_basis(Word(letters[:cut]), Word(letters[cut:]))
                assert basis == sorted(basis, key=reference_pairs)
                shuffled = basis[::-1]
                rng.shuffle(shuffled)
                assert sorted(shuffled, key=_order_key) == basis
                assert len({_order_key(m) for m in basis}) == len(basis)
                total += len(basis)
    assert total == 2343


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


@SETTINGS
@given(st.data(), st.sampled_from([TOWER, F2_ZERO, FP101, ZETA10_BALANCED]), st.integers(2, 6))
def test_generator_surgery_is_composition_with_the_generator(data, triple, n):
    """f * e_i, for f out of alt(n), against compose, over the tower, F_2 at
    (0, 0), and a prime and a cyclotomic field the recursion runs over."""
    word = Word.alt(n)
    f = data.draw(morphisms(word, data.draw(words(n % 2)), triple))
    for i in range(1, n):
        assert _times_generator(triple, f.terms, i) == compose(f, TLMorphism.e(triple, n, i)).terms, i

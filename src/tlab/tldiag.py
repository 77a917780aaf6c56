"""Two-parameter Temperley-Lieb diagram calculus.

Objects are words in the two letters ``^`` and ``v`` (rendered as arrows);
morphisms are exact linear combinations of non-crossing planar matchings
between two words.  A matching may pair identical letters in different
words or distinct letters in the same word, and must be drawable without
crossings with the source on a lower line and the target on an upper line.

Composition stacks diagrams and evaluates each closed loop at one of the
two loop parameters of the coefficient triple.  The chirality rule used
throughout: a loop whose leftmost middle-interface point carries ``v``
(the strand moves downward at its leftmost point) is counter-clockwise and
evaluates to delta_1; a leftmost ``^`` gives a clockwise loop and delta_2.
The rule is pinned down by two independent anchors, e_1 * e_1 = delta_1 e_1
in End(v^) and trace(id on a single ``^``) = delta_2.

Positions inside a word are counted from the right: alt(n) is the length-n
alternating word with rightmost letter ``^``, and the generator e_i caps
positions i, i+1 from the right.  Closing the leftmost strand (partial
trace) therefore lands in End(alt(n-1)) over the same triple.

A matching is stored as one involution of its boundary circle.  The
boundary points are numbered round the circle: the source left to right,
then the target right to left, so with nb = len(source) and nt =
len(target) source position i is point i and target position j is point
nb + nt - 1 - j.  ``inv[c]`` is the point that point c is paired with.
Composition, a product with one generator (surgery on two points),
duality (a rotation of the circle by nt points), juxtaposition (one circle
inserted into the other), basis enumeration, sorting, printing, rescaling
and the sl2 realization are integer arithmetic on these tuples, and every
matching they build passes the same check as one given by endpoint pairs.
Nothing else is stored: endpoint pairs are only the constructor's input
and the ``pairs`` view.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from ._plain import Frozen
from .contpoly import qbinom_exponents, qnum
from .rings import IntFractionField, RingValue, Triple, _zdiv, _zfrom_terms, _zgcd, _zlead, _zmonomial, _zneg

UP = "^"
DOWN = "v"

_DISPLAY = {UP: "∧", DOWN: "∨"}

# coefficients printed without parentheses: a rational number or a signed name
_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")
_NAME = re.compile(r"-?[a-z][0-9]*")


def flip_letter(letter: str) -> str:
    return DOWN if letter == UP else UP


class DiagramError(ValueError):
    """Ill-formed matching or incompatible composition."""


class Word(Frozen):
    """A finite word in the letters ^ and v, stored left to right."""

    _fields = ("letters",)

    def __init__(self, letters: Tuple[str, ...]):
        for l in letters:
            if l not in (UP, DOWN):
                raise DiagramError(f"bad letter {l!r}")
        self._set(letters=letters)

    # every composition compares words: no generic field loop here
    def __eq__(self, other):
        return self.letters == other.letters if other.__class__ is Word else NotImplemented

    def __hash__(self):
        return hash(self.letters)

    @staticmethod
    def of(text: str) -> "Word":
        return Word(tuple(text))

    @staticmethod
    def empty() -> "Word":
        return Word(())

    @staticmethod
    def alt(n: int) -> "Word":
        """Alternating word of length n whose rightmost letter is ^."""
        return Word(tuple(UP if (n - j) % 2 == 1 else DOWN for j in range(n)))

    @staticmethod
    def single(letter: str) -> "Word":
        return Word((letter,))

    def dual(self) -> "Word":
        """Reverse the word and flip every letter (180-degree rotation)."""
        return Word(tuple(flip_letter(l) for l in reversed(self.letters)))

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def count_up(self) -> int:
        return sum(1 for l in self.letters if l == UP)

    def __str__(self):
        if not self.letters:
            return "()"
        return "".join(_DISPLAY[l] for l in self.letters)

    __repr__ = __str__


Endpoint = Tuple[str, int]  # ("b", i) source position, ("t", j) target position


class PlanarMatching:
    """A non-crossing perfect matching between two words, stored only as the
    involution ``inv`` of its boundary circle (see the module docstring).

    The constructor takes endpoint pairs ("b", i) for source position i and
    ("t", j) for target position j; ``pairs`` rebuilds them on each call.
    """

    __slots__ = ("source", "target", "inv")

    def __init__(self, source: Word, target: Word, pairs: Iterable[Tuple[Endpoint, Endpoint]]):
        nb, nt = len(source), len(target)
        inv = [-1] * (nb + nt)
        for a, b in pairs:
            points = []
            for side, idx in (a, b):
                if side not in ("b", "t"):
                    raise DiagramError(f"bad endpoint side {side!r}")
                if not 0 <= idx < (nb if side == "b" else nt):
                    raise DiagramError(f"endpoint {side}:{idx} out of range")
                points.append(idx if side == "b" else nb + nt - 1 - idx)
            for (side, idx), c, d in zip((a, b), points, points[::-1]):
                if inv[c] >= 0:
                    raise DiagramError(f"endpoint {side}:{idx} matched twice")
                inv[c] = d
        if -1 in inv:
            raise DiagramError("matching is not perfect")
        self._store(source, target, tuple(inv))

    @classmethod
    def _of(cls, source: Word, target: Word, inv: Tuple[int, ...]) -> "PlanarMatching":
        matching = cls.__new__(cls)
        matching._store(source, target, inv)
        return matching

    def _store(self, source: Word, target: Word, inv: Tuple[int, ...]):
        """Check that inv is a fixed-point-free involution of the circle whose
        pairs obey the letter rules and do not cross, then store it."""
        nb, n = len(source.letters), len(inv)
        if n != nb + len(target.letters):
            raise DiagramError("matching does not cover both words")
        letters = source.letters + target.letters[::-1]
        stack = []
        for c, d in enumerate(inv):
            if not 0 <= d < n or d == c or inv[d] != c:
                raise DiagramError("matching is not a perfect pairing of the boundary")
            if c < d:
                same_word = (c < nb) == (d < nb)
                if (letters[c] == letters[d]) == same_word:
                    raise DiagramError("same-word pair must join distinct letters" if same_word
                                       else "cross-word pair must join identical letters")
                stack.append(d)
            elif stack.pop() != c:
                raise DiagramError("matching has crossings")
        self.source, self.target, self.inv = source, target, inv

    @property
    def pairs(self) -> Tuple[Tuple[Endpoint, Endpoint], ...]:
        """The pairs as ("b", i)/("t", j) endpoints, each pair and the whole
        tuple sorted."""
        nb = len(self.source)
        ends = [("b", r) if r < nb else ("t", r - nb) for r in range(len(self.inv))]
        return tuple((ends[r], ends[s]) for r, s in enumerate(_order_key(self)) if r < s)

    def __eq__(self, other):
        if not isinstance(other, PlanarMatching):
            return NotImplemented
        return self.inv == other.inv and self.source == other.source and self.target == other.target

    def __hash__(self):
        # equal matchings have equal involutions; __eq__ also compares the words
        return hash(self.inv)

    @staticmethod
    def identity(word: Word) -> "PlanarMatching":
        return PlanarMatching._of(word, word, tuple(range(2 * len(word) - 1, -1, -1)))

    def dual(self) -> "PlanarMatching":
        """Rotate the diagram by 180 degrees: point c moves to c + nt round the circle."""
        nb, nt = len(self.source), len(self.target)
        n = nb + nt
        inv = tuple((d + nt) % n for d in self.inv[nb:] + self.inv[:nb])
        return PlanarMatching._of(self.target.dual(), self.source.dual(), inv)

    def __str__(self):
        return self._text(_order_key(self))

    def _text(self, key: Tuple[int, ...]) -> str:
        """__str__ from the matching's _order_key, which a caller may have at hand."""
        nb = len(self.source)
        ends = [f"b:{r}" if r < nb else f"t:{r - nb}" for r in range(len(self.inv))]
        body = ", ".join(f"({ends[r]}, {ends[s]})" for r, s in enumerate(key) if r < s)
        return f"[{body}]"

    __repr__ = __str__


def _order_key(matching: PlanarMatching) -> Tuple[int, ...]:
    """The partner of each endpoint, endpoints ranked source 0..nb-1, then
    target 0..nt-1.  It sorts matchings between two words as their sorted
    endpoint pairs do: the first rank whose partner differs starts a pair in both."""
    nb, n, inv = len(matching.source), len(matching.inv), matching.inv
    order = [*range(nb), *range(n - 1, nb - 1, -1)]  # the point of each rank, and the rank of each point
    return tuple([order[inv[c]] for c in order])


def enumerate_basis(source: Word, target: Word) -> List[PlanarMatching]:
    """All legal planar matchings between two words, in a fixed order.

    Empty when the total length is odd or the letter constraints cannot be
    met; for source = target = alt(n) the count is the n-th Catalan number.
    """
    nb = len(source)
    letters = source.letters + target.letters[::-1]

    def compatible(i: int, j: int) -> bool:
        return (letters[i] == letters[j]) != ((i < nb) == (j < nb))

    def segment(points: Tuple[int, ...]):
        if not points:
            return [[]]
        out = []
        first = points[0]
        for k in range(1, len(points), 2):
            if not compatible(first, points[k]):
                continue
            for inner in segment(points[1:k]):
                for outer in segment(points[k + 1 :]):
                    out.append([(first, points[k])] + inner + outer)
        return out

    matchings = []
    for assignment in segment(tuple(range(len(letters)))):
        inv = [0] * len(letters)
        for i, j in assignment:
            inv[i], inv[j] = j, i
        matchings.append(PlanarMatching._of(source, target, tuple(inv)))
    return sorted(matchings, key=_order_key)


def _stack(tinv: Tuple[int, ...], binv: Tuple[int, ...], middle: Tuple[str, ...], nb: int):
    """binv stacked below tinv on the middle word: (composite, a, b), with a
    closed loops of leftmost middle letter v (delta1) and b of ^ (delta2).
    Middle position j is point nb + m - 1 - j of binv's circle and point j of
    tinv's; a point q >= m of tinv's is point nb + q - m of the composite's."""
    m = len(middle)
    mid = nb + m - 1
    size = nb + len(tinv) - m
    seen = [False] * m
    inv = [-1] * size
    for p in range(size):
        if inv[p] >= 0:
            continue
        up = p >= nb  # the next arc is one of tinv's
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
    loops = [0, 0]  # v, ^
    for j in range(m):
        if seen[j]:
            continue
        loops[middle[j] == UP] += 1
        k = j
        while not seen[k]:
            seen[k] = True
            k = tinv[k]
            seen[k] = True
            k = mid - binv[mid - k]
    return tuple(inv), loops[0], loops[1]


def _add_products(f: "TLMorphism", g: "TLMorphism", out: Dict[Tuple[int, ...], RingValue], scaled: Dict) -> None:
    """Add f * g to out, {composite involution: coefficient}, zero sums kept.
    c_f * c_g * delta1^a * delta2^b is computed once per distinct (c_f, c_g,
    a, b) and kept in scaled, which products over one triple may share."""
    if f.triple != g.triple:
        raise DiagramError("cannot compose morphisms over different triples")
    if f.source != g.target:
        raise DiagramError(f"boundary mismatch: {g.target} then {f.source}")
    nb, middle = len(g.source.letters), g.target.letters
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            inv, a, b = _stack(mf.inv, mg.inv, middle, nb)
            value = scaled.get((cf, cg, a, b))
            if value is None:
                value = cf * cg
                for delta in (f.triple.delta1,) * a + (f.triple.delta2,) * b:
                    value = value * delta
                scaled[cf, cg, a, b] = value
            old = out.get(inv)
            out[inv] = value if old is None else old + value


def _checked(source: Word, target: Word, terms: Dict[Tuple[int, ...], RingValue]) -> Dict[PlanarMatching, RingValue]:
    """{matching: c} from {involution: c}: _store checks each involution once, then zeros go."""
    matchings = [(PlanarMatching._of(source, target, inv), c) for inv, c in terms.items()]
    return {m: c for m, c in matchings if c}


def _surgery(triple: Triple, terms: Dict[Tuple[int, ...], RingValue], source: Word, i: int):
    """terms * e_i on bare involutions out of source, zero coefficients kept.

    Why this equals composing with e_i: e_i joins positions p = len(source)
    - 1 - i and q = p + 1 of the source (points p and q of the circle) by
    one arc on either side of that word, and runs every other position
    straight through.  Straight strands are identity strands, so every other
    arc of inv survives as it is, and e_i's far arc becomes the product's
    arc p-q.  Its near arc meets inv at p and q: the strand reaching p from
    a = inv[p] crosses it and leaves q for b = inv[q], so a and b become one
    arc.  When inv[p] == q that strand is inv's own arc p-q, which the near
    arc closes into a loop whose leftmost middle point is position p; the
    far arc puts the arc p-q back, so the diagram is inv again."""
    p = len(source) - 1 - i
    q = p + 1
    delta = triple.delta1 if source[p] == DOWN else triple.delta2
    # every closed loop has the same letter, so c * delta is keyed by c alone
    looped: Dict[RingValue, RingValue] = {}
    out: Dict[Tuple[int, ...], RingValue] = {}
    for inv, c in terms.items():
        a = inv[p]
        if a == q:
            value = looped.get(c)
            if value is None:
                value = looped[c] = c * delta
            c = value
        else:
            b = inv[q]
            joined = list(inv)
            joined[a], joined[b], joined[p], joined[q] = b, a, q, p
            inv = tuple(joined)
        old = out.get(inv)
        out[inv] = c if old is None else old + c
    return out


def _tensor_matchings(f: PlanarMatching, g: PlanarMatching, source: Word, target: Word):
    """f to the left of g: g's circle is inserted into f's at point len(f.source)."""
    nb, k = len(f.source), len(g.inv)
    moved = [c if c < nb else c + k for c in f.inv]
    inv = moved[:nb] + [c + nb for c in g.inv] + moved[nb:]
    return PlanarMatching._of(source, target, tuple(inv))


class TLMorphism:
    """An exact linear combination of planar matchings between two words."""

    __slots__ = ("triple", "source", "target", "terms")

    def __init__(self, triple: Triple, source: Word, target: Word, terms: Dict[PlanarMatching, RingValue]):
        self.triple = triple
        self.source = source
        self.target = target
        clean = {}
        for matching, coeff in terms.items():
            if matching.source != source or matching.target != target:
                raise DiagramError("matching boundary does not match morphism boundary")
            if coeff.ring != triple.ring:
                raise DiagramError("coefficient from a different ring")
            if not coeff.is_zero():
                clean[matching] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(triple: Triple, source: Word, target: Word) -> "TLMorphism":
        return TLMorphism(triple, source, target, {})

    @staticmethod
    def from_matching(triple: Triple, matching: PlanarMatching, coeff: Optional[RingValue] = None) -> "TLMorphism":
        coeff = triple.ring.one if coeff is None else coeff
        return TLMorphism(triple, matching.source, matching.target, {matching: coeff})

    @staticmethod
    def identity(triple: Triple, word: Word) -> "TLMorphism":
        return TLMorphism.from_matching(triple, PlanarMatching.identity(word))

    @staticmethod
    def ev(triple: Triple, letter: str) -> "TLMorphism":
        """Evaluation (flip(letter), letter) -> empty word: a single cap."""
        word = Word((flip_letter(letter), letter))
        matching = PlanarMatching(word, Word.empty(), ((("b", 0), ("b", 1)),))
        return TLMorphism.from_matching(triple, matching)

    @staticmethod
    def co(triple: Triple, letter: str) -> "TLMorphism":
        """Coevaluation: empty word -> (letter, flip(letter)): a single cup."""
        word = Word((letter, flip_letter(letter)))
        matching = PlanarMatching(Word.empty(), word, ((("t", 0), ("t", 1)),))
        return TLMorphism.from_matching(triple, matching)

    @staticmethod
    def e(triple: Triple, n: int, i: int) -> "TLMorphism":
        """The cap-cup generator of End(alt(n)) over positions i, i+1 from
        the right, for 1 <= i <= n-1."""
        if not 1 <= i <= n - 1:
            raise DiagramError(f"generator index {i} out of range 1..{n - 1}")
        word = Word.alt(n)
        j = n - 1 - i  # 0-based left index of the pair (j, j+1)
        pairs = [(("b", k), ("t", k)) for k in range(n) if k not in (j, j + 1)]
        pairs.append((("b", j), ("b", j + 1)))
        pairs.append((("t", j), ("t", j + 1)))
        return TLMorphism.from_matching(triple, PlanarMatching(word, word, tuple(pairs)))

    # -- linear structure ----------------------------------------------------

    def _require_parallel(self, other: "TLMorphism"):
        if self.triple != other.triple:
            raise DiagramError("morphisms over different triples")
        if self.source != other.source or self.target != other.target:
            raise DiagramError("morphisms with different boundaries")

    def __add__(self, other: "TLMorphism") -> "TLMorphism":
        self._require_parallel(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return TLMorphism(self.triple, self.source, self.target, terms)

    def __neg__(self) -> "TLMorphism":
        return TLMorphism(self.triple, self.source, self.target, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TLMorphism") -> "TLMorphism":
        return self + (-other)

    def scale(self, c) -> "TLMorphism":
        if isinstance(c, int):
            c = self.triple.ring.from_int(c)
        return TLMorphism(self.triple, self.source, self.target, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, RingValue)):
            return self.scale(c)
        return NotImplemented

    # -- monoidal structure --------------------------------------------------

    def __mul__(self, other):
        """Composition self * other = self after other (self goes on top)."""
        if isinstance(other, (int, RingValue)):
            return self.scale(other)
        if not isinstance(other, TLMorphism):
            return NotImplemented
        return compose(self, other)

    def __matmul__(self, other: "TLMorphism") -> "TLMorphism":
        return tensor(self, other)

    def dual(self) -> "TLMorphism":
        """Rotate every diagram by 180 degrees (loop values are preserved)."""
        terms = {m.dual(): c for m, c in self.terms.items()}
        return TLMorphism(self.triple, self.target.dual(), self.source.dual(), terms)

    # -- inspection ----------------------------------------------------------

    def coefficient(self, matching: PlanarMatching) -> RingValue:
        return self.terms.get(matching, self.triple.ring.zero)

    def identity_coefficient(self) -> RingValue:
        return self.coefficient(PlanarMatching.identity(self.source))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TLMorphism):
            return NotImplemented
        return (
            self.triple == other.triple
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __str__(self):
        return self._format({})

    def _format(self, rendered: Dict[RingValue, str]) -> str:
        """__str__, each coefficient rendered once into rendered, which printers may share."""
        if not self.terms:
            return "0"
        parts = []
        for key, m in sorted(((_order_key(m), m) for m in self.terms), key=lambda km: km[0]):
            value = self.terms[m]
            c = rendered.get(value)
            if c is None:
                c = str(value)
                if not _NUMBER.fullmatch(c) and not _NAME.fullmatch(c):
                    c = f"({c})"
                rendered[value] = c
            parts.append(f"{c} * {m._text(key)}")
        return " + ".join(parts)

    __repr__ = __str__


def compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """f after g: stack g below f, evaluating loops by the chirality rule.

    All pairs of diagrams accumulate on bare involutions (_add_products);
    then _store checks each distinct composite once, whatever its sum."""
    terms: Dict[Tuple[int, ...], RingValue] = {}
    _add_products(f, g, terms, {})
    return TLMorphism(f.triple, g.source, f.target, _checked(g.source, f.target, terms))


def _times_generator(triple: Triple, terms: Dict[PlanarMatching, RingValue], i: int):
    """terms * e_i, terms between one pair of words, by _surgery, with no
    zero coefficient; _store checks each distinct product once."""
    if not terms:
        return {}
    source, target = next((m.source, m.target) for m in terms)
    return _checked(source, target, _surgery(triple, {m.inv: c for m, c in terms.items()}, source, i))


def tensor(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Horizontal juxtaposition, f to the left of g."""
    if f.triple != g.triple:
        raise DiagramError("cannot tensor morphisms over different triples")
    source = f.source + g.source
    target = f.target + g.target
    terms: Dict[PlanarMatching, RingValue] = {}
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            matching = _tensor_matchings(mf, mg, source, target)
            value = cf * cg
            terms[matching] = terms[matching] + value if matching in terms else value
    return TLMorphism(f.triple, source, target, terms)


# ---------------------------------------------------------------------------
# Jones-Wenzl idempotents


class NotExists(Frozen):
    """Verdict: the requested idempotent does not exist, with evidence: the
    first i with (n over i) not invertible, and a reason."""

    _fields = ("n", "reason", "witness")

    def __init__(self, n: int, reason: str, witness: int):
        self._set(n=n, reason=reason, witness=witness)

    def __str__(self):
        return f"JW_{self.n} does not exist ({self.reason})"


def _binomial_vanishes(triple: Triple, n: int, i: int) -> bool:
    """Whether the quantum binomial (n over i) is zero.

    (n over i) is the product of the [[d]] with exponent 1 in
    qbinom_exponents(n, i), and every coefficient ring is a field, so it is
    zero exactly when one of those factors is zero."""
    return any(e and qnum(triple, d)[1].is_zero() for d, e in qbinom_exponents(n, i).items())


def hazi_witness(triple: Triple, n: int) -> Optional[int]:
    """First index i with quantum binomial (n over i) not invertible, else None."""
    return next((i for i in range(1, n + 1) if _binomial_vanishes(triple, n, i)), None)


def _binomial_verdict(triple: Triple, n: int) -> Optional[NotExists]:
    """jw's verdict when some (n over i) is not invertible; else None, and JW_n exists."""
    witness = hazi_witness(triple, n)
    return None if witness is None else NotExists(n, f"binom({n},{witness}) is not invertible", witness)


def _check_jw(candidate: TLMorphism, n: int):
    """Certify candidate as JW_n: phi(candidate) = 1, phi the identity
    coefficient, and candidate * e_i = 0 for 1 <= i < n.  Any such x is
    JW_n, so its left kills and idempotency are not tested (phi is
    multiplicative: a product with a non-identity diagram has none).
    - Soundness: these are a subset of the two-sided conditions, so where
      they have no solution (a pole in _jw_by_table) JW_n does not exist.
    - Existence: the top-bottom flip is an anti-automorphism of End(alt n)
      fixing every e_i and every loop's leftmost letter, so flip(x) * x is
      killed on both sides with phi = 1: JW_n exists whenever x does.
    - Uniqueness: a non-identity diagram D is e_i * D' (a top cup) and
      D'' * e_j (a bottom cap), so x * D = 0 and D * JW_n = 0.  For h the
      difference of x and JW_n, phi(h) = 0, so h = h * JW_n = 0."""
    if not candidate.identity_coefficient().is_one():
        raise AssertionError("identity coefficient is not 1")
    for i in range(1, n):
        if _times_generator(candidate.triple, candidate.terms, i):
            raise AssertionError(f"candidate not killed by generator e_{i}")


def _clasp(triple: Triple, n: int) -> Tuple[Dict[PlanarMatching, RingValue], RingValue]:
    """(P_n, c_n) with c_n = [2]...[n] and P_n = c_n * JW_n, with no zero coefficient.

    Single-clasp expansion of the Wenzl recursion (Morrison, "A formula for
    the Jones-Wenzl projections", arXiv:1503.00384): with X = 1 (x) JW_{k-1}
    and g_j = e_j in End(alt k), the ratios [j]/[j+1] telescope to
      JW_k = X + sum_{j=1}^{k-1} (-1)^{k-j} ([j]/[k]) X g_{k-1} g_{k-2} ... g_j,
    so each term is the previous one times a single diagram.  Times c_k,
    with X = 1 (x) P_{k-1}:
      P_k = [k] X + sum_{j=1}^{k-1} (-1)^{k-j} [j] X g_{k-1} ... g_j,
    which divides by nothing; P_n / c_n is JW_n when c_n is invertible."""
    ring = triple.ring
    # the terms of each level, keyed by inv: alt(k) is the only word
    checked = {PlanarMatching.identity(Word.alt(1)): ring.one}
    terms = {m.inv: c for m, c in checked.items()}
    c_n = ring.one
    for k in range(2, n + 1):
        level = Word.alt(k)
        # X = 1 (x) P_{k-1}: the new leftmost strand joins points 0 and 2k - 1
        term = {(2 * k - 1,) + tuple(c + 1 for c in inv) + (0,): c for inv, c in terms.items()}
        qk = qnum(triple, k)[0]
        c_n = c_n * qk
        terms = {inv: qk * c for inv, c in term.items()}
        for j in range(k - 1, 0, -1):
            term = _surgery(triple, term, level, j)
            qj = qnum(triple, j)[0] * (-1) ** (k - j)
            for inv, c in term.items():
                c = qj * c
                old = terms.get(inv)
                terms[inv] = c if old is None else old + c
        # _store checks every matching the level made, zero coefficients included
        checked = _checked(level, level, terms)
        terms = {m.inv: c for m, c in checked.items()}
    return checked, c_n


def _jw_by_recursion(triple: Triple, n: int) -> TLMorphism:
    """JW_n as _clasp's P_n / c_n, when [2], ..., [n] are invertible."""
    terms, c_n = _clasp(triple, n)
    inv = c_n.inverse()
    if inv is None:
        raise ValueError("recursion requires invertible quantum numbers [2], ..., [n]")
    word = Word.alt(n)
    return TLMorphism(triple, word, word, {m: c * inv for m, c in terms.items()})


# the loop values (z, 1), z the generator t of Q(t): every value _clasp
# meets there has denominator 1, so it adds and multiplies with no gcd
_INTEGRAL = Triple.parse("ratfun:Q", "t", "1")


def _jw_table(n: int, certify: bool = True) -> Tuple[Dict[PlanarMatching, tuple], tuple]:
    """(P_n, c_n) of _clasp at the loop values (z, 1), as tuples over Z[z];
    ``certify`` checks P_n's identity coefficient c_n and P_n * e_i = 0."""
    terms, c_n = _clasp(_INTEGRAL, n)
    if certify:
        if terms.get(PlanarMatching.identity(Word.alt(n))) != c_n:
            raise AssertionError("identity coefficient of P_n is not [2]...[n]")
        for i in range(1, n):
            if _times_generator(_INTEGRAL, terms, i):
                raise AssertionError(f"P_{n} not killed by generator e_{i}")
    return {m: c.payload[0] for m, c in terms.items()}, c_n.payload[0]


def _monomial_loops(triple: Triple) -> Optional[Tuple[tuple, tuple]]:
    """The exponent vectors of delta1 and delta2 when the ring is Q(x1)...(xk)
    on integer payloads, both are monic monomials (negative exponents
    allowed) and delta1 * delta2 is not constant; else None."""
    ring = triple.ring
    if not isinstance(ring, IntFractionField):
        return None
    k, exponents = ring.depth, []
    for delta in (triple.delta1, triple.delta2):
        num, den = (_zmonomial(p, k) for p in delta.payload)
        if num is None or den is None:
            return None
        exponents.append(tuple(a - b for a, b in zip(num, den)))
    e1, e2 = exponents
    if not any(a + b for a, b in zip(e1, e2)):
        return None
    return e1, e2


def _spread(p: tuple, c: tuple, step: tuple, shift: tuple, k: int):
    """The canonical payload of x^shift * p(x^step) / c(x^step) in
    Q(x1)...(xk), for p, c in Z[z] and a non-zero exponent vector step
    (proof in _jw_by_table)."""
    g = _zgcd(p, c, 1)
    if g != (1,):
        p, c = _zdiv(p, g, 1), _zdiv(c, g, 1)
    num = {tuple(j * s + h for s, h in zip(step, shift)): x for j, x in enumerate(p) if x}
    den = {tuple(j * s for s in step): x for j, x in enumerate(c) if x}
    # cancel the common monomial: the lowest exponent of each variable
    low = [min(e[v] for e in (*num, *den)) for v in range(k)]
    num, den = (
        _zfrom_terms({tuple(a - b for a, b in zip(e, low)): x for e, x in part.items()}, k)
        for part in (num, den)
    )
    if _zlead(den, k) < 0:
        num, den = _zneg(num, k), _zneg(den, k)
    return num, den


def _synthetic(p: List[RingValue], z0: RingValue) -> Tuple[List[RingValue], RingValue]:
    """(q, p(z0)) with p = (z - z0) q + p(z0), by synthetic division;
    coefficients ascending."""
    acc, partial = z0.ring.zero, []
    for c in reversed(p):
        acc = acc * z0 + c
        partial.append(acc)
    return partial[-2::-1], partial[-1]


def _on_curve(triple: Triple, c_n: tuple, n: int):
    """_jw_by_table's map off monic monomial loop values: (P_D, w) to the
    value at the triple of mu^w P_D(z) / c_n(z) along a curve through it,
    from the orders a, b and leading Taylor coefficients x, y of P_D and
    c_n at z0.  For delta2 != 0 the curve is the point, mu = delta2^-1 and
    the order a - b.  For delta2 = 0, z0 = 0 and mu = s^-1 on (delta1, s),
    z = delta1 * s, or on (s, s), z = s^2, when delta1 = 0 too: with z =
    base * s^step, the order is step * (a - b) - w.  A negative order is a
    pole; order 0 gives x / y * base^(a - b) * mu^w, and any other 0."""
    ring = triple.ring
    if triple.delta2:
        z0, step, base, shift, mu = triple.delta1 * triple.delta2, 1, ring.one, 0, triple.delta2.inverse()
    else:
        z0, shift, mu = ring.zero, 1, ring.one
        step, base = (1, triple.delta1) if triple.delta1 else (2, ring.one)

    def taylor(p: tuple, limit: int):  # (a, x); None if p vanishes, or a > limit at z0 != 0
        if not z0:  # p's own coefficients: scan for the lowest
            return next(((a, x) for a, x in enumerate(map(ring.from_int, p)) if x), None)
        q = [ring.from_int(x) for x in p]
        for a in range(limit + 1):
            q, x = _synthetic(q, z0)
            if x:
                return a, x
        return None

    b, lead = taylor(c_n, len(c_n))
    scale = lead.inverse()

    def coefficient(p: tuple, w: int) -> RingValue:
        low = taylor(p, b)  # b + 1 divisions decide the order at the point
        if low is None:
            return ring.zero
        a, x = low
        order = step * (a - b) - shift * w
        if order < 0:
            raise AssertionError(f"JW_{n} has a pole at the loop values")
        return x * scale * base ** (a - b) * mu**w if order == 0 else ring.zero

    return coefficient


def _jw_by_table(triple: Triple, n: int) -> TLMorphism:
    """JW_n from the integer table (P_n, c_n) of _jw_table: the coefficient
    of a diagram D is the value at the triple of lam^w P_D(z) / c_n(z), for
    lam = delta2^-1 and w = rescale_weight(D), by _spread or _on_curve.  A
    pole raises: JW_n does not exist there, and jw calls this only where
    the binomial criterion says that it does.

    Proof.  Let A x = b be _check_jw's conditions (right kills, identity
    coefficient 1) over the N diagrams; A's entries are 0, 1, delta1 and
    delta2.  Where JW_n exists it is their only solution (_check_jw), so A
    has rank N there, and where it does not they have none.
    - At (z, 1) over F(z), F the field, P_n / c_n solves them: the table's
      identities hold in Z[z], so in F[z], and c_n != 0 in F[z], since
      each [k](z, 1) is monic.
    - delta2 != 0: scaling each diagram D by lam^w, w = rescale_weight(D),
      is an algebra isomorphism TL(z0, 1) -> TL(delta1, delta2), z0 =
      delta1 * delta2 (the rescaling transport of tests/trace_reference.py),
      fixing the identity and scaling each e_i by a unit, so it carries
      JW_n, if any, with coefficients scaled by lam^w.  Let R be F[z]
      localised at z0.  If every P_D / c_n lies in R, evaluation at z0, a
      ring map R -> F, sends the generic solution to one at (z0, 1), which
      _on_curve computes at the point.  If JW_n exists at (z0, 1), some N rows of A
      form M(z) with det M(z0) != 0, and by Cramer's rule the generic
      solution adj(M) b_M / det M lies in R.  So there is a pole exactly
      when JW_n does not exist.
    - delta2 = 0: the same over F[s] localised at s = 0, on the curve
      (delta1, s), rescaled by s^-1 so that z = delta1 * s, or on (s, s),
      z = s^2, when delta1 = 0 too; _on_curve reads each coefficient's
      order and value at s = 0 from the lowest terms.
    - Monic monomial loop values over Q(x1..xk) (_monomial_loops): z -> z0
      is injective on Z[z], and _spread's payload is canonical with no
      bivariate gcd: after dividing P_D and c_n by their gcd in Z[z], a
      Bezout identity over Q maps to Q[x1^+-1..xk^+-1], where the images
      stay coprime; the only common factors left in Z[x1..xk] are
      monomials, cancelled there, and the integer contents are those of
      P_D and c_n, which are coprime.
    Over a rational-function field the table is certified over Z[z] and the
    result's identity coefficient checked; elsewhere _check_jw, on a result
    that is sparse where the recursion is blocked (63 of 429 terms at Fp:2
    (0, 0), n = 7), costs less."""
    ring = triple.ring
    rational = ring.kind == "ratfun"
    table, c_n = _jw_table(n, certify=rational)
    loops = _monomial_loops(triple)
    if loops:
        e1, e2 = loops
        z0 = tuple(a + b for a, b in zip(e1, e2))

        def coefficient(p: tuple, w: int) -> RingValue:
            return RingValue(ring, _spread(p, c_n, z0, tuple(-w * b for b in e2), ring.depth))

    else:
        coefficient = _on_curve(triple, c_n, n)
    # many diagrams share (P_D, w(D)), and so their coefficient
    mapped: Dict[Tuple[tuple, int], RingValue] = {}
    terms = {}
    for m, p in table.items():
        key = (p, rescale_weight(m))
        value = mapped.get(key)
        if value is None:
            value = mapped[key] = coefficient(*key)
        terms[m] = value
    word = Word.alt(n)
    candidate = TLMorphism(triple, word, word, terms)
    if not rational:
        _check_jw(candidate, n)
    elif not candidate.identity_coefficient().is_one():
        raise AssertionError("identity coefficient is not 1")
    return candidate


def _recursion_legal(triple: Triple, n: int) -> bool:
    """Whether [2], ..., [n] are invertible: every coefficient ring is a
    field, so whether each is non-zero, which takes no inverse."""
    return all(qnum(triple, k)[0] for k in range(2, n + 1))


_JW_CACHE: Dict[Tuple[Triple, int], object] = {}


def jw(triple: Triple, n: int):
    """The Jones-Wenzl idempotent of End(alt(n)), or a NotExists verdict.

    The invertible-binomial criterion decides existence, except for monic
    monomial loop values with a non-constant product, such as the default
    (t, u), where every [k] is invertible.  _jw_by_recursion builds JW_n
    where [2], ..., [n] are invertible over a field that is not a
    rational-function field; _jw_by_table, the integer table mapped to the
    triple by _spread or _on_curve, everywhere else: where the recursion is
    blocked (Lucas cases, roots of unity) or would take a gcd in nearly
    every operation.  The table does not pay where the recursion runs: best
    of 7 in one process, the JW cache cleared, the recursion and _check_jw
    took 8.7 ms against 14.5 ms for _jw_by_table over Fp:101 at (3, 5),
    n = 7, and 141 ms against 241 ms at n = 9; 17.2 ms against 22.8 ms over
    Q at (3, 5), n = 7; and 21.7 ms against 27.4 ms over cyclo:12 at
    (q + q^-1, q^2 + q^-2), n = 7.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return TLMorphism.identity(triple, Word.alt(1))
    cached = _JW_CACHE.get((triple, n))
    if cached is not None:
        return cached
    result = None if _monomial_loops(triple) else _binomial_verdict(triple, n)
    if result is None:
        if triple.ring.kind != "ratfun" and _recursion_legal(triple, n):
            result = _jw_by_recursion(triple, n)
            _check_jw(result, n)
        else:
            result = _jw_by_table(triple, n)
    _JW_CACHE[(triple, n)] = result
    return result


# ---------------------------------------------------------------------------
# traces


def partial_trace(f: TLMorphism) -> TLMorphism:
    """Close the leftmost strand of an endomorphism of alt(n); the result is
    an endomorphism of alt(n-1) over the same triple."""
    n = len(f.source)
    if n == 0:
        raise DiagramError("cannot close a strand of the empty word")
    if f.source != Word.alt(n) or f.target != Word.alt(n):
        raise DiagramError("partial trace expects an endomorphism of alt(n)")
    triple = f.triple
    rest = TLMorphism.identity(triple, Word.alt(n - 1))
    outer = f.source[0]
    inner = flip_letter(outer)
    bottom = tensor(TLMorphism.co(triple, inner), rest)
    middle = tensor(TLMorphism.identity(triple, Word.single(inner)), f)
    top = tensor(TLMorphism.ev(triple, outer), rest)
    return compose(top, compose(middle, bottom))


# ---------------------------------------------------------------------------
# rotatability


class RotatabilityReport(Frozen):
    """Verdict on rotatability of the pair of idempotents at level n;
    status is "rotatable", "not_rotatable" or "no_jw"."""

    _fields = ("status", "n", "detail", "binomials_vanish", "cyclotomic_vanish")

    def __init__(self, status: str, n: int, detail: str, binomials_vanish: Optional[bool] = None,
                 cyclotomic_vanish: Optional[bool] = None):
        self._set(status=status, n=n, detail=detail, binomials_vanish=binomials_vanish,
                  cyclotomic_vanish=cyclotomic_vanish)


def rotatability(triple: Triple, n: int) -> RotatabilityReport:
    """Decide rotatability at level n from vanishing quantum binomials.

    Checks that all binomials (n+1 over i) vanish for the triple and its
    swap; over an integral domain this is cross-checked against the single
    condition [[n+1]] = 0 in both triples.  When the existence criterion
    already fails for either triple the verdict is NoJW.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return RotatabilityReport("rotatable", 1, "level 1 is always rotatable")
    swapped = triple.swap()
    for label, t in (("", triple), ("'", swapped)):
        witness = hazi_witness(t, n)
        if witness is not None:
            return RotatabilityReport(
                "no_jw", n, f"binom({n},{witness}) not invertible in R{label}"
            )
    binomials = all(
        _binomial_vanishes(triple, n + 1, i) and _binomial_vanishes(swapped, n + 1, i)
        for i in range(1, n + 1)
    )
    cyclotomic = qnum(triple, n + 1)[1].is_zero() and qnum(swapped, n + 1)[1].is_zero()
    if binomials != cyclotomic:
        raise AssertionError("binomial and cyclotomic rotatability criteria disagree")
    if binomials:
        return RotatabilityReport("rotatable", n, "all binom(n+1, i) vanish in both triples", True, cyclotomic)
    return RotatabilityReport("not_rotatable", n, "some binom(n+1, i) is non-zero", False, cyclotomic)


# ---------------------------------------------------------------------------
# rescaling isomorphism


def rescale_weight(matching: PlanarMatching) -> int:
    """Scalar exponent of the rescaling isomorphism for one diagram.

    An arc is clockwise when the strand moves upward at its left endpoint
    (left letter ^ on the bottom line, and the same letter rule on the top
    line).  The weight counts clockwise bottom arcs minus counter-clockwise
    top arcs; this is the unique assignment (up to gauge) under which
    rescaling commutes with all compositions, snake merges included.
    """
    nb, arcs = len(matching.source), [(c, d) for c, d in enumerate(matching.inv) if c < d]
    letters = matching.source.letters + matching.target.letters[::-1]
    # the left end of a bottom arc (c, d) is point c, that of a top arc point d
    return sum(letters[c] == UP for c, d in arcs if d < nb) - sum(letters[d] == DOWN for c, d in arcs if c >= nb)

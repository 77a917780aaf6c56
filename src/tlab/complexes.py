"""Bounded chain complexes of formal direct sums of words, with mapping
cones, shifts, and the continuant complexes written from the closed form of
their iterated cones.

Homological (lower) indexing throughout: a complex C has terms C_i and
differentials d_i: C_i -> C_{i-1}.  The shift is C[1]_i = C_{i-1} with
negated differentials; the cone of a chain map f: C -> D has
Cone(f)_i = C_{i-1} (+) D_i with differential ((-d^C, 0), (-f, d^D)).
No other sign conventions enter: the continuant complexes are
E_n = Cone(f_{n-1})[-1], written entry by entry from the closed form of
that iterated cone, which ``build_continuant`` proves.

Summands of the n-th continuant complex in degree -k are labelled by the
subsets of {0, ..., n-1} that are disjoint unions of k adjacent pairs; the
word attached to a label is the full alternating word with the labelled
positions deleted (positions are read right to left).  Labels are kept in
lexicographic order per degree, which fixes all matrices deterministically.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from ._plain import Frozen, Plain
from .contpoly import IntPolynomial
from .rings import Triple
from .tldiag import (
    UP,
    PlanarMatching,
    TLMorphism,
    Word,
    _add_products,
    _checked,
    flip_letter,
    tensor,
)


class ComplexError(ValueError):
    """Ill-formed complex, morphism matrix, or chain map."""


class FormalObject(Frozen):
    """A formal direct sum of words, in a fixed order."""

    _fields = ("summands",)

    def __init__(self, summands: Tuple[Word, ...]):
        self._set(summands=summands)

    @staticmethod
    def unit() -> "FormalObject":
        return FormalObject((Word.empty(),))

    @staticmethod
    def of(*words: Word) -> "FormalObject":
        return FormalObject(tuple(words))

    def __len__(self):
        return len(self.summands)

    def tensor_letter(self, letter: str) -> "FormalObject":
        return FormalObject(tuple(Word.single(letter) + w for w in self.summands))

    def dual(self) -> "FormalObject":
        return FormalObject(tuple(w.dual() for w in self.summands))

    def __str__(self):
        return " (+) ".join(str(w) for w in self.summands) if self.summands else "0"


class FormalMorphism:
    """A matrix of diagram morphisms between formal direct sums.

    Entry (i, j) maps source summand j to target summand i.  Only the
    non-zero entries are stored, in ``blocks`` as {(i, j): entry}; the
    dense ``entries`` view is built on access.
    """

    __slots__ = ("triple", "source", "target", "blocks")

    def __init__(self, triple: Triple, source: FormalObject, target: FormalObject, rows):
        """The morphism with the given dense rows of entries."""
        rows = [list(row) for row in rows]
        if len(rows) != len(target):
            raise ComplexError("entry rows do not match target summands")
        if any(len(row) != len(source) for row in rows):
            raise ComplexError("entry columns do not match source summands")
        self._store(
            triple, source, target,
            {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row)},
        )

    def _store(self, triple: Triple, source: FormalObject, target: FormalObject, blocks) -> None:
        """Check each entry's boundary words and keep the non-zero ones."""
        self.triple, self.source, self.target = triple, source, target
        self.blocks = {}
        for (i, j), entry in blocks.items():
            if entry.source != source.summands[j] or entry.target != target.summands[i]:
                raise ComplexError(f"entry ({i},{j}) has wrong boundary words")
            if entry.terms:
                self.blocks[i, j] = entry

    @staticmethod
    def _from_blocks(triple: Triple, source: FormalObject, target: FormalObject, blocks) -> "FormalMorphism":
        """The morphism with the entries {(i, j): entry} and zeros elsewhere."""
        out = FormalMorphism.__new__(FormalMorphism)
        out._store(triple, source, target, blocks)
        return out

    @property
    def entries(self) -> List[List[TLMorphism]]:
        """Dense rows, zeros included; writing to them leaves the morphism alone."""
        return [
            [
                self.blocks.get((i, j)) or TLMorphism.zero(self.triple, ws, wt)
                for j, ws in enumerate(self.source.summands)
            ]
            for i, wt in enumerate(self.target.summands)
        ]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(triple: Triple, source: FormalObject, target: FormalObject) -> "FormalMorphism":
        return FormalMorphism._from_blocks(triple, source, target, {})

    @staticmethod
    def identity(triple: Triple, obj: FormalObject) -> "FormalMorphism":
        blocks = {(i, i): TLMorphism.identity(triple, w) for i, w in enumerate(obj.summands)}
        return FormalMorphism._from_blocks(triple, obj, obj, blocks)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "FormalMorphism") -> "FormalMorphism":
        if self.source != other.source or self.target != other.target:
            raise ComplexError("cannot add morphisms with different boundaries")
        blocks = dict(self.blocks)
        for key, entry in other.blocks.items():
            mine = blocks.get(key)
            blocks[key] = entry if mine is None else mine + entry
        return FormalMorphism._from_blocks(self.triple, self.source, self.target, blocks)

    def __neg__(self) -> "FormalMorphism":
        blocks = {key: -e for key, e in self.blocks.items()}
        return FormalMorphism._from_blocks(self.triple, self.source, self.target, blocks)

    def __mul__(self, other: "FormalMorphism") -> "FormalMorphism":
        """Matrix product self * other (other applied first).

        Each output cell sums its products over every k on bare involutions
        (tldiag._add_products); then _store checks each distinct composite
        of the cell once, zero sums included, and the cell is one TLMorphism."""
        if other.target != self.source:
            raise ComplexError("matrix shapes do not compose")
        rows, right = {}, {}  # i -> [(k, entry)] and k -> [(j, entry)]
        for (i, k), e in self.blocks.items():
            rows.setdefault(i, []).append((k, e))
        for (k, j), e in other.blocks.items():
            right.setdefault(k, []).append((j, e))
        scaled, blocks = {}, {}  # scaled: the coefficient memo of the whole product
        for i, row in rows.items():  # one row's sums are held at a time
            cells: Dict[int, dict] = {}
            for k, left in row:
                for j, e in right.get(k, ()):
                    _add_products(left, e, cells.setdefault(j, {}), scaled)
            for j, terms in cells.items():
                source, target = other.source.summands[j], self.target.summands[i]
                blocks[i, j] = TLMorphism(self.triple, source, target, _checked(source, target, terms))
        return FormalMorphism._from_blocks(self.triple, other.source, self.target, blocks)

    def tensor_letter(self, letter: str) -> "FormalMorphism":
        ident = TLMorphism.identity(self.triple, Word.single(letter))
        return FormalMorphism._from_blocks(
            self.triple,
            self.source.tensor_letter(letter),
            self.target.tensor_letter(letter),
            {key: tensor(ident, e) for key, e in self.blocks.items()},
        )

    def dual(self) -> "FormalMorphism":
        """Entrywise 180-degree rotation; the matrix transposes."""
        blocks = {(j, i): e.dual() for (i, j), e in self.blocks.items()}
        return FormalMorphism._from_blocks(self.triple, self.target.dual(), self.source.dual(), blocks)

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, FormalMorphism):
            return NotImplemented
        return (
            self.triple == other.triple
            and self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def _cells(self, render, zero):
        """Dense rows of render(entry), with zero for the cells not stored."""
        blocks = self.blocks
        return [
            [render(blocks[i, j]) if (i, j) in blocks else zero for j in range(len(self.source))]
            for i in range(len(self.target))
        ]

    def term_counts(self) -> List[List[int]]:
        return self._cells(lambda e: len(e.terms), 0)


class FormalComplex:
    """A bounded complex of formal objects with matrix differentials."""

    def __init__(
        self,
        triple: Triple,
        terms: Dict[int, FormalObject],
        diffs: Dict[int, FormalMorphism],
        labels: Optional[Dict[int, Tuple[Tuple[int, ...], ...]]] = None,
    ):
        self.triple = triple
        self.terms = {i: obj for i, obj in terms.items() if len(obj)}
        self.diffs = dict(diffs)
        self.labels = labels
        for i, d in self.diffs.items():
            if i not in self.terms or (i - 1) not in self.terms:
                raise ComplexError(f"differential d_{i} has no matching terms")
            if d.source != self.terms[i] or d.target != self.terms[i - 1]:
                raise ComplexError(f"differential d_{i} has wrong boundaries")

    def degrees(self) -> List[int]:
        return sorted(self.terms)

    def term(self, i: int) -> FormalObject:
        return self.terms.get(i, FormalObject(()))

    def differential(self, i: int) -> Optional[FormalMorphism]:
        return self.diffs.get(i)

    def d_squared_failures(self) -> List[int]:
        """The degrees k, in increasing order, with d_{k-1} d_k != 0."""
        return [
            k
            for k, d_k in sorted(self.diffs.items())
            if k - 1 in self.diffs and not (self.diffs[k - 1] * d_k).is_zero()
        ]

    def dual(self) -> "FormalComplex":
        """Termwise dual with reversed degrees; no extra signs are needed."""
        terms = {-i: obj.dual() for i, obj in self.terms.items()}
        diffs = {}
        for i, d in self.diffs.items():
            diffs[-(i - 1)] = d.dual()
        labels = None
        if self.labels is not None:
            labels = {-i: lab for i, lab in self.labels.items()}
        return FormalComplex(self.triple, terms, diffs, labels)

    def summary(self) -> str:
        return "\n".join(self._summary_lines())

    def _summary_lines(self):
        """summary() line by line, so a printer holds one degree's rows at a time."""
        for i in sorted(self.terms, reverse=True):
            yield f"degree {i}: {self.terms[i]}"
            d = self.diffs.get(i)
            if d is not None:
                yield f"  d_{i} term counts: {d.term_counts()}"

    def to_json_dict(self) -> dict:
        out = {"degrees": {}}
        rendered = {}  # each distinct coefficient is rendered once per complex
        for i in sorted(self.terms, reverse=True):
            entry = {"summands": [str(w) for w in self.terms[i].summands]}
            if self.labels is not None and i in self.labels:
                entry["labels"] = [list(lab) for lab in self.labels[i]]
            d = self.diffs.get(i)
            if d is not None:
                entry["differential"] = d._cells(lambda e: e._format(rendered), "0")
            out["degrees"][str(i)] = entry
        return out


class ChainMap(Plain):
    """A degreewise morphism commuting with the differentials."""

    _fields = ("source", "target", "parts")

    def __init__(self, source: FormalComplex, target: FormalComplex, parts: Optional[Dict[int, FormalMorphism]] = None):
        self.source, self.target, self.parts = source, target, {} if parts is None else parts

    def verify(self) -> bool:
        S, T = self.source, self.target

        def f(i):
            return self.parts.get(i) or FormalMorphism.zero(S.triple, S.term(i), T.term(i))

        def d(C, i):
            return C.diffs.get(i) or FormalMorphism.zero(C.triple, C.term(i), C.term(i - 1))

        return all(d(T, i) * f(i) == f(i - 1) * d(S, i) for i in S.degrees())


def shift(complex_: FormalComplex, k: int = 1) -> FormalComplex:
    """The k-fold shift: terms move up by k, differentials pick up (-1)^k."""
    terms = {i + k: obj for i, obj in complex_.terms.items()}
    diffs = {}
    for i, d in complex_.diffs.items():
        diffs[i + k] = d if k % 2 == 0 else -d
    labels = None
    if complex_.labels is not None:
        labels = {i + k: lab for i, lab in complex_.labels.items()}
    return FormalComplex(complex_.triple, terms, diffs, labels)


def cone(f: ChainMap) -> FormalComplex:
    """Mapping cone with terms C_{i-1} (+) D_i and the displayed signs."""
    if not f.verify():
        raise ComplexError("cone requires a chain map")
    C, D = f.source, f.target
    triple = C.triple
    degrees = sorted(set(i + 1 for i in C.terms) | set(D.terms))
    terms = {}
    for i in degrees:
        summands = C.term(i - 1).summands + D.term(i).summands
        terms[i] = FormalObject(summands)
    diffs = {}
    for i in degrees:
        if (i - 1) not in terms or not len(terms[i - 1]):
            continue
        nc_src, nc_tgt = len(C.term(i - 1)), len(C.term(i - 2))
        blocks = {}
        for part, rows, cols, negate in (
            (C.diffs.get(i - 1), 0, 0, True),
            (f.parts.get(i - 1), nc_tgt, 0, True),
            (D.diffs.get(i), nc_tgt, nc_src, False),
        ):
            if part is not None:
                for (a, b), e in part.blocks.items():
                    blocks[rows + a, cols + b] = -e if negate else e
        if blocks:
            diffs[i] = FormalMorphism._from_blocks(triple, terms[i], terms[i - 1], blocks)
    return FormalComplex(triple, terms, diffs)


# ---------------------------------------------------------------------------
# continuant complexes


def _letter_of(base: str, i: int) -> str:
    """The i-th iterated dual of the base letter (duals alternate)."""
    return base if i % 2 == 0 else flip_letter(base)


def _label_word(base: str, n: int, label: Tuple[int, ...]) -> Word:
    """Word of the summand labelled by a twinned subset: positions run
    n-1, ..., 1, 0 from left to right and labelled ones are deleted."""
    letters = [
        _letter_of(base, i) for i in range(n - 1, -1, -1) if i not in label
    ]
    return Word(tuple(letters))


def twinned_subsets(n: int, k: int) -> List[Tuple[int, ...]]:
    """All subsets of {0..n-1} that are unions of k disjoint adjacent pairs,
    lexicographically ordered.

    The pairs' left ends i_0 < ... < i_{k-1}, at least 2 apart and at most
    n - 2, are i_j = c_j + j for c an increasing k-tuple of the n - k slots,
    a bijection that keeps lexicographic order."""
    if k < 0:
        return []
    return [tuple(p for j, c in enumerate(cs) for p in (c + j, c + j + 1)) for cs in combinations(range(n - k), k)]


class ContinuantBuild(Plain):
    """The continuant complex E_n of a letter, with how it was asked for.

    ``complex`` is written from the closed form of the iterated cone: no
    chain map and no lower level is built on the way.
    """

    _fields = ("complex", "n", "variant", "letter")

    def __init__(self, complex: FormalComplex, n: int, variant: str, letter: str):
        self.complex, self.n, self.variant, self.letter = complex, n, variant, letter


def _cap(long: Word, short: Word, j: int, cup: bool) -> PlanarMatching:
    """Identity strands with one cap from positions j, j+1 of the long word
    (the source); with cup set, the long word is the target and the arc is
    a cup.  The cap's circle has long position s at point s and short t at
    n - 1 - t; the cup's point c is the cap's point n - 1 - c."""
    n = len(long.letters) + len(short.letters)
    inv = [n - 1 - (s if s < j else s - 2) for s in range(len(long.letters))]
    inv[j], inv[j + 1] = j + 1, j
    inv.extend(t if t < j else t + 2 for t in range(len(short.letters) - 1, -1, -1))
    if cup:
        return PlanarMatching._of(short, long, tuple(n - 1 - d for d in reversed(inv)))
    return PlanarMatching._of(long, short, tuple(inv))


def build_continuant(
    n: int, variant: str = "lower", triple: Triple = None, letter: str = UP
) -> ContinuantBuild:
    """Construct the n-th continuant complex of a single letter from the
    closed form of the iterated cone, writing each differential entry once.

    Lower variant: the summand with label L in degree -k maps, for each
    adjacent pair P = {p, p+1} disjoint from L, to the summand with label
    L u P, by the cap on P with identity strands elsewhere and the sign
    (-1)^(number of pairs of L above P, i.e. at positions above p + 1).

    Why this is E_n = Cone(f_{n-1})[-1], by induction on n.  E_0 and E_1
    have one term and no differential.  For n >= 2, f_{n-1}: letter(n-1)
    (x) E_{n-1} -> E_{n-2} is ev (x) id on each summand whose label avoids
    position n-2, and zero on the others.  The cone's differential
    ((-d^C, 0), (-f, d^D)), negated by the shift, is ((d^C, 0), (f, -d^D)).
    In degree -k, E_n is the C-part letter(n-1) (x) E_{n-1} (the labels
    avoiding n-1) and the D-part E_{n-2} one degree up, with the pair
    Q = {n-2, n-1} added to each label.  A label L and a pair P disjoint
    from it fall in exactly one of three blocks, since n-1 in L forces Q in L:
    - n-1 in neither L nor P: the C-part keeps the entry of E_{n-1};
      whiskering by letter(n-1) adds a strand at the left, which is
      position n-1, and no pair above P;
    - P = Q: f adds the cap on Q with sign +1, and no pair lies above Q;
    - Q in L: the D-part keeps the entry of E_{n-2} from L - Q, negated by
      the shift, and Q is one more pair of L above P.
    Every summand keeps its label, and each degree lists its labels in
    lexicographic order, as the construction sorted them.

    Upper variant: the summand with label M in degree k+1 maps, for each
    pair P of M, to the summand with label M - P, by the cup on P with the
    sign (-1)^(number of pairs of M - P below P).  It is the dual of the
    lower variant of the flipped letter, relabelled by p -> n-1-p: the dual
    negates degrees and transposes each matrix, and the rotation by 180
    degrees turns each cap into a cup and adds no sign, while the
    relabelling turns the pairs above P into the pairs below it.  The
    rotation also reverses each word and flips its letters, so the word of
    label M is its word in the lower variant of letter(n-1).

    The terms and differentials are inserted from the most pairs to none:
    ascending degree for the lower variant and descending for the upper
    one, the order of the cone and of its dual.
    """
    if triple is None:
        raise ComplexError("a coefficient triple is required")
    if variant not in ("lower", "upper"):
        raise ComplexError(f"unknown variant {variant!r}")
    if n < 0:
        raise ComplexError("n must be a natural number")
    upper = variant == "upper"
    # an upper summand reads as the lower one of the (n-1)-th dual letter
    base = _letter_of(letter, n - 1) if upper else letter
    signs = (triple.ring.one, -triple.ring.one)
    direction = 1 if upper else -1  # the degree of a label with k pairs is direction * k
    labels, terms, diffs = {}, {}, {}
    for k in range(n // 2, -1, -1):
        labels[direction * k] = tuple(twinned_subsets(n, k))
        terms[direction * k] = FormalObject(tuple(_label_word(base, n, lab) for lab in labels[direction * k]))
    for k in range(n // 2, 0, -1):
        big, small = direction * k, direction * (k - 1)
        index = {lab: i for i, lab in enumerate(labels[small])}
        blocks = {}
        for a, label in enumerate(labels[big]):
            for r in range(k):  # P is the r-th pair of the label from the bottom
                b = index[label[:2 * r] + label[2 * r + 2:]]
                above = k - 1 - r  # the pairs of label - P above P
                j = n - 2 - label[2 * r] - 2 * above  # P's left end in the longer word
                matching = _cap(terms[small].summands[b], terms[big].summands[a], j, upper)
                sign = signs[(r if upper else above) % 2]
                blocks[(b, a) if upper else (a, b)] = TLMorphism.from_matching(triple, matching, sign)
        source, target = (big, small) if upper else (small, big)
        diffs[source] = FormalMorphism._from_blocks(triple, terms[source], terms[target], blocks)
    return ContinuantBuild(FormalComplex(triple, terms, diffs, labels), n, variant, letter)


# ---------------------------------------------------------------------------
# K-theory class and validation


class K0Class(Frozen):
    """Signed monomial count of a complex: each summand word contributes
    x^(number of ^) * y^(number of v) with sign (-1)^degree."""

    _fields = ("xy", "x")

    def __init__(self, xy: IntPolynomial, x: IntPolynomial):
        self._set(xy=xy, x=x)


def k0_class(complex_: FormalComplex) -> K0Class:
    total = IntPolynomial({})
    for i, obj in complex_.terms.items():
        sign = 1 if i % 2 == 0 else -1
        for w in obj.summands:
            ups = w.count_up()
            downs = len(w) - ups
            total = total + IntPolynomial({(ups, downs): sign})
    return K0Class(total, total.substitute_y_with_x())


class ValidationReport(Plain):
    _fields = ("ok", "issues", "census")

    def __init__(self, ok: bool, issues: List[str], census: Dict[int, Tuple[int, int]]):
        self.ok, self.issues, self.census = ok, issues, census  # census: degree -> (found, expected)

    def __str__(self):
        head = "pass" if self.ok else "fail"
        body = "".join(f"\n  - {msg}" for msg in self.issues)
        return f"validation: {head}{body}"


def validate(build_or_complex) -> ValidationReport:
    """Check differential shapes, d^2 = 0, and (for labelled continuant
    builds) the twinned-subset census and the label/word correspondence."""
    issues: List[str] = []
    census: Dict[int, Tuple[int, int]] = {}
    if isinstance(build_or_complex, ContinuantBuild):
        complex_ = build_or_complex.complex
        n = build_or_complex.n
        upper = build_or_complex.variant == "upper"
        # an upper summand reads as the lower one of the (n-1)-th dual letter
        base = _letter_of(build_or_complex.letter, n - 1) if upper else build_or_complex.letter
    else:
        complex_, n = build_or_complex, None

    issues.extend(f"d^2 != 0 out of degree {k}" for k in complex_.d_squared_failures())

    if n is not None and complex_.labels is not None:
        for i, obj in complex_.terms.items():
            labels = complex_.labels.get(i, ())
            k = i if upper else -i
            expected = len(twinned_subsets(n, k)) if k >= 0 else 0
            census[i] = (len(labels), expected)
            if len(labels) != expected:
                issues.append(
                    f"degree {i}: {len(labels)} summands, expected {expected}"
                )
            if list(labels) != sorted(labels):
                issues.append(f"degree {i}: labels not in lexicographic order")
            for lab, w in zip(labels, obj.summands):
                if _label_word(base, n, lab) != w:
                    issues.append(
                        f"degree {i}: summand {w} does not match label {lab}"
                    )
    return ValidationReport(not issues, issues, census)

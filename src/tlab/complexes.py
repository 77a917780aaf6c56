"""Bounded chain complexes of formal direct sums of words, with mapping
cones, shifts, and the iterated-cone construction of the continuant
complexes.

Homological (lower) indexing throughout: a complex C has terms C_i and
differentials d_i: C_i -> C_{i-1}.  The shift is C[1]_i = C_{i-1} with
negated differentials; the cone of a chain map f: C -> D has
Cone(f)_i = C_{i-1} (+) D_i with differential ((-d^C, 0), (-f, d^D)).
No other sign conventions enter: the continuant complexes are produced
literally as Cone(f_{n-1})[-1] from the evaluation chain maps.

Summands of the n-th continuant complex in degree -k are labelled by the
subsets of {0, ..., n-1} that are disjoint unions of k adjacent pairs; the
word attached to a label is the full alternating word with the labelled
positions deleted (positions are read right to left).  Labels are kept in
lexicographic order per degree, which fixes all matrices deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .contpoly import IntPolynomial
from .rings import Triple
from .tldiag import (
    DOWN,
    UP,
    TLMorphism,
    Word,
    compose,
    flip_letter,
    tensor,
)


class ComplexError(ValueError):
    """Ill-formed complex, morphism matrix, or chain map."""


@dataclass(frozen=True)
class FormalObject:
    """A formal direct sum of words, in a fixed order."""

    summands: Tuple[Word, ...]

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
        """Matrix product self * other (other applied first)."""
        if other.target != self.source:
            raise ComplexError("matrix shapes do not compose")
        right: Dict[int, List[Tuple[int, TLMorphism]]] = {}
        for (k, j), e in other.blocks.items():
            right.setdefault(k, []).append((j, e))
        blocks: Dict[Tuple[int, int], TLMorphism] = {}
        for (i, k), left in self.blocks.items():
            for j, e in right.get(k, ()):
                product = compose(left, e)
                acc = blocks.get((i, j))
                blocks[i, j] = product if acc is None else acc + product
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

    def check_d_squared(self) -> bool:
        return not self.d_squared_failures()

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
        lines = []
        for i in sorted(self.terms, reverse=True):
            lines.append(f"degree {i}: {self.terms[i]}")
            d = self.diffs.get(i)
            if d is not None:
                lines.append(f"  d_{i} term counts: {d.term_counts()}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        out = {"degrees": {}}
        for i in sorted(self.terms, reverse=True):
            entry = {"summands": [str(w) for w in self.terms[i].summands]}
            if self.labels is not None and i in self.labels:
                entry["labels"] = [list(lab) for lab in self.labels[i]]
            d = self.diffs.get(i)
            if d is not None:
                entry["differential"] = d._cells(str, "0")
            out["degrees"][str(i)] = entry
        return out


@dataclass
class ChainMap:
    """A degreewise morphism commuting with the differentials."""

    source: FormalComplex
    target: FormalComplex
    parts: Dict[int, FormalMorphism] = field(default_factory=dict)

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
    lexicographically ordered."""
    out: List[Tuple[int, ...]] = []

    def place(start: int, remaining: int, acc: Tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(start, n - 1):
            place(i + 2, remaining - 1, acc + (i, i + 1))
    place(0, k, ())
    return sorted(out)


@dataclass
class ContinuantBuild:
    """The continuant complex E_n of a letter, with how it was asked for.

    No chain map is kept: ``continuant_levels`` yields the evaluation maps
    f_m one level at a time and drops them, so a build holds at most three
    levels at once.  For the upper variant ``complex`` is the dual of the
    lower build of the flipped letter.
    """

    complex: FormalComplex
    n: int
    variant: str
    letter: str


def _tensor_letter_complex(C: FormalComplex, letter: str) -> FormalComplex:
    terms = {i: obj.tensor_letter(letter) for i, obj in C.terms.items()}
    diffs = {i: d.tensor_letter(letter) for i, d in C.diffs.items()}
    return FormalComplex(C.triple, terms, diffs, C.labels)


def _sort_by_labels(C: FormalComplex, labels: Dict[int, List[Tuple[int, ...]]]) -> FormalComplex:
    """Reorder each degree's summands lexicographically by label."""
    position = {}  # degree -> {old index: new index}
    new_terms = {}
    new_labels = {}
    for i, obj in C.terms.items():
        order = sorted(range(len(obj)), key=lambda j: labels[i][j])
        position[i] = {old: new for new, old in enumerate(order)}
        new_terms[i] = FormalObject(tuple(obj.summands[j] for j in order))
        new_labels[i] = tuple(labels[i][j] for j in order)
    new_diffs = {}
    for i, d in C.diffs.items():
        src_pos, tgt_pos = position[i], position[i - 1]
        blocks = {(tgt_pos[a], src_pos[b]): e for (a, b), e in d.blocks.items()}
        new_diffs[i] = FormalMorphism._from_blocks(C.triple, new_terms[i], new_terms[i - 1], blocks)
    return FormalComplex(C.triple, new_terms, new_diffs, new_labels)


def _evaluation_map(level: FormalComplex, below: FormalComplex, m: int, letter: str) -> ChainMap:
    """f_m: letter(m) (x) E_m -> E_{m-1}, the evaluation after the projection
    phi_m of E_m onto its C-part letter(m-1) (x) E_{m-1}.  phi_m is the
    identity wherever E_m carries a label of E_{m-1}, so f_m is the block
    ev (x) id_w there, w the summand of E_{m-1}, and phi_m is never built."""
    triple = level.triple
    ev = TLMorphism.ev(triple, _letter_of(letter, m - 1))
    source = _tensor_letter_complex(level, _letter_of(letter, m))
    parts = {}
    for i, labels in below.labels.items():
        column = {label: b for b, label in enumerate(level.labels[i])}
        parts[i] = FormalMorphism._from_blocks(triple, source.term(i), below.term(i), {
            (a, column[label]): tensor(ev, TLMorphism.identity(triple, w))
            for a, (label, w) in enumerate(zip(labels, below.term(i).summands))
        })
    return ChainMap(source, below, parts)


def continuant_levels(
    n: int, triple: Triple, letter: str = UP
) -> Iterator[Tuple[FormalComplex, Optional[ChainMap]]]:
    """Yield (E_m, f_{m-1}) for m = 0, ..., n, with None for m < 2.

    E_0 is the unit, E_1 the letter and E_m = Cone(f_{m-1})[-1], where f_k
    is the evaluation map letter(k) (x) E_k -> E_{k-1}.  While E_m is built
    only E_{m-2}, E_{m-1} and f_{m-1} are held, and E_n is never whiskered.
    """
    below = FormalComplex(triple, {0: FormalObject.unit()}, {}, {0: ((),)})
    yield below, None
    if n < 1:
        return
    level = FormalComplex(triple, {0: FormalObject.of(Word.single(letter))}, {}, {0: ((),)})
    yield level, None
    for m in range(2, n + 1):
        f = _evaluation_map(level, below, m - 1, letter)
        # the C-part keeps the labels of E_{m-1} (subsets avoiding position
        # m-1), the D-part adjoins the pair {m-2, m-1} to those of E_{m-2}
        labels = {i: list(labs) for i, labs in level.labels.items()}
        for i, labs in below.labels.items():
            labels.setdefault(i - 1, []).extend(tuple(sorted(lab + (m - 2, m - 1))) for lab in labs)
        below, level = level, _sort_by_labels(shift(cone(f), -1), labels)
        yield level, f


def build_continuant(
    n: int, variant: str = "lower", triple: Triple = None, letter: str = UP
) -> ContinuantBuild:
    """Construct the n-th continuant complex of a single letter.

    The lower variant is the last level of ``continuant_levels``.  The upper
    variant is the dual complex of the lower variant of the flipped letter,
    relabelled by p -> n-1-p and sorted again.  No level but the last and
    no chain map outlives the build: E_16 over the default ring leaves
    10.3 MB allocated, and its build peaks at 23.5 MB (tracemalloc).
    """
    if triple is None:
        raise ComplexError("a coefficient triple is required")
    if variant not in ("lower", "upper"):
        raise ComplexError(f"unknown variant {variant!r}")
    if n < 0:
        raise ComplexError("n must be a natural number")
    if variant == "upper":
        dualised = build_continuant(n, "lower", triple, flip_letter(letter)).complex.dual()
        labels = {
            i: [tuple(sorted(n - 1 - p for p in lab)) for lab in labs]
            for i, labs in dualised.labels.items()
        }
        return ContinuantBuild(_sort_by_labels(dualised, labels), n, "upper", letter)
    for level, _ in continuant_levels(n, triple, letter):
        pass
    return ContinuantBuild(level, n, "lower", letter)


# ---------------------------------------------------------------------------
# K-theory class and validation


@dataclass(frozen=True)
class K0Class:
    """Signed monomial count of a complex: each summand word contributes
    x^(number of ^) * y^(number of v) with sign (-1)^degree."""

    xy: IntPolynomial
    x: IntPolynomial


def k0_class(complex_: FormalComplex) -> K0Class:
    total = IntPolynomial({})
    for i, obj in complex_.terms.items():
        sign = 1 if i % 2 == 0 else -1
        for w in obj.summands:
            ups = w.count_up()
            downs = len(w) - ups
            total = total + IntPolynomial({(ups, downs): sign})
    return K0Class(total, total.substitute_y_with_x())


@dataclass
class ValidationReport:
    ok: bool
    issues: List[str]
    census: Dict[int, Tuple[int, int]]  # degree -> (found, expected)

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

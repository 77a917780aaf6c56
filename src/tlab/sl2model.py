"""Concrete two-dimensional realization of the diagram calculus.

Each letter is sent to a free module of rank 2 over an exact field, the
empty word to rank 1.  Arcs carry the pivotal weights that make every
closed loop evaluate to q + q^-1 for an invertible scalar q: reading an
arc's two endpoints left to right,

* a bottom arc (cap) takes value 1 on basis (0, 1) and q^-1 on (1, 0),
* a top arc (cup) creates q on (0, 1) and 1 on (1, 0),
* a through strand is an identity wire.

Both loop orientations then evaluate to q + q^-1, the snake identities
hold, and the assignment is a monoidal functor on the nose: composition
goes to matrix product (including all loop scalars) and juxtaposition to
the Kronecker product, so d^2 = 0 on a formal complex holds in every
realization.  Homology of realized complexes is computed by exact sparse
Gaussian elimination, so ranks remain meaningful at roots of unity.  Every
diagram preserves sl2 weight, so a realized differential is block-diagonal
up to a permutation, and elimination, which only touches rows with a
non-zero in the pivot column, never fills outside a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Dict, List

from .complexes import FormalComplex, FormalMorphism, FormalObject
from .linalg import ExactMatrix
from .rings import Ring, RingValue, Triple
from .tldiag import PlanarMatching, TLMorphism, Word


class ModelError(ValueError):
    """Realization preconditions violated."""


@dataclass(frozen=True)
class FiberParams:
    """An exact field together with an invertible scalar q."""

    ring: Ring
    q: RingValue

    def __post_init__(self):
        if self.q.ring != self.ring:
            raise ModelError("q must belong to the given field")
        if self.q.inverse() is None:
            raise ModelError("q must be invertible")

    @cached_property
    def delta(self) -> RingValue:
        return self.q + self.q.inverse()

    def balanced_triple(self) -> Triple:
        """The triple with both loop values q + q^-1."""
        return Triple(self.ring, self.delta, self.delta)


def word_dimension(word: Word) -> int:
    return 2 ** len(word)


@lru_cache(maxsize=None)
def _matching_entries(matching: PlanarMatching):
    """Sparse (row, col, q-exponent) entries of one diagram's matrix.

    Source point c is column bit 2^(nb-1-c) and target point c row bit
    2^(c-nb) (points as in ``tldiag``; the leftmost letter is the top bit).
    Each arc independently takes one of the two assignments in the module
    docstring, which adds (row bits, column bits, q-exponent), so the
    entries are the sums over one choice per arc."""
    nb = len(matching.source)
    entries = [(0, 0, 0)]
    for c, d in enumerate(matching.inv):
        if c > d:
            continue
        if d < nb:  # cap, left end c: 1 on (0, 1), q^-1 on (1, 0)
            steps = ((0, 1 << (nb - 1 - d), 0), (0, 1 << (nb - 1 - c), -1))
        elif c >= nb:  # cup, left end d: q on (0, 1), 1 on (1, 0)
            steps = ((1 << (c - nb), 0, 1), (1 << (d - nb), 0, 0))
        else:  # through strand
            steps = ((0, 0, 0), (1 << (d - nb), 1 << (nb - 1 - c), 0))
        entries = [(row + dr, col + dc, e + de) for row, col, e in entries for dr, dc, de in steps]
    return tuple(entries)


def _check_balanced(triple: Triple, balanced: Triple) -> None:
    if triple.ring != balanced.ring or triple != balanced:
        raise ModelError("morphism triple must be balanced at q + q^-1 over the model field")


def realize_morphism(f: TLMorphism, params: FiberParams) -> ExactMatrix:
    """The matrix of a diagram morphism under the two-dimensional model.

    Requires the morphism's triple to be balanced at q + q^-1 over the
    model's field.
    """
    source, target = FormalObject.of(f.source), FormalObject.of(f.target)
    return _realize_formal(FormalMorphism._from_blocks(f.triple, source, target, {(0, 0): f}), params)


def realized_trace(f: TLMorphism, params: FiberParams) -> RingValue:
    """Matrix trace of the realized endomorphism, computed without
    assembling the matrix.  For a realized idempotent over a field of
    characteristic zero this integer equals the rank of its image."""
    if f.source != f.target:
        raise ModelError("trace requires an endomorphism")
    _check_balanced(f.triple, params.balanced_triple())
    total = params.ring.zero
    for matching, coeff in f.terms.items():
        diagonal = params.ring.zero
        for row, col, exponent in _matching_entries(matching):
            if row == col:
                diagonal = diagonal + params.q**exponent
        total = total + coeff * diagonal
    return total


def _offsets(obj) -> List[int]:
    """Where each summand's coordinates start, and the total dimension."""
    return list(accumulate((word_dimension(w) for w in obj.summands), initial=0))


def _realize_formal(morphism: FormalMorphism, params: FiberParams) -> ExactMatrix:
    """The matrix of a formal morphism, each entry's diagrams written
    straight into that entry's block."""
    balanced = params.balanced_triple()
    _check_balanced(morphism.triple, balanced)
    rows, cols = _offsets(morphism.target), _offsets(morphism.source)
    out = ExactMatrix.zeros(params.ring, rows[-1], cols[-1])
    qpow = {0: params.ring.one, 1: params.q, -1: params.q.inverse()}
    entries = out.entries
    for (i, j), entry in morphism.blocks.items():
        _check_balanced(entry.triple, balanced)
        top, left = rows[i], cols[j]
        for matching, coeff in entry.terms.items():
            scaled = {}
            for row, col, exponent in _matching_entries(matching):
                value = scaled.get(exponent)
                if value is None:
                    if exponent not in qpow:
                        qpow[exponent] = params.q**exponent
                    value = scaled[exponent] = coeff * qpow[exponent]
                target, key = entries[top + row], left + col
                old = target.pop(key, None)
                if old is not None:
                    value = old + value
                if value:  # a sum that cancels stays out of the row
                    target[key] = value
    return out


@dataclass(frozen=True)
class DegreeHomology:
    dimension: int
    rank_out: int  # rank of the differential leaving this degree
    kernel: int
    image_in: int  # rank of the differential arriving from one degree up
    homology: int


@dataclass(frozen=True)
class HomologyReport:
    """Exact per-degree homology of a realized complex."""

    degrees: Dict[int, DegreeHomology]
    euler_terms: int
    euler_homology: int

    def concentrated_in(self) -> List[int]:
        return sorted(i for i, d in self.degrees.items() if d.homology)

    def __str__(self):
        lines = ["degree  dim  rank d  dim H"]
        for i in sorted(self.degrees, reverse=True):
            d = self.degrees[i]
            lines.append(f"{i:6d}  {d.dimension:3d}  {d.rank_out:6d}  {d.homology:5d}")
        lines.append(f"euler: terms {self.euler_terms}, homology {self.euler_homology}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "degrees": {
                str(i): {
                    "dimension": d.dimension,
                    "rank_out": d.rank_out,
                    "kernel": d.kernel,
                    "homology": d.homology,
                }
                for i, d in self.degrees.items()
            },
            "euler_terms": self.euler_terms,
            "euler_homology": self.euler_homology,
        }


def homology(complex_: FormalComplex, params: FiberParams) -> HomologyReport:
    """Exact homology of a realized complex of formal word sums.  The formal
    complex must square to zero, which is checked after realizing, so that
    an unbalanced triple is reported first; the realized one then does too.
    (In a continuant complex d d closes no loop and cancels over Z.)"""
    dims = {i: _offsets(obj)[-1] for i, obj in complex_.terms.items()}
    matrices = {i: _realize_formal(d, params) for i, d in complex_.diffs.items()}
    failures = complex_.d_squared_failures()
    if failures:
        raise ModelError(f"differentials do not square to zero at degree {failures[0]}")
    ranks = {i: mat.rank() for i, mat in matrices.items()}
    degrees = {}
    euler_terms = 0
    euler_homology = 0
    for i, dim in dims.items():
        rank_out = ranks.get(i, 0)
        image_in = ranks.get(i + 1, 0)
        kernel = dim - rank_out
        h = kernel - image_in
        degrees[i] = DegreeHomology(dim, rank_out, kernel, image_in, h)
        sign = 1 if i % 2 == 0 else -1
        euler_terms += sign * dim
        euler_homology += sign * h
    return HomologyReport(degrees, euler_terms, euler_homology)

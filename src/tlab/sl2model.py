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
realization.  Homology of realized complexes is exact, so ranks remain
meaningful at roots of unity.  Each differential is realized straight into
F_p, through a ring map fixed for each kind of field (``Ring.reduction``),
and its ranks over F_p, which can only be smaller, are accepted where an
Euler-characteristic argument shows that they are the ranks over the
field (see ``homology``).  Otherwise, and over fields with no such map,
they are realized over the field and ranked by the same sparse sweep.
Every diagram preserves sl2 weight, so a realized differential is
block-diagonal up to a permutation, and elimination, which only touches
rows with a non-zero in the pivot column, never fills outside a block.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Dict, List, Optional

from ._plain import Frozen
from .complexes import FormalComplex, FormalMorphism, FormalObject
from .linalg import ExactMatrix, FieldModulus, rank_mod_p
from .rings import Ring, RingValue, Triple
from .tldiag import PlanarMatching, TLMorphism, Word


class ModelError(ValueError):
    """Realization preconditions violated."""


class FiberParams(Frozen):
    """An exact field together with an invertible scalar q, whose inverse is
    taken once, here; q_inverse is neither shown nor compared."""

    _fields = ("ring", "q")

    def __init__(self, ring: Ring, q: RingValue):
        if q.ring != ring:
            raise ModelError("q must belong to the given field")
        inverse = q.inverse()
        if inverse is None:
            raise ModelError("q must be invertible")
        self._set(ring=ring, q=q, q_inverse=inverse)

    @cached_property
    def delta(self) -> RingValue:
        return self.q + self.q_inverse

    def q_power(self, exponent: int) -> RingValue:
        """q^exponent, a negative one as a power of the stored inverse; q and
        q^-1 themselves are returned as they are, whatever their size."""
        base = self.q if exponent >= 0 else self.q_inverse
        return base if abs(exponent) == 1 else base ** abs(exponent)

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
                diagonal = diagonal + params.q_power(exponent)
        total = total + coeff * diagonal
    return total


def _offsets(obj) -> List[int]:
    """Where each summand's coordinates start, and the total dimension."""
    return list(accumulate((word_dimension(w) for w in obj.summands), initial=0))


def _cells(morphism: FormalMorphism, params: FiberParams, scale) -> Optional[List[dict]]:
    """The rows {column: value} of a formal morphism's matrix, each entry's
    diagrams written straight into that entry's block.  scale(coeff, e) is
    coeff * q^e in the target, or None where the target has no value for
    it, and then the result is None too."""
    balanced = params.balanced_triple()
    _check_balanced(morphism.triple, balanced)
    rows, cols = _offsets(morphism.target), _offsets(morphism.source)
    entries = [{} for _ in range(rows[-1])]
    for (i, j), entry in morphism.blocks.items():
        _check_balanced(entry.triple, balanced)
        top, left = rows[i], cols[j]
        for matching, coeff in entry.terms.items():
            scaled = {}
            for row, col, exponent in _matching_entries(matching):
                value = scaled.get(exponent)
                if value is None:
                    value = scaled[exponent] = scale(coeff, exponent)
                    if value is None:
                        return None
                target, key = entries[top + row], left + col
                old = target.pop(key, None)
                if old is not None:
                    value = old + value
                if value:  # a sum that cancels stays out of the row
                    target[key] = value
    return entries


def _scale(power, image=lambda coeff: coeff):
    """scale(coeff, e) = image(coeff) * power(e), each image and power
    computed once; None where image gives None."""
    images, powers = {}, {}

    def scale(coeff, exponent):
        c = images.get(coeff)
        if c is None:
            c = images[coeff] = image(coeff)
            if c is None:
                return None
        q = powers.get(exponent)
        if q is None:
            q = powers[exponent] = power(exponent)
        return c * q

    return scale


def _realize_formal(morphism: FormalMorphism, params: FiberParams) -> ExactMatrix:
    """The matrix of a formal morphism over the model's field."""
    out = ExactMatrix.zeros(params.ring, _offsets(morphism.target)[-1], _offsets(morphism.source)[-1])
    out.entries = _cells(morphism, params, _scale(params.q_power))
    return out


def _modular_pass(params: FiberParams):
    """(certificate, scale, p) of the pass into F_p by the reduction psi of
    the field; None where it has none or psi is not defined on q or q^-1."""
    reduction = params.ring.reduction()
    if reduction is None:
        return None
    p, psi = reduction
    q, q_inverse = psi(params.q.payload), psi(params.q_inverse.payload)
    if q is None or q_inverse is None:
        return None
    scale = _scale(lambda e: pow(q if e >= 0 else q_inverse, abs(e), p), lambda coeff: psi(coeff.payload))
    return "Fp" if params.ring.kind == "Fp" else f"modular p={p}, a={q}", scale, p


def _ranks(complex_: FormalComplex, params: FiberParams, certificate: str, scale, modulus):
    """(certificate, {degree: rank}): each differential's rows built by
    _cells and ranked mod modulus before the next; None where scale is."""
    ranks = {}
    for i, d in complex_.diffs.items():
        rows = _cells(d, params, scale)
        if rows is None:
            return None
        ranks[i] = rank_mod_p(rows, _offsets(d.source)[-1], modulus)
    return certificate, ranks


class DegreeHomology(Frozen):
    """rank_out is the rank of the differential leaving this degree, image_in of the one arriving."""

    _fields = ("dimension", "rank_out", "kernel", "image_in", "homology")

    def __init__(self, dimension: int, rank_out: int, kernel: int, image_in: int, homology: int):
        self._set(dimension=dimension, rank_out=rank_out, kernel=kernel, image_in=image_in, homology=homology)


class HomologyReport(Frozen):
    """Exact per-degree homology of a realized complex.  certificate says how
    the ranks were found: "modular p=..., a=...", "Fp" or "exact" (see
    homology); it is not part of equality or of the text or JSON report."""

    _fields = ("degrees", "euler_terms", "euler_homology", "certificate")
    _uncompared = ("certificate",)

    def __init__(self, degrees: Dict[int, DegreeHomology], euler_terms: int, euler_homology: int,
                 certificate: str = "exact"):
        self._set(degrees=degrees, euler_terms=euler_terms, euler_homology=euler_homology, certificate=certificate)

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
    """Exact homology of a realized complex of formal word sums.

    The ranks come from a reduction psi of the field K onto F_p
    (``Ring.reduction``) where it certifies them, and otherwise from exact
    elimination over K:

    * over F_p itself psi is the identity, and its ranks are exact
      (certificate "Fp");
    * otherwise each realized cell is a sum of formal coefficients times
      powers of q and q^-1.  Where psi is defined on all of these, it is a
      ring map on a subring holding every differential, and a minor of
      psi(d_i) is psi of that minor of d_i; so rank_p(d_i) <= rank_K(d_i),
      and dim H_i over F_p >= dim H_i over K in every degree i.  Both sides
      have the Euler characteristic sum (-1)^i dim C_i.  If the F_p
      homology is non-zero in at most one degree j, the K homology is zero
      outside j, and equal to it at j by the Euler characteristic.  Then
      rank_i + rank_(i+1) = dim C_i - dim H_i agrees on both sides in every
      degree, and the lowest degree has outgoing rank 0 on both sides, so
      by induction upwards every rank agrees: the report is the same
      (certificate "modular p=..., a=...", with a = psi(q));
    * in every other case, and for rings with no reduction, the ranks come
      from elimination over K (certificate "exact").

    The formal complex must square to zero, which is checked after
    realizing (and ranking) it, so that an unbalanced triple is reported
    first; the realized one then does too.  (In a continuant complex d d
    closes no loop and cancels over Z.)"""
    dims = {i: _offsets(obj)[-1] for i, obj in complex_.terms.items()}
    exact = ("exact", _scale(params.q_power), FieldModulus(params.ring))
    modular = _modular_pass(params)
    certificate, ranks = (modular and _ranks(complex_, params, *modular)) or _ranks(complex_, params, *exact)
    failures = complex_.d_squared_failures()
    if failures:
        raise ModelError(f"differentials do not square to zero at degree {failures[0]}")
    nonzero = [i for i, dim in dims.items() if dim - ranks.get(i, 0) - ranks.get(i + 1, 0)]
    if certificate not in ("Fp", "exact") and len(nonzero) > 1:
        certificate, ranks = _ranks(complex_, params, *exact)
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
    return HomologyReport(degrees, euler_terms, euler_homology, certificate)

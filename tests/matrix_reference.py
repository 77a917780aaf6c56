"""Test-side exact matrices: ``ExactMatrix`` with its identity, product and
Kronecker product, and the realization of diagram morphisms as matrices.
The runtime only ranks the rows that ``sl2model._cells`` writes, so these
live here, as references for the realization functor and the rank tests."""

from typing import Dict, List

from tlab.complexes import FormalMorphism, FormalObject
from tlab.linalg import FieldModulus, rank_mod_p
from tlab.rings import Ring, RingValue
from tlab.sl2model import FiberParams, _cells, _offsets, _scale
from tlab.tldiag import TLMorphism


class ExactMatrix:
    """A rows x cols matrix with entries in an exact field, stored as one
    dict {column: non-zero entry} per row in ``entries``."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring: Ring, rows: List[List[RingValue]]):
        """The matrix with the given dense rows."""
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.entries: List[Dict[int, RingValue]] = []
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix rows")
            self.entries.append({j: e for j, e in enumerate(r) if e})

    @property
    def rows(self) -> List[List[RingValue]]:
        """A dense copy of the rows; writing to it leaves the matrix alone."""
        zero, cols = self.ring.zero, range(self.ncols)
        return [[row.get(j, zero) for j in cols] for row in self.entries]

    @staticmethod
    def zeros(ring: Ring, nrows: int, ncols: int) -> "ExactMatrix":
        out = ExactMatrix.__new__(ExactMatrix)
        out.ring, out.nrows, out.ncols = ring, nrows, ncols
        out.entries = [{} for _ in range(nrows)]
        return out

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def rank(self) -> int:
        """The rank over the field, by the runtime's one pivot sweep."""
        return rank_mod_p(self.entries, self.ncols, FieldModulus(self.ring))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.ring})"


def identity(ring: Ring, n: int) -> ExactMatrix:
    out = ExactMatrix.zeros(ring, n, n)
    for i in range(n):
        out.entries[i][i] = ring.one
    return out


def matmul(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """left * right; an entry that cancels to zero is not stored."""
    if left.ncols != right.nrows:
        raise ValueError(f"shape mismatch {left.nrows}x{left.ncols} * {right.nrows}x{right.ncols}")
    out = ExactMatrix.zeros(left.ring, left.nrows, right.ncols)
    for row, acc in zip(left.entries, out.entries):
        for k, a in row.items():
            for j, b in right.entries[k].items():
                old = acc.get(j)
                acc[j] = a * b if old is None else old + a * b
        for j in [j for j, e in acc.items() if not e]:
            del acc[j]
    return out


def kron(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """Kronecker product, left factor most significant."""
    out = ExactMatrix.zeros(left.ring, left.nrows * right.nrows, left.ncols * right.ncols)
    for i, row in enumerate(left.entries):
        for k, inner in enumerate(right.entries):
            target = out.entries[i * right.nrows + k]
            for j, a in row.items():
                for l, b in inner.items():
                    target[j * right.ncols + l] = a * b
    return out


def realize_formal(morphism: FormalMorphism, params: FiberParams) -> ExactMatrix:
    """The matrix of a formal morphism over the model's field: the rows
    that ``homology`` ranks on its exact path."""
    out = ExactMatrix.zeros(params.ring, _offsets(morphism.target)[-1], _offsets(morphism.source)[-1])
    out.entries = _cells(morphism, params, _scale(params.q_power))
    return out


def realize_morphism(f: TLMorphism, params: FiberParams) -> ExactMatrix:
    """The matrix of a diagram morphism, realized as a 1x1 formal morphism;
    its triple must be balanced at q + q^-1 over the model's field."""
    source, target = FormalObject.of(f.source), FormalObject.of(f.target)
    return realize_formal(FormalMorphism._from_blocks(f.triple, source, target, {(0, 0): f}), params)

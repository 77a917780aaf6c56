"""Exact sparse matrices over any of the coefficient fields.

Each row is a dict from column index to a non-zero entry; a zero that
appears by cancellation is dropped, so only non-zeros are ever stored,
multiplied or eliminated.  Every rank runs one pivot sweep through
``rank_mod_p``, which eliminates a matrix with more rows than columns as
its transpose: on ints mod a prime, the kernel of the modular rank
certificate in ``sl2model.homology``, and on exact field values
(``ExactMatrix.rank``), with no floating point, so ranks remain
meaningful at root-of-unity degenerations.
"""

from __future__ import annotations

from typing import Dict, List

from .rings import Ring, RingValue

Row = Dict[int, RingValue]


class ExactMatrix:
    """A rows x cols matrix with entries in an exact field, stored as one
    dict {column: non-zero entry} per row in ``entries``."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring: Ring, rows: List[List[RingValue]]):
        """The matrix with the given dense rows."""
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.entries: List[Row] = []
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix rows")
            self.entries.append({j: e for j, e in enumerate(r) if e})

    @property
    def rows(self) -> List[List[RingValue]]:
        """A dense copy of the rows; writing to it leaves the matrix alone."""
        zero, cols = self.ring.zero, range(self.ncols)
        return [[row.get(j, zero) for j in cols] for row in self.entries]

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(ring: Ring, nrows: int, ncols: int) -> "ExactMatrix":
        out = ExactMatrix.__new__(ExactMatrix)
        out.ring, out.nrows, out.ncols = ring, nrows, ncols
        out.entries = [{} for _ in range(nrows)]
        return out

    @staticmethod
    def identity(ring: Ring, n: int) -> "ExactMatrix":
        out = ExactMatrix.zeros(ring, n, n)
        for i in range(n):
            out.entries[i][i] = ring.one
        return out

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        out = ExactMatrix.zeros(self.ring, self.nrows, other.ncols)
        right = other.entries
        for row, acc in zip(self.entries, out.entries):
            for k, a in row.items():
                for j, b in right[k].items():
                    old = acc.get(j)
                    acc[j] = a * b if old is None else old + a * b
            for j in [j for j, e in acc.items() if not e]:
                del acc[j]
        return out

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, left factor most significant."""
        out = ExactMatrix.zeros(self.ring, self.nrows * other.nrows, self.ncols * other.ncols)
        for i, row in enumerate(self.entries):
            for k, inner in enumerate(other.entries):
                target = out.entries[i * other.nrows + k]
                for j, a in row.items():
                    for l, b in inner.items():
                        target[j * other.ncols + l] = a * b
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

    # -- elimination -------------------------------------------------------

    def _eliminate(self) -> tuple:
        """``_sweep`` on a copy of the rows, untransposed."""
        return _sweep([dict(row) for row in self.entries], self.ncols, FieldModulus(self.ring))

    def rank(self) -> int:
        return rank_mod_p(self.entries, self.ncols, FieldModulus(self.ring))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.ring})"


class FieldModulus:
    """The modulus of a field K's values: e % FieldModulus(K) is e and FieldModulus(K) - e is -e."""

    __slots__ = ("ring",)

    def __init__(self, ring: Ring):
        self.ring = ring

    def __rmod__(self, value):
        return value

    def __sub__(self, value):
        return -value


def _sweep(rows: List[dict], ncols: int, p) -> tuple:
    """Forward elimination, in place, of rows of non-zero entries reduced
    mod p, ints mod a prime or field values mod FieldModulus(field).  A
    column is a pivot column when a row not yet used as a pivot has a
    non-zero there, whichever row is taken.  The candidate with the fewest
    non-zeros pivots, which keeps fill small in either orientation, and
    over a field the one of those with the smallest ``Ring.size`` of the
    entry, which keeps rational-function entries small; each other
    candidate loses its entry there.  Returns (pivots, rows): (column,
    index of the pivot row) in sweep order, and the reduced rows."""
    size = None if type(p) is int else p.ring.size
    # column -> rows not yet used as a pivot with a non-zero there
    index: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for j in row:
            index.setdefault(j, set()).add(i)
    pivots = []
    for c in range(ncols):
        candidates = index.pop(c, None)
        if not candidates:
            continue
        if size is None:
            r = min(candidates, key=lambda i: (len(rows[i]), i))
        else:
            r = min(candidates, key=lambda i: (len(rows[i]), size(rows[i][c].payload), i))
        candidates.discard(r)
        pivot = rows[r]
        for j in pivot:
            if j != c:
                index[j].discard(r)
        inv = pow(pivot[c], -1, p) if size is None else pivot[c].inverse()
        negated = [(j, p - e) for j, e in pivot.items() if j != c]
        for i in candidates:
            row = rows[i]
            factor = row.pop(c) * inv % p
            for j, e in negated:
                old = row.get(j)
                if old is None:
                    row[j] = factor * e % p
                    index.setdefault(j, set()).add(i)
                else:
                    new = (old + factor * e) % p
                    if new:
                        row[j] = new
                    else:
                        del row[j]
                        index[j].discard(i)
        pivots.append((c, r))
        if len(pivots) == len(rows):
            break
    return pivots, rows


def rank_mod_p(rows: List[dict], ncols: int, p) -> int:
    """The rank mod a prime p of the matrix with sparse rows {column: int},
    not necessarily reduced, and ncols columns, or with p = FieldModulus(K)
    its rank over K, of rows of values in K; the rows are left alone.  More
    rows than columns are eliminated as the transpose, of the same rank: on
    the tall differentials of ``homology --n 13`` mod p, 0.2 s against 1.8 s."""
    if len(rows) > ncols:
        work: List[dict] = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, e in row.items():
                if e := e % p:
                    work[j][i] = e
        rows, ncols = work, len(rows)
    else:
        rows = [{j: r for j, e in row.items() if (r := e % p)} for row in rows]
    return len(_sweep(rows, ncols, p)[0])

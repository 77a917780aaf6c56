"""Exact sparse matrices over any of the coefficient fields.

Each row is a dict from column index to a non-zero entry; a zero that
appears by cancellation is dropped, so only non-zeros are ever stored,
multiplied or eliminated.  Rank uses Gaussian elimination with exact
field arithmetic; no floating point is involved, so ranks remain
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
        """Forward elimination of a working copy of the rows.

        Columns are swept left to right, and a column is a pivot column when
        some row not yet used as a pivot has a non-zero there; the pivot
        columns therefore do not depend on which of those rows is taken.
        The cheapest candidate is taken (smallest ``Ring.size`` of the
        entry, then fewest non-zeros), which keeps rational-function entries
        and fill small.  Only the candidate rows are touched, and each loses
        its entry in the pivot column.

        Returns (pivots, rows): pivots lists (column, index of the pivot
        row) in sweep order, and rows holds the reduced rows.
        """
        rows = [dict(r) for r in self.entries]
        # column -> rows not yet used as a pivot with a non-zero there
        index: Dict[int, set] = {}
        for i, row in enumerate(rows):
            for j in row:
                index.setdefault(j, set()).add(i)
        size = self.ring.size
        pivots = []
        for c in range(self.ncols):
            candidates = index.pop(c, None)
            if not candidates:
                continue
            p = min(candidates, key=lambda i: (size(rows[i][c].payload), len(rows[i]), i))
            candidates.discard(p)
            pivot = rows[p]
            for j in pivot:
                if j != c:
                    index[j].discard(p)
            inv = pivot[c].inverse()
            negated = [(j, -e) for j, e in pivot.items() if j != c]
            for i in candidates:
                row = rows[i]
                factor = row.pop(c) * inv
                for j, e in negated:
                    old = row.get(j)
                    if old is None:
                        row[j] = factor * e
                        index.setdefault(j, set()).add(i)
                    else:
                        new = old + factor * e
                        if new:
                            row[j] = new
                        else:
                            del row[j]
                            index[j].discard(i)
            pivots.append((c, p))
            if len(pivots) == self.nrows:
                break
        return pivots, rows

    def rank(self) -> int:
        pivots, _ = self._eliminate()
        return len(pivots)

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.ring})"

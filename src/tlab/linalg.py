"""Exact dense matrices over any of the coefficient fields.

Rank, solving and reduced row echelon form are computed by Gaussian
elimination with exact field arithmetic; no floating point is involved, so
ranks remain meaningful at root-of-unity degenerations.
"""

from __future__ import annotations

from typing import List, Optional

from .rings import Ring, RingValue


def _entry_cost(value: RingValue) -> int:
    """Rough size of a field element, used for pivot selection only."""
    return value.ring.size(value.payload)


class ExactMatrix:
    """A rows x cols matrix with entries in an exact field."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows: List[List[RingValue]]):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix rows")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(ring: Ring, nrows: int, ncols: int) -> "ExactMatrix":
        z = ring.zero
        return ExactMatrix(ring, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(ring: Ring, n: int) -> "ExactMatrix":
        out = ExactMatrix.zeros(ring, n, n)
        for i in range(n):
            out.rows[i][i] = ring.one
        return out

    def copy(self) -> "ExactMatrix":
        return ExactMatrix(self.ring, self.rows)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        zero = self.ring.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    a = self.rows[i][k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(self.ring, out)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return ExactMatrix(
            self.ring,
            [[self.rows[i][j] + other.rows[i][j] for j in range(self.ncols)] for i in range(self.nrows)],
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.ring, [[-e for e in row] for row in self.rows])

    def scale(self, c: RingValue) -> "ExactMatrix":
        return ExactMatrix(self.ring, [[c * e for e in row] for row in self.rows])

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, left factor most significant."""
        out = ExactMatrix.zeros(self.ring, self.nrows * other.nrows, self.ncols * other.ncols)
        for i in range(self.nrows):
            for j in range(self.ncols):
                a = self.rows[i][j]
                if a.is_zero():
                    continue
                for k in range(other.nrows):
                    for l in range(other.ncols):
                        out.rows[i * other.nrows + k][j * other.ncols + l] = a * other.rows[k][l]
        return out

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(self.rows[i][j] == other.rows[i][j] for i in range(self.nrows) for j in range(self.ncols))
        )

    # -- elimination -------------------------------------------------------

    def _eliminate(self) -> tuple:
        """Row-reduce a working copy; returns (reduced rows, pivot columns).

        The pivot with the cheapest payload is chosen in each column, which
        keeps rational-function entries from blowing up during elimination.
        """
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot_row = None
            best = None
            for i in range(r, self.nrows):
                if not rows[i][c].is_zero():
                    cost = _entry_cost(rows[i][c])
                    if best is None or cost < best:
                        pivot_row, best = i, cost
                        if cost == 0:
                            break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = rows[r][c].inverse()
            if not rows[r][c].is_one():
                rows[r] = [e if e.is_zero() else e * inv for e in rows[r]]
            pivot_entries = [(j, e) for j, e in enumerate(rows[r]) if not e.is_zero()]
            for i in range(self.nrows):
                if i != r and not rows[i][c].is_zero():
                    factor = rows[i][c]
                    row_i = rows[i]
                    for j, pv in pivot_entries:
                        row_i[j] = row_i[j] - factor * pv
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return rows, pivots

    def rank(self) -> int:
        _, pivots = self._eliminate()
        return len(pivots)

    def solve(self, rhs: List[RingValue]) -> Optional[List[RingValue]]:
        """One solution of A x = rhs (free variables set to zero), or None
        when the system is inconsistent."""
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        augmented = ExactMatrix(self.ring, [self.rows[i] + [rhs[i]] for i in range(self.nrows)])
        rows, pivots = augmented._eliminate()
        if self.ncols in pivots:
            return None
        solution = [self.ring.zero] * self.ncols
        for r, c in enumerate(pivots):
            solution[c] = rows[r][self.ncols]
        return solution

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.ring})"

    def pretty(self) -> str:
        cells = [[str(e) for e in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)

"""Ranks of exact sparse matrices, mod a prime or over a coefficient field.

A matrix is a list of rows, each a dict from column index to a non-zero
entry; a zero that appears by cancellation is dropped, so only non-zeros
are ever stored or eliminated.  The module only ranks: ``_sweep``, the one
pivot sweep, has one caller, ``rank_mod_p``, which eliminates a matrix with
more rows than columns as its transpose.  It ranks ints mod a prime, the
kernel of the modular rank certificate in ``sl2model.homology``, and exact
field values (with ``FieldModulus``, on the exact path of ``homology``),
with no floating point, so ranks remain meaningful at root-of-unity
degenerations.
"""

from __future__ import annotations

from typing import Dict, List

from .rings import Ring


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

"""Test-side matrix algebra on ``ExactMatrix``: the identity, the product
and the Kronecker product.  The runtime only ranks matrices, so these live
here, as references for the realization functor and the rank tests."""

from tlab.linalg import ExactMatrix
from tlab.rings import Ring


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

"""The sparse exact kernel against sympy: rank and solve over Q and GF(p).

sympy is a test-only oracle; these tests are skipped where it is missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("sympy")
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from tlab.linalg import ExactMatrix
from tlab.rings import construct_ring

P = 7
RINGS = {"Q": (construct_ring("Q"), QQ), "Fp": (construct_ring(f"Fp:{P}"), GF(P))}


@st.composite
def systems(draw, kind):
    """A sparse matrix A and a right-hand side b, as Fractions."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    density = draw(st.sampled_from((0.1, 0.3, 0.6, 1.0)))
    if kind == "Q":
        values = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        values = st.integers(-P, P).map(Fraction)
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            keep = draw(st.floats(0, 1)) < density
            row.append(draw(values) if keep else Fraction(0))
        rows.append(row)
    # a right-hand side that is often, but not always, in the column space
    if draw(st.booleans()):
        x = [draw(values) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = [draw(values) for _ in range(nrows)]
    return rows, rhs


def _ours(kind, rows):
    ring, _ = RINGS[kind]
    return ExactMatrix(ring, [[_value(ring, e) for e in row] for row in rows])


def _value(ring, e: Fraction):
    return ring.from_int(e.numerator) / ring.from_int(e.denominator)


def _reference_rank(kind, rows) -> int:
    _, domain = RINGS[kind]
    cells = [[domain(e.numerator) / domain(e.denominator) for e in row] for row in rows]
    return DomainMatrix(cells, (len(rows), len(rows[0])), domain).rank()


def _check(kind, system):
    rows, rhs = system
    ring, _ = RINGS[kind]
    A = _ours(kind, rows)
    assert A.rank() == _reference_rank(kind, rows)
    b = [_value(ring, e) for e in rhs]
    x = A.solve(b)
    augmented_rank = _reference_rank(kind, [row + [e] for row, e in zip(rows, rhs)])
    assert (x is None) == (augmented_rank > A.rank())
    if x is not None:
        X = ExactMatrix(ring, [[v] for v in x])
        assert (A * X).rows == [[v] for v in b]


@settings(max_examples=150, deadline=None)
@given(systems("Q"))
def test_rank_and_solve_over_q_match_sympy(system):
    _check("Q", system)


@settings(max_examples=150, deadline=None)
@given(systems("Fp"))
def test_rank_and_solve_over_gf_p_match_sympy(system):
    _check("Fp", system)


def test_solve_sets_free_variables_to_zero():
    Q = construct_ring("Q")
    # x0 + x1 + x2 = 3 and x2 = 1: pivot columns 0 and 2, x1 free
    A = ExactMatrix(Q, [[Q.one, Q.one, Q.one], [Q.zero, Q.zero, Q.one]])
    assert A.solve([Q.from_int(3), Q.one]) == [Q.from_int(2), Q.zero, Q.one]
    assert A.solve([Q.one, Q.one]) == [Q.zero, Q.zero, Q.one]


def test_cancellation_leaves_no_stored_zero():
    Q = construct_ring("Q")
    A = ExactMatrix(Q, [[Q.one, Q.one]])
    B = ExactMatrix(Q, [[Q.one], [-Q.one]])
    product = A * B
    assert product.is_zero() and product.entries == [{}]
    assert product.rows == [[Q.zero]]

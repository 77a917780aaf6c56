"""The int kernel ``rank_mod_p`` against sympy over GF(p), and the contract
of both rank entry points that the input rows are left alone.

sympy is a test-only oracle; these tests are skipped where it is missing.
"""

import copy

import pytest

pytest.importorskip("sympy")
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from matrix_reference import ExactMatrix
from tlab.linalg import rank_mod_p
from tlab.rings import construct_ring

# 1073741827, the first prime above 2^30, is the reduction prime of Q and ratfun:Q
PRIMES = (2, 7, 1073741827)


@st.composite
def int_matrices(draw):
    """(p, dense rows) with unreduced entries: negative ones, multiples of p
    and ints far beyond p, tall and wide shapes up to 8 x 8."""
    p = draw(st.sampled_from(PRIMES))
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.one_of(
        st.just(0),
        st.integers(-3 * p, 3 * p),
        st.integers(-3, 3).map(lambda k: k * p),
        st.integers(-(2**70), 2**70),
    )
    return p, [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def _sympy_rank(p, dense) -> int:
    field = GF(p)
    cells = [[field(e) for e in row] for row in dense]
    return DomainMatrix(cells, (len(dense), len(dense[0])), field).rank()


@settings(max_examples=300, deadline=None)
@given(int_matrices())
@example((7, [[7, -14], [1, 2], [-6, 5], [3, 3]]))  # tall, with multiples of p
@example((2, [[1, 3, -5, 0, 2]]))  # wide
def test_rank_mod_p_matches_sympy_and_leaves_the_rows_alone(case):
    p, dense = case
    ncols = len(dense[0])
    rows = [{j: e for j, e in enumerate(row) if e} for row in dense]
    before = copy.deepcopy(rows)
    assert rank_mod_p(rows, ncols, p) == _sympy_rank(p, dense)
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(int_matrices().filter(lambda case: case[0] == 7))
def test_exact_rank_over_fp_agrees_and_leaves_the_entries_alone(case):
    _, dense = case
    ring = construct_ring("Fp:7")
    matrix = ExactMatrix(ring, [[ring.from_int(e) for e in row] for row in dense])
    before = [dict(row) for row in matrix.entries]
    ints = [{j: e.payload for j, e in row.items()} for row in matrix.entries]
    assert matrix.rank() == rank_mod_p(ints, matrix.ncols, 7) == _sympy_rank(7, dense)
    assert matrix.entries == before


def test_exact_rank_over_q_leaves_the_entries_alone():
    Q = construct_ring("Q")
    # tall, so the rank runs on the transpose
    matrix = ExactMatrix(Q, [[Q.from_int(a), Q.from_int(b)] for a, b in ((1, 2), (3, 4), (5, 6))])
    before = [dict(row) for row in matrix.entries]
    assert matrix.rank() == 2
    assert matrix.entries == before and (matrix.nrows, matrix.ncols) == (3, 2)

"""Property tests for the sparse structure-constant table of fusion rings.

`FusionRing.table[i][j]` holds the non-zero (k, N_ij^k) of b_i b_j, k
ascending.  Products read off those cells are compared with the dense sum
over README's document form `to_json_dict()["N"]`, for random integer
vectors, and the dense document must load back to the same sparse table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fusion import _loaded_documents, _small_builtins
from tlab.fusion import builtin_ring, load_fusion_ring

RINGS = [(name, builtin_ring(name)) for name in _small_builtins()] + [
    (f"loaded-{k}-{ring.name}", ring) for k, ring in enumerate(_loaded_documents())
]


@pytest.mark.parametrize("ring", [ring for _, ring in RINGS], ids=[label for label, _ in RINGS])
def test_products_match_the_dense_sum(ring):
    N, r = ring.to_json_dict()["N"], ring.rank
    vectors = st.lists(st.integers(-5, 5), min_size=r, max_size=r)

    @settings(max_examples=30, deadline=None)
    @given(vectors, vectors)
    def check(x, y):
        want = tuple(sum(x[i] * y[j] * N[i][j][k] for i in range(r) for j in range(r)) for k in range(r))
        assert ring.multiply(x, y) == want

    check()


@pytest.mark.parametrize("ring", [ring for _, ring in RINGS], ids=[label for label, _ in RINGS])
def test_cells_hold_only_non_zero_constants_in_ascending_order(ring):
    for i, row in enumerate(ring.table):
        for j, cell in enumerate(row):
            ks = [k for k, _ in cell]
            assert ks == sorted(set(ks)) and all(0 <= k < ring.rank for k in ks), (i, j)
            assert all(n for _, n in cell), (i, j)


@pytest.mark.parametrize("name", _small_builtins())
def test_the_dense_document_loads_back_to_the_same_table(name):
    ring = builtin_ring(name)
    assert load_fusion_ring(ring.to_json_dict()).table == ring.table

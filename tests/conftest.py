import pytest

from tlab import tldiag
from tlab.rings import Triple, construct_ring, generic_tower
from tlab.sl2model import FiberParams


@pytest.fixture(autouse=True)
def jw_killed_on_both_sides(monkeypatch):
    """tldiag._check_jw tests the right kills x * e_i = 0 only; every JW_n
    the suite certifies must also pass the left kills e_i * x = 0, computed
    by the general compose rather than by generator surgery.  The integer
    table route (tldiag._jw_by_table) certifies over Z[z] over a
    rational-function field and skips _check_jw there, so each JW_n it
    returns that has not been through the check below goes through the
    original _check_jw and the left kills here."""
    certify, table_route = tldiag._check_jw, tldiag._jw_by_table
    last = []  # the candidate most recently checked

    def check_both_sides(candidate, n):
        certify(candidate, n)
        for i in range(1, n):
            product = tldiag.compose(tldiag.TLMorphism.e(candidate.triple, n, i), candidate)
            assert product.is_zero(), f"JW_{n} not killed by e_{i} on the left"
        last[:] = [candidate]

    def checked_table_route(triple, n):
        result = table_route(triple, n)
        if not last or last[0] is not result:
            check_both_sides(result, n)
        return result

    monkeypatch.setattr(tldiag, "_check_jw", check_both_sides)
    monkeypatch.setattr(tldiag, "_jw_by_table", checked_table_route)


@pytest.fixture(scope="session")
def tower():
    return generic_tower()


@pytest.fixture(scope="session")
def qt_balanced():
    ring = construct_ring("ratfun:Q")
    t = ring.generators()["t"]
    return Triple(ring, t, t)


@pytest.fixture(scope="session")
def f2_zero():
    ring = construct_ring("Fp:2")
    return Triple(ring, ring.zero, ring.zero)


@pytest.fixture(scope="session")
def zeta10_balanced():
    ring = construct_ring("cyclo:10")
    return FiberParams(ring, ring.generators()["q"]).balanced_triple()


@pytest.fixture(scope="session")
def zeta12_balanced():
    ring = construct_ring("cyclo:12")
    return FiberParams(ring, ring.generators()["q"]).balanced_triple()

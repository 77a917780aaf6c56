import pytest

from tlab import tldiag
from tlab.rings import Triple, construct_ring, generic_tower


@pytest.fixture(autouse=True)
def jw_killed_on_both_sides(monkeypatch):
    """tldiag._check_jw tests the right kills x * e_i = 0 only; every JW_n
    the suite certifies must also pass the left kills e_i * x = 0, computed
    by the general compose rather than by generator surgery."""
    certify = tldiag._check_jw

    def check_both_sides(candidate, n):
        certify(candidate, n)
        for i in range(1, n):
            product = tldiag.compose(tldiag.TLMorphism.e(candidate.triple, n, i), candidate)
            assert product.is_zero(), f"JW_{n} not killed by e_{i} on the left"

    monkeypatch.setattr(tldiag, "_check_jw", check_both_sides)


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
    return Triple.balanced(ring, ring.generators()["q"])


@pytest.fixture(scope="session")
def zeta12_balanced():
    ring = construct_ring("cyclo:12")
    return Triple.balanced(ring, ring.generators()["q"])

"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math

import pytest

from matrix_reference import realize_morphism
from trace_reference import is_negligible, markov_trace
from tlab.complexes import build_continuant, k0_class, twinned_subsets, validate
from tlab.contpoly import IntPolynomial, kappa, mu, qbinom, qnum
from tlab.fusion import builtin_ring, classify_all, continuant_sequence, fpdim, minimal_bound
from tlab.rings import Triple, construct_ring, generic_tower, parse_element
from tlab.sl2model import FiberParams, homology
from tlab.tldiag import (
    DOWN,
    UP,
    NotExists,
    TLMorphism,
    Word,
    compose,
    hazi_witness,
    jw,
    partial_trace,
    rotatability,
)

ALL_BUILTINS = (
    ["ising", "ty_z3", "verp:3", "verp:5", "verp:7", "pointed:1", "pointed:4", "pointed:6"]
    + [f"slq:{N}" for N in range(3, 11)]
)


def report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_acceptance_01_chebyshev_suite():
    displays = {
        2: {(2, 0): 1, (0, 0): -1},
        3: {(3, 0): 1, (1, 0): -2},
        4: {(4, 0): 1, (2, 0): -3, (0, 0): 1},
        5: {(5, 0): 1, (3, 0): -4, (1, 0): 3},
    }
    for n, coeffs in displays.items():
        assert kappa(n) == IntPolynomial(coeffs), n

    for p, l in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]:
        n = p**l - 1
        got = kappa(n).reduce_mod(p)
        if p == 2:
            want = IntPolynomial({(n, 0): 1})
        else:
            base = IntPolynomial({(2, 0): 1, (0, 0): -4})
            power = IntPolynomial.const(1)
            for _ in range(n // 2):
                power = power * base
            want = power.reduce_mod(p)
        assert got == want, (p, l)

    worst = 0.0
    for N in range(2, 21):
        for j in range(1, N):
            worst = max(worst, abs(kappa(N - 1).evaluate_float(2 * math.cos(j * math.pi / N))))
    assert worst < 1e-9
    report(1, f"kappa displays, mod-p collapse, max root residual {worst:.2e} < 1e-9")


def test_acceptance_02_quantum_number_suite():
    T = generic_tower()
    d1, d2 = T.delta1, T.delta2
    assert qnum(T, 2)[0] == d1
    assert qnum(T, 3)[0] == d1 * d2 - 1
    assert qnum(T, 4)[0] == d1 * (d1 * d2 - 2)
    assert qbinom(T, 4, 2) == parse_element(T.ring, "(t*u-2)*(t*u-1)")
    F2 = construct_ring("Fp:2")
    T2 = Triple(F2, F2.zero, F2.zero)
    assert qbinom(T2, 5, 2).is_zero()
    report(2, "[2], [3], [4], binom(4,2) symbolic; binom(5,2) = 0 over (F_2,0,0)")


def _sweep_triples():
    triples = []
    for p in (2, 3, 5):
        ring = construct_ring(f"Fp:{p}")
        for a in range(p):
            for b in range(p):
                triples.append((Triple(ring, ring.from_int(a), ring.from_int(b)), 6))
    Q = construct_ring("Q")
    triples.append((Triple(Q, Q.from_int(3), Q.from_int(3)), 6))
    for m in (8, 10, 12):
        ring = construct_ring(f"cyclo:{m}")
        triples.append((FiberParams(ring, ring.generators()["q"]).balanced_triple(), 6))
    Rt = construct_ring("ratfun:Q")
    t = Rt.generators()["t"]
    triples.append((Triple(Rt, t, t), 6))
    triples.append((generic_tower(), 5))
    return triples


def test_acceptance_03_jw_suite():
    combos = 0
    existing = 0
    for triple, top in _sweep_triples():
        for n in range(1, top + 1):
            combos += 1
            result = jw(triple, n)
            exists = not isinstance(result, NotExists)
            assert exists == (hazi_witness(triple, n) is None), (triple, n)
            if exists and n > 1:
                existing += 1
                # normalization and two-sided kills are re-checked inside
                # jw(); idempotency is asserted for every cheap ring
                if triple.ring.kind in ("Fp", "cyclo", "Q") and n <= 6:
                    assert compose(result, result) == result, (triple, n)

    F2 = construct_ring("Fp:2")
    T2 = Triple(F2, F2.zero, F2.zero)
    assert isinstance(jw(T2, 5), NotExists)

    lucas = [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
    for p, l in lucas:
        ring = construct_ring(f"Fp:{p}")
        triple = Triple(ring, ring.from_int(2), ring.from_int(2))
        got = jw(triple, p**l - 1)
        assert isinstance(got, TLMorphism), (p, l)
        assert compose(got, got) == got, (p, l)

    assert combos >= 200
    report(3, f"existence = criterion on {combos} combos ({existing} existing); "
              f"JW_5 fails over (F_2,0,0); Lucas cases exist")


def test_acceptance_04_trace_suite():
    Rt = construct_ring("ratfun:Q")
    t = Rt.generators()["t"]
    qt = Triple(Rt, t, t)
    c16 = construct_ring("cyclo:16")
    zeta16 = FiberParams(c16, c16.generators()["q"]).balanced_triple()
    tower = generic_tower()

    # EW identity p_n(JW_n) = ([n+1]/[n]) JW_{n-1} wherever defined
    for triple, top in ((qt, 6), (zeta16, 6), (tower, 5)):
        for n in range(2, top + 1):
            jw_n, jw_prev = jw(triple, n), jw(triple, n - 1)
            den_inv = qnum(triple, n)[0].inverse()
            assert den_inv is not None
            assert partial_trace(jw_n) == (qnum(triple, n + 1)[0] * den_inv) * jw_prev, n

    # markov trace of JW_n is [n+1] (of the swapped triple for the
    # right-hand closure; the two agree in balanced triples)
    for n in range(1, 7):
        assert markov_trace(jw(qt, n)) == qnum(qt, n + 1)[0], n
        assert markov_trace(jw(zeta16, n)) == qnum(zeta16, n + 1)[0], n
    swapped = tower.swap()
    for n in range(1, 6):
        assert markov_trace(jw(tower, n)) == qnum(swapped, n + 1)[0], n

    # rotatability: condition (2) agrees with the cyclotomic criterion on
    # integral domains (the check is also enforced inside rotatability())
    Q = construct_ring("Q")
    domains = [tower, qt, zeta16, Triple(Q, Q.from_int(2), Q.from_int(3))]
    for m in (6, 10, 12):
        ring = construct_ring(f"cyclo:{m}")
        domains.append(FiberParams(ring, ring.generators()["q"]).balanced_triple())
    agreements = 0
    for triple in domains:
        for n in range(2, 7):
            rep = rotatability(triple, n)
            if rep.status != "no_jw":
                assert rep.binomials_vanish == rep.cyclotomic_vanish
                agreements += 1
    report(4, f"EW identity and traces up to n = 6; rotatability criteria agree "
              f"on {agreements} (triple, n) pairs")


def test_acceptance_05_continuant_complex_suite():
    tower = generic_tower()
    c10 = construct_ring("cyclo:10")
    zeta10 = FiberParams(c10, c10.generators()["q"]).balanced_triple()

    shapes = {2: [1, 1], 3: [1, 2], 4: [1, 3, 1]}
    for n, counts in shapes.items():
        cx = build_continuant(n, "lower", tower).complex
        got = [len(cx.term(-k)) for k in range(len(counts))]
        assert got == counts, n

    for triple in (tower, zeta10):
        for n in range(0, 9):
            rep = validate(build_continuant(n, "lower", triple))
            assert rep.ok, (n, rep.issues)

    for n in range(0, 11):
        for k in range(0, n // 2 + 1):
            expected = math.comb(n - k, k)
            assert len(twinned_subsets(n, k)) == expected, (n, k)

    ks = {}
    for base in (UP, DOWN):
        for n in range(0, 9):
            ks[(base, n)] = k0_class(build_continuant(n, "lower", tower, base).complex).xy
    for n in range(0, 9):
        assert ks[(UP, n)].substitute_y_with_x() == kappa(n), n
        assert ks[(UP, n)] == mu(n), n

    def letter_for(m):
        return UP if m % 2 == 0 else DOWN

    for n in range(2, 9):
        for l in range(2, n + 1):
            rhs = ks[(letter_for(n - l + 1), l - 1)] * ks[(UP, n - l + 1)] - ks[
                (letter_for(n - l + 2), l - 2)
            ] * ks[(UP, n - l)]
            assert ks[(UP, n)] == rhs, (n, l)
    report(5, "shapes (1,1)/(1,2)/(1,3,1); d^2 = 0 and census to n = 8; "
              "K-classes specialize to kappa; triangle identities hold")


def test_acceptance_06_fiber_functor_suite():
    Rt = construct_ring("ratfun:Q")
    generic = FiberParams(Rt, Rt.generators()["t"])
    T = generic.balanced_triple()
    for n in range(0, 7):
        rep = homology(build_continuant(n, "lower", T).complex, generic)
        assert rep.concentrated_in() in ([], [0]), n
        assert rep.degrees[0].homology == n + 1, n

    c10 = construct_ring("cyclo:10")
    zeta10 = FiberParams(c10, c10.generators()["q"])
    T10 = zeta10.balanced_triple()
    rep = homology(build_continuant(4, "lower", T10).complex, zeta10)
    assert rep.concentrated_in() == [0]
    assert rep.degrees[0].homology == 5
    jw4 = jw(T10, 4)
    assert realize_morphism(jw4, zeta10).rank() == 5
    assert is_negligible(jw4)
    report(6, "generic homology concentrated with dim H_0 = n + 1 (n <= 6); "
              "at zeta_10: dim H_0(E_4) = 5 = rank JW_4 and JW_4 is negligible")


def test_acceptance_07_classifier_suite():
    assert minimal_bound(builtin_ring("ising"), "sigma").verdict.n == 4
    assert minimal_bound(builtin_ring("ty_z3"), "X").verdict.n == 6
    for p in (3, 5, 7):
        assert minimal_bound(builtin_ring(f"verp:{p}"), "L1").verdict.n == p
    for N in range(4, 11):
        assert minimal_bound(builtin_ring(f"slq:{N}"), "L1").verdict.n == N
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        assert minimal_bound(ring, ring.unit).verdict.n == 3, name
        assert minimal_bound(ring, ring.zero_vector).verdict.n == 2, name

    checked = 0
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        for rep in classify_all(ring):
            if rep.verdict.kind != "strictly_bounded":
                continue
            N = rep.verdict.n
            seq = continuant_sequence(ring, rep.object_class, 3 * N)
            zeros = [m for m in range(1, 3 * N + 1) if not any(seq[m])]
            assert zeros == [N - 1, 2 * N - 1, 3 * N - 1], (name, rep.object_label)
            cert = rep.invertibility_certificate
            assert cert and cert["signed_basis_element"], (name, rep.object_label)
            assert abs(cert["fpdim"] - 1.0) < 1e-6
            checked += 1
    report(7, f"named verdicts (sigma 4, X 6, L_1 p/N, units 3, zero 2); "
              f"divisibility and invertibility certificates on {checked} bounded objects")


def test_acceptance_08_fpdim_law():
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        for rep in classify_all(ring):
            if rep.verdict.kind == "strictly_bounded":
                want = 2 * math.cos(math.pi / rep.verdict.n)
                assert abs(rep.fpdim - want) < 1e-6, (name, rep.object_label)
            elif rep.verdict.kind == "unbounded":
                assert rep.fpdim >= 2 - 1e-6, (name, rep.object_label)

    for p in (3, 5, 7):
        for n in (1, 2):
            for i in range(0, n):
                m = p ** (n - i)
                base = math.sin(math.pi / m)
                assert abs(math.sin(2 * math.pi / m) / base - 2 * math.cos(math.pi / m)) < 1e-12
                top = p - 3 if i == n - 1 else p
                for a in range(2, top):
                    assert math.sin((a + 1) * math.pi / m) / base >= 2 - 1e-12
    report(8, "FPdim = 2cos(pi/N) within 1e-6 on all bounded objects; "
              "sine-ratio formula at 1e-12, >= 2 in legal ranges")


def test_acceptance_08_fpdim_law_exactly():
    """The FPdim of a strictly N-bounded basis object is the largest real
    root r of kappa_{N-1}, decided in exact arithmetic with sympy (a
    test-only oracle).  The FPdim is the largest real root R of chi, the
    characteristic polynomial of left multiplication by the object, and
    g = gcd(chi, kappa_{N-1}) is squarefree.  r is a root of g, so r <= R;
    R, the one root of chi in its isolating interval, is a root of g, so
    R <= r.  Hence chi has no real root above r."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    checked = 0
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        for rep in classify_all(ring):
            if rep.verdict.kind != "strictly_bounded":
                continue
            obj = ring.basis_vector(rep.object_label)
            columns = [ring.multiply(obj, ring.basis_vector(j)) for j in range(ring.rank)]
            matrix = sympy.Matrix(ring.rank, ring.rank, lambda k, j: columns[j][k])
            chi = sympy.Poly(matrix.charpoly(x).as_expr(), x)
            k = sympy.Poly({(i,): c for (i, _), c in kappa(rep.verdict.n - 1).coeffs.items()}, x)
            g = sympy.gcd(chi, k)
            for poly in (k, chi):
                (low, high), _ = poly.intervals()[-1]
                # the isolating interval is [r, r] at a rational root, and
                # otherwise open: its ends may be rational roots of poly
                ends = {low, high} if low != high else set()
                inside = g.count_roots(low, high) - sum(g.eval(e) == 0 for e in ends)
                assert inside == 1, (name, rep.object_label, poly)
            checked += 1
    assert checked >= 20
    report(8, f"FPdim law exact on {checked} bounded basis objects: the largest real root "
              "of chi is the largest root of kappa_(N-1)")


def test_acceptance_09_structural_sweeps():
    composites = 0
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        for i in range(ring.rank):
            for j in range(i, ring.rank):
                vec = list(ring.zero_vector)
                vec[i] += 1
                vec[j] += 1
                rep = minimal_bound(ring, tuple(vec))
                assert rep.verdict.kind == "unbounded", (name, vec)
                composites += 1

    products = 0
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        bounded = [
            r.object_class for r in classify_all(ring) if r.verdict.kind == "strictly_bounded"
        ]
        for x in bounded:
            for y in bounded:
                assert sum(ring.multiply(x, y)) <= 3, (name, x, y)
                products += 1
    ty = builtin_ring("ty_z3")
    assert sum(ty.multiply(ty.basis_vector("X"), ty.basis_vector("X"))) == 3
    report(9, f"no composite class bounded ({composites} checked); bounded products "
              f"have length <= 3 ({products} pairs, bound attained in ty_z3)")


def test_acceptance_10_out_of_scope_shadows():
    # Results beyond desk scale (acyclicity inside the higher symmetric
    # categories, growth-dimension statements, symmetric-power content) are
    # excluded by design; their in-scope shadows are the fiber-functor
    # homology, the negligibility certificate, and the dimension laws of
    # criteria 6-8, which must all have run green.
    c10 = construct_ring("cyclo:10")
    zeta10 = FiberParams(c10, c10.generators()["q"])
    jw4 = jw(zeta10.balanced_triple(), 4)
    assert is_negligible(jw4)
    assert abs(fpdim(builtin_ring("verp:5"), "L1") - 2 * math.cos(math.pi / 5)) < 1e-6
    report(10, "out-of-scope items excluded; in-scope shadows (criteria 6-8) cover them")

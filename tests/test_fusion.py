import json
import math
import re

import pytest

from tlab.fusion import (
    FusionRingError,
    builtin_ring,
    classify_all,
    continuant_sequence,
    fpdim,
    load_fusion_ring,
    minimal_bound,
    summary_table,
)

ALL_BUILTINS = (
    ["ising", "ty_z3", "verp:3", "verp:5", "verp:7", "pointed:1", "pointed:4", "pointed:6"]
    + [f"slq:{N}" for N in range(3, 11)]
)


def test_builtins_validate():
    # builtin_ring does not validate its tables, so the suite does: every
    # built-in of rank at most 16, and one larger rank per family
    for name in _small_builtins() + ["pointed:100", "slq:33", "verp:31"]:
        builtin_ring(name).validate()


def test_builtin_shapes():
    assert builtin_ring("ising").rank == 3
    assert builtin_ring("ty_z3").rank == 4
    assert builtin_ring("verp:5").rank == 4
    assert builtin_ring("pointed:1").rank == 1
    v5 = builtin_ring("verp:5")
    assert v5.multiply(v5.basis_vector("L1"), v5.basis_vector("L1")) == (1, 0, 1, 0)


def test_builtin_rejects_bad_names():
    for name in ("slq:2", "verp:4", "pointed:0", "nope"):
        with pytest.raises(FusionRingError):
            builtin_ring(name)
    # a parameter that is not an integer is named, not reported as int()'s
    # "invalid literal"
    for name in ("verp:", "slq:x", "pointed:2.5"):
        with pytest.raises(FusionRingError, match=f"built-in ring '{re.escape(name)}' needs an integer"):
            builtin_ring(name)


def test_label_aliases():
    ising = builtin_ring("ising")
    assert ising.index_of("sigma") == ising.index_of("σ")
    with pytest.raises(FusionRingError):
        ising.index_of("nope")


def test_fpdim_values():
    assert fpdim(builtin_ring("ising"), "sigma") == pytest.approx(math.sqrt(2), abs=1e-9)
    assert fpdim(builtin_ring("ising"), "1") == pytest.approx(1.0, abs=1e-12)
    assert fpdim(builtin_ring("verp:7"), "L1") == pytest.approx(
        2 * math.cos(math.pi / 7), abs=1e-9
    )
    assert fpdim(builtin_ring("verp:7"), "L1") == pytest.approx(1.801937736, abs=1e-8)
    assert fpdim(builtin_ring("ty_z3"), "X") == pytest.approx(math.sqrt(3), abs=1e-9)


def test_fpdim_one_iff_invertible():
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        for i in range(ring.rank):
            dim = fpdim(ring, i)
            assert dim >= 1 - 1e-9
            product = ring.multiply(ring.basis_vector(i), ring.basis_vector(ring.dual[i]))
            invertible = product == ring.unit_vector
            assert (abs(dim - 1.0) < 1e-9) == invertible, (name, i)


def test_continuant_sequences():
    ising = builtin_ring("ising")
    seq = continuant_sequence(ising, ising.basis_vector("sigma"), 4)
    assert seq[: 4] == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    ty = builtin_ring("ty_z3")
    seq = continuant_sequence(ty, ty.basis_vector("X"), 5)
    assert seq[2] == (0, 1, 1, 0)
    assert seq[3] == (0, 0, 0, 1)
    assert seq[4] == (1, 0, 0, 0)
    assert seq[5] == (0, 0, 0, 0)
    unit_seq = continuant_sequence(ising, ising.unit_vector, 2)
    assert unit_seq[2] == (0, 0, 0)


def test_minimal_bound_examples():
    assert minimal_bound(builtin_ring("ising"), "sigma").verdict.n == 4
    assert minimal_bound(builtin_ring("ty_z3"), "X").verdict.n == 6
    for p in (3, 5, 7):
        assert minimal_bound(builtin_ring(f"verp:{p}"), "L1").verdict.n == p
    for name in ("ising", "ty_z3", "verp:5", "slq:9", "pointed:6"):
        ring = builtin_ring(name)
        assert minimal_bound(ring, ring.unit).verdict.n == 3, name
    zero = minimal_bound(builtin_ring("ising"), (0, 0, 0))
    assert zero.verdict.n == 2


def test_slq_generator_strictly_n_bounded():
    for N in range(4, 11):
        report = minimal_bound(builtin_ring(f"slq:{N}"), "L1")
        assert report.verdict.kind == "strictly_bounded" and report.verdict.n == N, N


def test_unbounded_screen():
    s4 = builtin_ring("slq:4")
    report = minimal_bound(s4, (2, 0, 0))
    assert report.verdict.kind == "unbounded"
    assert report.fpdim == pytest.approx(2.0, abs=1e-9)
    big = minimal_bound(builtin_ring("slq:9"), "L4")
    assert big.verdict.kind == "unbounded"
    assert big.fpdim >= 2 - 1e-9


def test_divisibility_pattern():
    for name, label in (("ising", "sigma"), ("ty_z3", "X"), ("verp:7", "L1"), ("slq:9", "L1")):
        ring = builtin_ring(name)
        report = minimal_bound(ring, label)
        N = report.verdict.n
        seq = continuant_sequence(ring, ring.basis_vector(label), 3 * N)
        zeros = [m for m in range(1, 3 * N + 1) if not any(seq[m])]
        assert zeros == [N - 1, 2 * N - 1, 3 * N - 1], (name, zeros)


def test_invertibility_certificate():
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        for report in classify_all(ring):
            if report.verdict.kind != "strictly_bounded":
                continue
            cert = report.invertibility_certificate
            assert cert is not None and cert["signed_basis_element"], (name, report.object_label)
            assert cert["fpdim"] == pytest.approx(1.0, abs=1e-6), (name, report.object_label)


def test_classify_all_tables():
    assert [r.verdict.n for r in classify_all(builtin_ring("verp:5"))] == [3, 5, 5, 3]
    assert [r.verdict.n for r in classify_all(builtin_ring("ising"))] == [3, 4, 3]
    assert [r.verdict.n for r in classify_all(builtin_ring("pointed:6"))] == [3] * 6
    table = summary_table(classify_all(builtin_ring("ising")))
    assert "sigma" in table and "strictly 4-bounded" in table


def test_fpdim_law_across_builtins():
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        for report in classify_all(ring):
            if report.verdict.kind == "strictly_bounded":
                want = 2 * math.cos(math.pi / report.verdict.n)
                assert abs(report.fpdim - want) < 1e-6, (name, report.object_label)
            elif report.verdict.kind == "unbounded":
                assert report.fpdim >= 2 - 1e-6, (name, report.object_label)


def test_no_composite_class_is_bounded():
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        candidates = []
        for i in range(ring.rank):
            vec = list(ring.zero_vector)
            vec[i] = 2
            candidates.append(tuple(vec))
            for j in range(i + 1, ring.rank):
                vec = list(ring.zero_vector)
                vec[i] = vec[j] = 1
                candidates.append(tuple(vec))
        for vec in candidates:
            report = minimal_bound(ring, vec)
            assert report.verdict.kind == "unbounded", (name, vec)


def test_bounded_products_have_length_at_most_three():
    for name in ALL_BUILTINS:
        ring = builtin_ring(name)
        bounded = [
            r.object_class
            for r in classify_all(ring)
            if r.verdict.kind == "strictly_bounded"
        ]
        for x in bounded:
            for y in bounded:
                product = ring.multiply(x, y)
                assert sum(product) <= 3, (name, x, y)


def test_length_three_is_attained():
    ty = builtin_ring("ty_z3")
    x = ty.basis_vector("X")
    assert sum(ty.multiply(x, x)) == 3


def test_sine_ratio_formula():
    # at a = 1 the sine ratio collapses to 2cos(pi/p^(n-i)); for larger a it
    # stays >= 2 in the legal ranges (top-level labels exclude a >= p - 3)
    for p in (3, 5, 7):
        for n in (1, 2):
            for i in range(0, n):
                m = p ** (n - i)
                base = math.sin(math.pi / m)
                assert math.sin(2 * math.pi / m) / base == pytest.approx(
                    2 * math.cos(math.pi / m), abs=1e-12
                )
                top = p - 3 if i == n - 1 else p
                for a in range(2, top):
                    value = math.sin((a + 1) * math.pi / m) / base
                    assert value >= 2 - 1e-12, (p, n, i, a)


def test_galois_gap_sweep():
    # the paper-level no-solution claim fails exactly at (M, N, j) = (5, 5, 3)
    # (and its reflection j = 7): 4cos^2(pi/5) = 4cos(pi/5) + 2cos(3pi/5)
    # = (3 + sqrt 5)/2 exactly; the minimum gap elsewhere is a regression value
    solutions = []
    gap = None
    for M in range(4, 13):
        for N in range(2, 13):
            for j in range(0, 2 * N + 1):
                lhs = 4 * math.cos(math.pi / N) ** 2
                rhs = 4 * math.cos(math.pi / M) + 2 * math.cos(j * math.pi / N)
                d = abs(lhs - rhs)
                if d < 1e-9:
                    solutions.append((M, N, j))
                elif gap is None or d < gap:
                    gap = d
    assert solutions == [(5, 5, 3), (5, 5, 7)]
    assert gap == pytest.approx(0.003496658415, abs=1e-9)


def test_exceptional_coincidence_is_exact():
    # symbolic confirmation in the 20th cyclotomic field
    from tlab.rings import construct_ring

    C = construct_ring("cyclo:20")
    q = C.generators()["q"]
    c5 = q**2 + q**-2  # 2cos(pi/5)
    c35 = q**6 + q**-6  # 2cos(3pi/5)
    assert (c5 * c5 - (2 * c5 + c35)).is_zero()


def test_conjecture_flag():
    report = minimal_bound(builtin_ring("ty_z3"), "X")
    assert report.verdict.n == 6 and report.conjecture_relevant
    report = minimal_bound(builtin_ring("ising"), "sigma")
    assert not report.conjecture_relevant


def test_json_round_trip_and_validation_errors():
    ising = builtin_ring("ising")
    again = load_fusion_ring(json.dumps(ising.to_json_dict()))
    assert again.basis == ising.basis and again.table == ising.table

    near_group = ising.to_json_dict()
    near_group["N"][1][1][1] = 1  # sigma^2 = 1 + sigma + eps stays associative
    load_fusion_ring(near_group).validate()

    bad = ising.to_json_dict()
    bad["N"][1][2][1] = 0
    with pytest.raises(FusionRingError, match="associativity"):
        load_fusion_ring(bad)

    bad = ising.to_json_dict()
    bad["N"][0][1][1] = 0
    with pytest.raises(FusionRingError, match="unit"):
        load_fusion_ring(bad)

    bad = ising.to_json_dict()
    bad["N"][1][1][0] = 0
    with pytest.raises(FusionRingError, match="duality|Frobenius"):
        load_fusion_ring(bad)

    bad = ising.to_json_dict()
    bad["N"][1][1][2] = -1
    with pytest.raises(FusionRingError, match="negative"):
        load_fusion_ring(bad)

    with pytest.raises(FusionRingError, match="JSON|schema"):
        load_fusion_ring("{not json")

    trivial = {
        "name": "trivial",
        "basis": ["1"],
        "unit": 0,
        "dual": [0],
        "N": [[[1]]],
    }
    assert load_fusion_ring(trivial).rank == 1


def test_labels_and_name_are_strings_named_once():
    # labels used to be coerced with str(), and a repeated label could never
    # be named, since index_of finds the first
    cases = (
        ({"basis": [1.5, True, None]}, "basis[0] must be a string, not float"),
        ({"basis": ["a", True, None]}, "basis[1] must be a string, not bool"),
        ({"basis": ["a", "a", "b"]}, "basis[1] repeats the label 'a' of basis[0]"),
        ({"name": 3}, "name must be a string, not int"),
        ({"basis": "abc"}, "basis must be a list, not str"),
    )
    for change, message in cases:
        document = {**builtin_ring("ising").to_json_dict(), **change}
        with pytest.raises(FusionRingError) as info:
            load_fusion_ring(document)
        assert str(info.value) == message, change
    ising = builtin_ring("ising").to_json_dict()
    ising.pop("name")
    assert load_fusion_ring(ising).name == "unnamed"


def test_report_json_shape():
    report = minimal_bound(builtin_ring("ising"), "sigma")
    data = report.to_json_dict()
    assert data["verdict"]["kind"] == "strictly_bounded"
    assert data["verdict"]["n"] == 4
    assert data["zero_indices"][0] == 3


def test_max_n_guard():
    with pytest.raises(FusionRingError):
        minimal_bound(builtin_ring("ising"), "sigma", max_n=2)


def test_inconclusive_on_truncated_search():
    # the slq:40 generator first vanishes at index 39; capping the search at
    # 24 leaves dimension 2cos(pi/40) < 2, which must be reported honestly
    report = minimal_bound(builtin_ring("slq:40"), "L1", max_n=24)
    assert report.verdict.kind == "inconclusive"
    report = minimal_bound(builtin_ring("slq:40"), "L1", max_n=64)
    assert report.verdict.kind == "strictly_bounded" and report.verdict.n == 40


SESSION_BUILTINS = [
    "ising", "ty_z3", "verp:5", "verp:7", "slq:6", "slq:9", "pointed:3", "pointed:4", "pointed:6",
]


def test_classify_all_runs_one_perron_iteration_per_ring(monkeypatch):
    from tlab import fusion

    calls = []
    original = fusion._perron_vector
    monkeypatch.setattr(fusion, "_perron_vector", lambda ring: calls.append(ring) or original(ring))
    for name in SESSION_BUILTINS:
        ring = builtin_ring(name)
        calls.clear()
        classify_all(ring)
        minimal_bound(ring, (1,) * ring.rank)
        fpdim(ring, ring.rank - 1)
        assert calls == [ring], name


def test_bound_reports_the_basis_fpdim_exactly():
    for name in ALL_BUILTINS + SESSION_BUILTINS:
        ring = builtin_ring(name)
        reports = classify_all(ring)
        for i in range(ring.rank):
            want = fpdim(ring, i)
            assert minimal_bound(ring, i).fpdim == want, (name, i)
            assert reports[i].fpdim == want, (name, i)
            unit = tuple(int(j == i) for j in range(ring.rank))
            assert fpdim(ring, unit) == want, (name, i)


def _power_iteration_reference(matrix):
    """The largest eigenvalue of a non-negative matrix, by power iteration on
    the matrix plus the identity with a Rayleigh quotient (test-only: the
    per-element iteration the classifier once ran)."""
    n = len(matrix)
    shifted = [[matrix[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    vec = [1.0] * n
    previous = None
    for _ in range(200000):
        nxt = [sum(shifted[i][j] * vec[j] for j in range(n)) for i in range(n)]
        norm = max(abs(x) for x in nxt)
        nxt = [x / norm for x in nxt]
        num = sum(nxt[i] * sum(shifted[i][j] * nxt[j] for j in range(n)) for i in range(n))
        estimate = num / sum(x * x for x in nxt)
        vec = nxt
        if previous is not None and abs(estimate - previous) < 1e-12:
            break
        previous = estimate
    return estimate - 1.0


def _small_builtins():
    """Every built-in ring of rank at most 16."""
    primes = [p for p in range(2, 18) if all(p % d for d in range(2, p))]
    return (
        ["ising", "ty_z3"]
        + [f"slq:{N}" for N in range(3, 18)]
        + [f"verp:{p}" for p in primes]
        + [f"pointed:{m}" for m in range(1, 17)]
    )


def _loaded_documents():
    """The JSON rings the fusion tests load."""
    near_group = builtin_ring("ising").to_json_dict()
    near_group["N"][1][1][1] = 1
    trivial = {"name": "trivial", "basis": ["1"], "unit": 0, "dual": [0], "N": [[[1]]]}
    documents = [builtin_ring(name).to_json_dict() for name in ("ising", "ty_z3", "pointed:5")]
    return [load_fusion_ring(d) for d in documents + [near_group, trivial]]


def test_fpdims_match_the_power_iteration_reference():
    for ring in [builtin_ring(name) for name in _small_builtins()] + _loaded_documents():
        N = ring.to_json_dict()["N"]
        for i in range(ring.rank):
            matrix = [[N[i][j][k] for j in range(ring.rank)] for k in range(ring.rank)]
            assert abs(fpdim(ring, i) - _power_iteration_reference(matrix)) < 1e-9, (ring.name, i)


def test_fpdims_match_the_closed_form_at_every_rank():
    # FPdim(L_j) = [j+1]_q at q = e^(i pi/N), that is sin((j+1)pi/N)/sin(pi/N)
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    for name in [f"slq:{N}" for N in range(3, 102)] + [f"verp:{p}" for p in primes]:
        ring = builtin_ring(name)
        N = ring.rank + 1
        for j in range(ring.rank):
            want = math.sin((j + 1) * math.pi / N) / math.sin(math.pi / N)
            assert abs(fpdim(ring, j) - want) < 1e-12, (name, j)


def test_fpdims_are_a_character():
    for ring in [builtin_ring(name) for name in _small_builtins()] + _loaded_documents():
        d, N = ring.fpdims, ring.to_json_dict()["N"]
        assert d[ring.unit] == 1.0
        for i in range(ring.rank):
            for j in range(ring.rank):
                product = sum(n * dk for n, dk in zip(N[i][j], d))
                assert abs(d[i] * d[j] - product) < 1e-9, (ring.name, i, j)


def test_one_changed_structure_constant_breaks_associativity():
    # N_{2,3}^4 of verp:7 raised by one: the unit and Frobenius laws still
    # hold, so only the associativity sweep can refuse the table
    document = builtin_ring("verp:7").to_json_dict()
    document["N"][2][3][4] += 1
    with pytest.raises(FusionRingError, match="associativity fails at") as info:
        load_fusion_ring(document)
    i, j, k = map(int, re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(info.value)).groups())
    N, r = document["N"], len(document["N"])
    # the named triple fails with the products expanded by hand
    lhs = [sum(N[i][j][m] * N[m][k][l] for m in range(r)) for l in range(r)]
    rhs = [sum(N[j][k][m] * N[i][m][l] for m in range(r)) for l in range(r)]
    assert lhs != rhs


def test_fpdim_refuses_a_class_of_the_wrong_length():
    ising = builtin_ring("ising")
    for vector in ((1,), (0, 1, 0, 5), ()):
        with pytest.raises(FusionRingError, match="class vector has wrong length"):
            fpdim(ising, vector)
        with pytest.raises(FusionRingError, match="class vector has wrong length"):
            minimal_bound(ising, vector)

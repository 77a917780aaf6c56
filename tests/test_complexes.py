import gc
import tracemalloc

import pytest

from complex_reference import ChainMap, cone, shift
from tlab.complexes import (
    ComplexError,
    ContinuantBuild,
    FormalComplex,
    FormalMorphism,
    FormalObject,
    build_continuant,
    k0_class,
    twinned_subsets,
    validate,
)
from tlab.contpoly import IntPolynomial, kappa, mu
from tlab.rings import Triple, construct_ring
from tlab.tldiag import DOWN, UP, PlanarMatching, TLMorphism, Word, compose, flip_letter, jw, tensor


def unit_complex(triple):
    return FormalComplex(triple, {0: FormalObject.unit()}, {})


def ev_chain_map(triple):
    src = FormalComplex(triple, {0: FormalObject.of(Word.of("v^"))}, {})
    tgt = unit_complex(triple)
    part = FormalMorphism(
        triple, src.term(0), tgt.term(0), [[TLMorphism.ev(triple, UP)]]
    )
    return ChainMap(src, tgt, {0: part})


# -- cones and shifts ---------------------------------------------------------


def test_shift_conventions(tower):
    c2 = build_continuant(2, "lower", tower).complex
    sh = shift(c2, 1)
    assert sh.term(1).summands == (Word.of("v^"),)
    assert sh.term(0).summands == (Word.empty(),)
    assert sh.differential(1) == -c2.differential(0)
    assert shift(sh, 1).differential(2) == c2.differential(0)
    assert shift(shift(c2, 1), -1).differential(0) == c2.differential(0)


def test_cone_of_identity(tower):
    ident = ChainMap(
        unit_complex(tower),
        unit_complex(tower),
        {0: FormalMorphism.identity(tower, FormalObject.unit())},
    )
    c = cone(ident)
    assert c.term(1).summands == (Word.empty(),)
    assert c.term(0).summands == (Word.empty(),)
    entry = c.differential(1).entries[0][0]
    assert entry == -TLMorphism.identity(tower, Word.empty())


def test_cone_of_zero_is_shift_plus_target(tower):
    c2 = build_continuant(2, "lower", tower).complex
    zero_map = ChainMap(c2, unit_complex(tower), {})
    c = cone(zero_map)
    assert c.term(1).summands == c2.term(0).summands
    assert c.term(0).summands == c2.term(-1).summands + (Word.empty(),)
    assert not c.d_squared_failures()


def test_cone_requires_chain_map(tower):
    c2 = build_continuant(2, "lower", tower).complex
    # identity in degree 0 and zero in degree -1 does not commute with d
    bad = ChainMap(c2, c2, {0: FormalMorphism.identity(tower, c2.term(0))})
    with pytest.raises(ComplexError):
        cone(bad)


def test_cone_of_ev_is_second_continuant(tower):
    built = build_continuant(2, "lower", tower).complex
    direct = shift(cone(ev_chain_map(tower)), -1)
    assert direct.term(0) == built.term(0)
    assert direct.term(-1) == built.term(-1)
    assert direct.differential(0) == built.differential(0)


# -- the continuant complexes ---------------------------------------------------


def test_continuant_base_cases(tower):
    b0 = build_continuant(0, "lower", tower)
    assert b0.complex.term(0) == FormalObject.unit()
    b1 = build_continuant(1, "lower", tower)
    assert b1.complex.term(0).summands == (Word.single(UP),)


def test_continuant_two(tower):
    c2 = build_continuant(2, "lower", tower).complex
    assert c2.term(0).summands == (Word.of("v^"),)
    assert c2.term(-1).summands == (Word.empty(),)
    assert c2.differential(0).entries[0][0] == TLMorphism.ev(tower, UP)


def test_continuant_three(tower):
    c3 = build_continuant(3, "lower", tower).complex
    assert [len(c3.term(0)), len(c3.term(-1))] == [1, 2]
    assert c3.term(0).summands == (Word.of("^v^"),)
    d0 = c3.differential(0)
    id_up = TLMorphism.identity(tower, Word.single(UP))
    assert d0.entries[0][0] == tensor(id_up, TLMorphism.ev(tower, UP))
    assert d0.entries[1][0] == tensor(TLMorphism.ev(tower, DOWN), id_up)


def test_continuant_four(tower):
    c4 = build_continuant(4, "lower", tower).complex
    assert [len(c4.term(0)), len(c4.term(-1)), len(c4.term(-2))] == [1, 3, 1]
    assert c4.labels[-1] == ((0, 1), (1, 2), (2, 3))
    dm1 = c4.differential(-1)
    ev_up = TLMorphism.ev(tower, UP)
    assert dm1.entries[0][0] == ev_up
    assert dm1.entries[0][1].is_zero()
    assert dm1.entries[0][2] == -ev_up


def test_validate_and_d_squared(tower, zeta10_balanced):
    for triple in (tower, zeta10_balanced):
        for n in range(0, 9):
            for variant in ("lower", "upper"):
                for letter in (UP, DOWN):
                    report = validate(build_continuant(n, variant, triple, letter))
                    assert report.ok, (n, variant, letter, report.issues)


def test_validate_flags_corrupted_sign(tower):
    build = build_continuant(4, "lower", tower)
    c4 = build.complex
    bad_dm1 = FormalMorphism(
        tower,
        c4.term(-1),
        c4.term(-2),
        [[-e for e in c4.differential(-1).entries[0][:1]]
         + list(c4.differential(-1).entries[0][1:])],
    )
    corrupted = FormalComplex(
        tower,
        dict(c4.terms),
        {0: c4.differential(0), -1: bad_dm1},
        c4.labels,
    )
    report = validate(corrupted)
    assert not report.ok
    assert any("d^2" in issue for issue in report.issues)


def _moved_cap(m):
    """The cap (or cup) of m moved to the neighbouring pair of its long word,
    with identity strands elsewhere."""
    (side, j), _ = next((a, b) for a, b in m.pairs if a[0] == b[0])
    long_word, other = (m.source, "t") if side == "b" else (m.target, "b")
    j = j + 1 if j + 2 < len(long_word) else j - 1
    pairs = [((side, j), (side, j + 1))]
    pairs.extend(((side, s), (other, s if s < j else s - 2)) for s in range(len(long_word)) if s not in (j, j + 1))
    return PlanarMatching(m.source, m.target, pairs)


def test_validate_flags_a_cap_on_the_neighbouring_pair(tower):
    # the sign is kept, so only the matching of the entry is wrong
    for variant, degree in (("lower", 0), ("upper", 1)):
        for n in range(4, 9):
            c = build_continuant(n, variant, tower).complex
            d = c.differential(degree)
            (m, sign), = d.blocks[0, 0].terms.items()
            moved = _moved_cap(m)
            assert moved != m
            blocks = dict(d.blocks)
            blocks[0, 0] = TLMorphism.from_matching(tower, moved, sign)
            diffs = dict(c.diffs)
            diffs[degree] = FormalMorphism._from_blocks(tower, d.source, d.target, blocks)
            report = validate(FormalComplex(tower, dict(c.terms), diffs, c.labels))
            assert any(issue.startswith("d^2 != 0") for issue in report.issues), (variant, n)


def test_validate_reports_a_corrupted_upper_summand(tower):
    build = build_continuant(6, "upper", tower)
    c6 = build.complex
    words = list(c6.term(1).summands)
    original = words[2]
    words[2] = Word(tuple(DOWN if l == UP else UP for l in original.letters))
    terms = dict(c6.terms)
    terms[1] = FormalObject(tuple(words))
    diffs = {i: d for i, d in c6.diffs.items() if i not in (1, 2)}
    corrupted = FormalComplex(tower, terms, diffs, c6.labels)
    report = validate(ContinuantBuild(corrupted, 6, "upper", UP))
    assert report.issues == [
        f"degree 1: summand {words[2]} does not match label {c6.labels[1][2]}"
    ]


def brute_twinned(n, k):
    out = []
    for mask in range(1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        if len(bits) != 2 * k:
            continue
        rest = list(bits)
        while len(rest) >= 2 and rest[1] == rest[0] + 1:
            rest = rest[2:]
        if not rest:
            out.append(tuple(bits))
    return sorted(out)


def test_twinned_census_against_brute_force(tower):
    for n in range(0, 11):
        for k in range(0, n // 2 + 1):
            assert twinned_subsets(n, k) == brute_twinned(n, k), (n, k)
    for n in range(0, 11):
        build = build_continuant(n, "lower", tower)
        for i, labels in build.complex.labels.items():
            assert len(labels) == len(twinned_subsets(n, -i)), (n, i)


def recursive_twinned(n, k):
    """The recursive placement twinned_subsets used before it ran over
    itertools.combinations: pair after pair, left ends ascending."""
    out = []

    def place(start, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(start, n - 1):
            place(i + 2, remaining - 1, acc + (i, i + 1))
    place(0, k, ())
    return sorted(out)


def test_twinned_subsets_match_the_recursive_placement():
    for n in range(0, 13):
        for k in range(-1, n + 2):
            assert twinned_subsets(n, k) == recursive_twinned(n, k), (n, k)


def test_twinned_subsets_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for n, k in ((12, 3), (12, 6), (5, 0), (3, 2)):
            twinned_subsets(n, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_k0_classes(tower):
    k2 = k0_class(build_continuant(2, "lower", tower).complex)
    assert k2.xy == IntPolynomial({(1, 1): 1, (0, 0): -1})
    assert k2.x == kappa(2)
    assert k0_class(unit_complex(tower)).x == kappa(0)
    for n in range(0, 9):
        k = k0_class(build_continuant(n, "lower", tower).complex)
        assert k.x == kappa(n), n
        assert k.xy == mu(n), n


def test_triangle_shadow_identities(tower):
    ks = {}
    for base in (UP, DOWN):
        for n in range(0, 9):
            ks[(base, n)] = k0_class(build_continuant(n, "lower", tower, base).complex).xy

    def letter_for(m):
        return UP if m % 2 == 0 else DOWN

    for n in range(2, 9):
        for l in range(2, n + 1):
            rhs = ks[(letter_for(n - l + 1), l - 1)] * ks[(UP, n - l + 1)] - ks[
                (letter_for(n - l + 2), l - 2)
            ] * ks[(UP, n - l)]
            assert ks[(UP, n)] == rhs, (n, l)


def test_upper_variant_duality(tower):
    # the mirrored letter swaps x and y, and dualizing swaps them back, so
    # the two variants of the same letter carry equal classes
    for n in range(0, 8):
        upper = build_continuant(n, "upper", tower)
        lower = build_continuant(n, "lower", tower)
        assert validate(upper).ok, n
        assert k0_class(upper.complex).x == k0_class(lower.complex).x, n
        assert k0_class(upper.complex).xy == k0_class(lower.complex).xy, n
        mirrored = k0_class(build_continuant(n, "lower", tower, DOWN).complex).xy
        swapped = IntPolynomial(
            {(j, i): c for (i, j), c in k0_class(lower.complex).xy.coeffs.items()}
        )
        assert mirrored == swapped, n


def test_reference_maps_are_chain_maps(tower):
    # f_1, ..., f_5 and phi_1, ..., phi_5 of the reference construction,
    # which defines f_m through letter(m) (x) phi_m
    _, f_maps, phi_maps = reference_maps(6, tower, UP)
    for k in range(1, 6):
        assert f_maps[k].verify(), k
        assert phi_maps[k].verify(), k


def test_jw_killed_by_degree_zero_differential(tower, zeta10_balanced):
    for triple, span in ((tower, range(2, 6)), (zeta10_balanced, range(2, 5))):
        for n in span:
            jw_n = jw(triple, n)
            d0 = build_continuant(n, "lower", triple).complex.differential(0)
            for row in d0.entries:
                assert compose(row[0], jw_n).is_zero(), (triple, n)


def test_json_dump_shape(tower):
    data = build_continuant(3, "lower", tower).complex.to_json_dict()
    assert set(data["degrees"]) == {"0", "-1"}
    assert data["degrees"]["0"]["summands"] == ["∧∨∧"]
    assert "differential" in data["degrees"]["0"]


# -- the build against the literal iterated cone --------------------------------


def _tensor_letter_complex(C, letter):
    terms = {i: obj.tensor_letter(letter) for i, obj in C.terms.items()}
    diffs = {i: d.tensor_letter(letter) for i, d in C.diffs.items()}
    return FormalComplex(C.triple, terms, diffs, C.labels)


def _sort_by_labels(C, labels):
    """Reorder each degree's summands lexicographically by label."""
    position = {}  # degree -> {old index: new index}
    new_terms = {}
    new_labels = {}
    for i, obj in C.terms.items():
        order = sorted(range(len(obj)), key=lambda j: labels[i][j])
        position[i] = {old: new for new, old in enumerate(order)}
        new_terms[i] = FormalObject(tuple(obj.summands[j] for j in order))
        new_labels[i] = tuple(labels[i][j] for j in order)
    new_diffs = {}
    for i, d in C.diffs.items():
        src_pos, tgt_pos = position[i], position[i - 1]
        blocks = {(tgt_pos[a], src_pos[b]): e for (a, b), e in d.blocks.items()}
        new_diffs[i] = FormalMorphism._from_blocks(C.triple, new_terms[i], new_terms[i - 1], blocks)
    return FormalComplex(C.triple, new_terms, new_diffs, new_labels)


def reference_maps(n, triple, letter):
    """E_0, ..., E_n of the lower variant built literally as
    E_m = Cone(f_{m-1})[-1], with f_m and phi_m for m < n as first written:
    phi_m's target whiskers E_{m-1} again, and f_m is the matrix product of
    the block diagonal ev (x) id with letter(m) (x) phi_m."""
    from tlab.complexes import _letter_of

    e0 = FormalComplex(triple, {0: FormalObject.unit()}, {}, {0: ((),)})
    e1 = FormalComplex(triple, {0: FormalObject.of(Word.single(letter))}, {}, {0: ((),)})
    complexes = [e0, e1][: n + 1]
    f1_source = _tensor_letter_complex(e1, _letter_of(letter, 1))
    ev1 = FormalMorphism(triple, f1_source.term(0), e0.term(0), [[TLMorphism.ev(triple, letter)]])
    f_maps = {1: ChainMap(f1_source, e0, {0: ev1})}
    phi_maps = {1: ChainMap(e1, e1, {0: FormalMorphism.identity(triple, e1.term(0))})}
    for m in range(2, n + 1):
        prev, prev2 = complexes[m - 1], complexes[m - 2]
        em_raw = shift(cone(f_maps[m - 1]), -1)
        labels = {
            i: list(prev.labels.get(i, ()))
            + [tuple(sorted(lab + (m - 2, m - 1))) for lab in prev2.labels.get(i + 1, ())]
            for i in em_raw.terms
        }
        em = _sort_by_labels(em_raw, labels)
        complexes.append(em)
        if m == n:
            break
        c_part = _tensor_letter_complex(prev, _letter_of(letter, m - 1))
        phi_parts = {}
        for i, obj in em.terms.items():
            if i not in c_part.terms:
                continue
            column = {label: b for b, label in enumerate(em.labels[i])}
            rows = [[TLMorphism.zero(triple, w, t) for w in obj.summands] for t in c_part.term(i).summands]
            for a, label in enumerate(prev.labels.get(i, ())):
                rows[a][column[label]] = TLMorphism.identity(triple, obj.summands[column[label]])
            phi_parts[i] = FormalMorphism(triple, obj, c_part.term(i), rows)
        phi_maps[m] = ChainMap(em, c_part, phi_parts)
        ev = TLMorphism.ev(triple, _letter_of(letter, m - 1))
        f_parts = {}
        for i, phi_part in phi_parts.items():
            padded = phi_part.tensor_letter(_letter_of(letter, m))
            summands = prev.term(i).summands
            rows = [[TLMorphism.zero(triple, s, w) for s in padded.target.summands] for w in summands]
            for a, w in enumerate(summands):
                rows[a][a] = tensor(ev, TLMorphism.identity(triple, w))
            f_parts[i] = FormalMorphism(triple, padded.target, prev.term(i), rows) * padded
        f_maps[m] = ChainMap(_tensor_letter_complex(em, _letter_of(letter, m)), prev, f_parts)
    return complexes, f_maps, phi_maps


def reference_upper(lower, n):
    """The upper variant as first written: the dual of the lower variant of
    the flipped letter, relabelled by p -> n-1-p and sorted again."""
    dualised = lower.dual()
    labels = {
        i: [tuple(sorted(n - 1 - p for p in lab)) for lab in labs]
        for i, labs in dualised.labels.items()
    }
    return _sort_by_labels(dualised, labels)


def same_complex(a, b):
    # the order of the degrees is compared too: homology prints in it
    return (
        a.triple == b.triple and a.terms == b.terms and a.labels == b.labels
        and a.diffs == b.diffs
        and list(a.terms) == list(b.terms) and list(a.diffs) == list(b.diffs)
        and list(a.labels) == list(b.labels)
    )


def test_build_matches_the_reference_construction(tower):
    # E_0, ..., E_9 of both variants and both letters, over the tower and
    # over F_5 at (2, 3), against the literal iterated cone and its dual
    f5 = construct_ring("Fp:5")
    for triple in (tower, Triple(f5, f5.from_int(2), f5.from_int(3))):
        references = {letter: reference_maps(9, triple, letter)[0] for letter in (UP, DOWN)}
        for letter in (UP, DOWN):
            for m in range(10):
                lower = build_continuant(m, "lower", triple, letter).complex
                assert same_complex(lower, references[letter][m]), (triple, letter, m)
                upper = build_continuant(m, "upper", triple, letter).complex
                expected = reference_upper(references[flip_letter(letter)][m], m)
                assert same_complex(upper, expected), (triple, letter, m)


def test_the_build_composes_nothing(tower, monkeypatch):
    from tlab import complexes, tldiag

    def refuse(*args, **kwargs):
        raise AssertionError("the build called a product, a tensor or a cone")

    with monkeypatch.context() as patched:
        for module, name in ((complexes, "_add_products"), (complexes, "tensor"),
                             (tldiag, "compose"), (tldiag, "_add_products"), (tldiag, "tensor")):
            patched.setattr(module, name, refuse)
        patched.setattr(FormalMorphism, "__mul__", refuse)
        builds = [
            build_continuant(n, variant, tower, letter)
            for n in range(9) for variant in ("lower", "upper") for letter in (UP, DOWN)
        ]
    assert all(validate(build).ok for build in builds)


def test_the_build_peaks_near_what_it_leaves(tower):
    for variant in ("lower", "upper"):
        tracemalloc.start()
        try:
            build = build_continuant(14, variant, tower)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * kept, (variant, kept, peak)
        del build

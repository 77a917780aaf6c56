import contextlib
import io
import json
import subprocess
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from tlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qnum_table(capsys):
    code, out, _ = run(capsys, "qnum", "--ring", "Q", "--d1", "3", "--d2", "3", "--upto", "4")
    assert code == 0
    assert out.splitlines()[-1].startswith("  4  21")


def test_jw_not_exists_message(capsys):
    code, out, _ = run(capsys, "jw", "--ring", "Fp:2", "--d1", "0", "--d2", "0", "--n", "5")
    assert code == 0
    assert out.strip() == "JW_5: does not exist (Hazi: binom(5,2)=0)"


def test_jw_exists_json(capsys):
    code, out, _ = run(
        capsys, "jw", "--ring", "ratfun:Q", "--d1", "t", "--d2", "t", "--n", "2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["exists"] and data["terms"] == 2


def test_bound_ising_sigma(capsys):
    code, out, _ = run(capsys, "bound", "--builtin", "ising", "--object", "sigma")
    assert code == 0
    assert out.strip() == "strictly 4-bounded; FPdim=1.414214"


def test_bound_unicode_label(capsys):
    code, out, _ = run(capsys, "bound", "--builtin", "ising", "--object", "σ")
    assert code == 0
    assert "strictly 4-bounded" in out


def test_bound_verdicts_exit_zero(capsys):
    code, out, _ = run(capsys, "bound", "--builtin", "slq:6", "--object", "L2")
    assert code == 0
    assert "unbounded" in out


def test_classify_json_round_trip(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "verp:5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["verdict"]["n"] for r in data["reports"]] == [3, 5, 5, 3]


def test_rotatable(capsys):
    code, out, _ = run(
        capsys, "rotatable", "--ring", "cyclo:10", "--d1", "q+q^-1", "--d2", "q+q^-1",
        "--n", "4",
    )
    assert code == 0
    assert "rotatable" in out


def test_continuant_summary_and_json(capsys):
    code, out, _ = run(capsys, "continuant", "--n", "4")
    assert code == 0
    assert "degree 0" in out and "validation: pass" in out
    code, out, _ = run(capsys, "continuant", "--n", "3", "--format", "json")
    data = json.loads(out)
    assert data["validation"]["ok"]
    assert set(data["degrees"]) == {"0", "-1"}


def test_homology_text_and_json(capsys):
    code, out, _ = run(capsys, "homology", "--n", "3", "--ring", "cyclo:10", "--q", "q")
    assert code == 0
    assert "euler" in out
    code, out, _ = run(
        capsys, "homology", "--n", "4", "--ring", "cyclo:10", "--q", "q", "--format", "json"
    )
    data = json.loads(out)
    assert data["degrees"]["0"]["homology"] == 5


def test_homology_2tl_model(capsys):
    code, out, _ = run(
        capsys, "homology", "--n", "4", "--ring", "cyclo:10", "--q", "q", "--model", "2tl"
    )
    assert code == 0
    assert "negligible: True" in out


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "jw", "--ring", "Fp:6", "--d1", "0", "--d2", "0", "--n", "2")
    assert code == 2
    assert "not prime" in err
    code, _, _ = run(capsys, "bound", "--builtin", "ising")
    assert code == 2
    code, _, _ = run(capsys, "bound", "--object", "sigma")
    assert code == 2
    # jw picks its builder itself: --strategy is no longer an option
    code, _, err = run(capsys, "jw", "--ring", "Fp:2", "--d1", "0", "--d2", "0", "--n", "5", "--strategy", "solve")
    assert code == 2
    assert "--strategy" in err


def test_domain_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "bound", "--builtin", "ising", "--object", "nope")
    assert code == 1
    assert "unknown basis label" in err
    code, _, _ = run(capsys, "bound", "--builtin", "nope", "--object", "x")
    assert code == 1
    # a fusion document that is not a JSON object, and a path that names a
    # directory, are errors, not tracebacks
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    for path, message in ((not_an_object, "not a JSON object"), (tmp_path, "directory")):
        code, _, err = run(capsys, "bound", "--fusion", str(path), "--object", "g1")
        assert code == 1, path
        assert err.startswith("error:") and message in err, err
    # x^2 = 1 + 10^400 x: a structure constant no float holds
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"name": "huge", "basis": ["1", "x"], "unit": 0, "dual": [0, 1],
                                "N": [[[1, 0], [0, 1]], [[0, 1], [1, 10**400]]]}))
    for argv in (("bound", "--fusion", str(huge), "--object", "x"), ("classify", "--fusion", str(huge))):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:") and "structure constant at (1,1,1)" in err, err
    # values that are not integers are refused, not truncated or parsed
    from tlab.fusion import builtin_ring

    documents = [builtin_ring("ising").to_json_dict() for _ in range(4)]
    documents[0]["N"][1][1][0] = 1.9
    documents[1]["unit"] = 0.5
    documents[2]["N"][1][1][0] = "1"
    documents[3]["dual"][1] = True
    messages = ("N[1][1][0]", "unit", "N[1][1][0]", "dual[1]")
    cases = [(json.dumps(d), message) for d, message in zip(documents, messages)]
    # 100,000 nested brackets used to end the parser in a RecursionError
    cases.append(("[" * 100000, "nested too deeply"))
    bad = tmp_path / "bad.json"
    for text, message in cases:
        bad.write_text(text)
        code, _, err = run(capsys, "bound", "--fusion", str(bad), "--object", "sigma")
        assert code == 1, message
        assert err.startswith("error:") and message in err, err


def test_fusion_file_input(tmp_path, capsys):
    from tlab.fusion import builtin_ring

    path = tmp_path / "ring.json"
    path.write_text(json.dumps(builtin_ring("ty_z3").to_json_dict()))
    code, out, _ = run(capsys, "bound", "--fusion", str(path), "--object", "X")
    assert code == 0
    assert "strictly 6-bounded" in out


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0, out
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert all(l.startswith("[PASS]") for l in lines)
    assert len(lines) >= 20


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0


def _timed(capsys, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    return result, time.perf_counter() - start


def test_exponent_ceiling_exits_one_fast(capsys):
    for ring, d1 in (("ratfun:Q", "t^-1000000000"), ("ratfun:ratfun:Q", "u^1001"), ("Q", "3^1001")):
        (code, _, err), took = _timed(
            capsys, "qnum", "--ring", ring, "--d1", d1, "--d2", "1", "--upto", "2"
        )
        assert code == 1, (ring, d1)
        assert "beyond the limit of 1000" in err
        assert took < 0.5, (ring, d1, took)
    code, _, _ = run(capsys, "qnum", "--ring", "ratfun:Q", "--d1", "t^1000", "--d2", "1", "--upto", "2")
    assert code == 0


def test_exponents_stay_unbounded_in_finite_payload_rings(capsys):
    for ring, d1 in (("Fp:7", "3^-1000000000"), ("cyclo:10", "q^1000000001")):
        (code, _, _), took = _timed(
            capsys, "qnum", "--ring", ring, "--d1", d1, "--d2", "1", "--upto", "2"
        )
        assert code == 0, (ring, d1)
        assert took < 0.5, (ring, d1, took)


def test_prime_modulus_ceiling_exits_one_fast(capsys):
    (code, _, err), took = _timed(
        capsys, "qnum", "--ring", "Fp:170141183460469231731687303715884105727",
        "--d1", "1", "--d2", "1", "--upto", "2",
    )
    assert code == 1
    assert "must be below" in err
    assert took < 0.5
    # the largest prime below the ceiling is accepted, and decided quickly
    (code, _, _), took = _timed(
        capsys, "qnum", "--ring", "Fp:3317044064679887385961813", "--d1", "1", "--d2", "1",
        "--upto", "2",
    )
    assert code == 0 and took < 0.5


def test_nested_powers_cannot_pass_the_size_ceiling(capsys):
    for ring, d1, d2 in (("ratfun:Q", "(t^1000)^3", "t"), ("Q", "(3^1000)^10", "1"),
                         ("cyclo:12", "671^962356", "1")):
        (code, _, err), took = _timed(
            capsys, "qnum", "--ring", ring, "--d1", d1, "--d2", d2, "--upto", "2"
        )
        assert code == 1, (ring, d1)
        assert "predicted size" in err and "Traceback" not in err
        assert took < 0.5, (ring, d1, took)
    for ring, d1 in (("ratfun:Q", "t^1000"), ("Q", "3^1000")):
        code, _, _ = run(capsys, "qnum", "--ring", ring, "--d1", d1, "--d2", "1", "--upto", "2")
        assert code == 0, (ring, d1)


def test_deep_nesting_exits_one_without_traceback(capsys):
    for d1 in ("(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"):
        (code, _, err), took = _timed(
            capsys, "qnum", "--ring", "Q", f"--d1={d1}", "--d2", "1", "--upto", "2"
        )
        assert code == 1
        assert "nests parentheses and signs deeper than" in err
        assert took < 0.5
    nested = "(" * 99 + "1" + ")" * 99
    assert run(capsys, "qnum", "--ring", "Q", "--d1", nested, "--d2", "1", "--upto", "2")[0] == 0


def test_blocked_jw_over_a_prime_field_is_solved_in_seconds(capsys):
    # [3] = 3 * 5 - 1 vanishes over F_7, so the recursion is
    # blocked; the sparse linear solve takes about 1 s
    (code, out, _), took = _timed(
        capsys, "jw", "--ring", "Fp:7", "--d1", "3", "--d2", "5", "--n", "8", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["exists"] is True
    assert took < 20, took


def test_rotatable_tests_binomial_factors_not_products(capsys):
    # the [[d]] factors of each binomial are tested for zero; multiplying
    # the binomials out over Q(t)(u) takes about 23 s at n = 50
    (code, _, _), took = _timed(capsys, "rotatable", "--n", "50")
    assert code == 0
    assert took < 5, took


def test_continuant_walks_only_non_zero_entries(capsys):
    # 744 of the 11,657 entries of E_12's differentials are non-zero; the
    # build took 30 s at n = 15 while it stored and multiplied the zeros
    (code, out, _), took = _timed(capsys, "continuant", "--n", "15")
    assert code == 0
    assert "validation: pass" in out
    assert took < 10, took


def test_qnum_rejects_a_negative_upto(capsys):
    # it used to print an empty table and exit 0
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "qnum", "--upto", "-1", "--format", fmt)
        assert code == 1 and out == "", fmt
        assert "upto must be a natural number" in err, fmt


def test_homology_rejects_negative_n_under_both_models(capsys):
    for model in ("sl2", "2tl"):
        code, _, err = run(capsys, "homology", "--n", "-1", "--model", model)
        assert code == 1, model
        assert "n must be a natural number" in err, model


def test_n_ceilings_exit_one_fast_and_admit_the_benchmark_jobs(capsys):
    from tlab.cli import MAX_CONTINUANT_N, MAX_HOMOLOGY_N

    assert MAX_CONTINUANT_N >= 12 and MAX_HOMOLOGY_N >= 8
    for argv, limit in (
        (("continuant",), MAX_CONTINUANT_N),
        (("homology", "--model", "sl2"), MAX_HOMOLOGY_N),
        (("homology", "--model", "2tl"), MAX_HOMOLOGY_N),
    ):
        (code, _, err), took = _timed(capsys, *argv, "--n", str(limit + 1))
        assert code == 1, argv
        assert f"beyond the limit of {limit}" in err
        assert took < 0.5, (argv, took)


def test_homology_without_a_reduction_mod_p_has_a_lower_ceiling(capsys):
    # there the ranks come from elimination over the field, as before the
    # modular certificate: ratfun:cyclo:5 took 39 s at n = 12
    from tlab.cli import MAX_HOMOLOGY_EXACT_N, MAX_HOMOLOGY_N
    from tlab.rings import construct_ring

    assert MAX_HOMOLOGY_EXACT_N < MAX_HOMOLOGY_N
    p, _ = construct_ring("Q").reduction()
    n = str(MAX_HOMOLOGY_EXACT_N + 1)
    for ring, q in (("ratfun:Fp:5", "t"), ("ratfun:cyclo:5", "t"), ("Q", str(p)), ("Q", f"1/{p}")):
        (code, _, err), took = _timed(capsys, "homology", "--n", n, "--ring", ring, "--q", q)
        assert code == 1, (ring, q)
        assert f"beyond the limit of {MAX_HOMOLOGY_EXACT_N} over {ring}" in err
        assert took < 0.5, (ring, q, took)
    code, _, _ = run(capsys, "homology", "--n", n, "--ring", "ratfun:Fp:5", "--q", "t", "--model", "2tl")
    assert code == 0


def test_jw_over_rational_functions_has_a_lower_ceiling(capsys, monkeypatch):
    from tlab import tldiag
    from tlab.cli import MAX_JW_FIELD_RATFUN_N, MAX_JW_N, MAX_JW_RATFUN_N

    assert MAX_JW_RATFUN_N <= MAX_JW_N and max(MAX_JW_FIELD_RATFUN_N) < MAX_JW_N
    one, more = MAX_JW_FIELD_RATFUN_N
    for argv, limit in (
        (("--ring", "ratfun:Fp:101", "--d1", "t+t^-1", "--d2", "2*t"), one),
        (("--ring", "ratfun:Fp:101", "--d1", "t", "--d2", "t"), one),
        (("--ring", "ratfun:cyclo:5", "--d1", "t+q", "--d2", "t"), one),
        (("--ring", "ratfun:ratfun:Q", "--d1", "t+u", "--d2", "u"), MAX_JW_RATFUN_N - 2),
        (("--ring", "ratfun:ratfun:ratfun:Q", "--d1", "t+u", "--d2", "v"), MAX_JW_RATFUN_N - 4),
        (("--ring", "ratfun:ratfun:Fp:101", "--d1", "t+u", "--d2", "u"), more),
        (("--ring", "ratfun:ratfun:ratfun:cyclo:5", "--d1", "t+u", "--d2", "v"), more),
    ):
        (code, _, err), took = _timed(capsys, "jw", *argv, "--n", str(limit + 1))
        assert code == 1, argv
        assert f"beyond the limit of {limit} over {argv[1]} with these loop values" in err, argv
        assert took < 1, (argv, took)
    # monic monomial loop values over Q(t), Q(t)(u), ..., every other loop
    # value over Q(t) and every other field keep MAX_JW_N
    monkeypatch.setattr(tldiag, "jw", lambda triple, n: tldiag.NotExists(n, "not built", 1))
    for argv in ((), ("--ring", "ratfun:Q", "--d1", "t", "--d2", "t^2"), ("--ring", "Fp:101", "--d1", "3", "--d2", "5"),
                 ("--ring", "ratfun:Q", "--d1", "t+t^-1", "--d2", "2*t"), ("--ring", "ratfun:Q", "--d1", "t", "--d2", "t^-1")):
        code, out, _ = run(capsys, "jw", *argv, "--n", str(MAX_JW_N))
        assert code == 0 and f"does not exist (Hazi: binom({MAX_JW_N},1)=0)" in out, argv


def test_deeply_nested_ring_specs_exit_one_with_one_line(capsys):
    from tlab.rings import MAX_RATFUN_DEPTH

    # 200 levels once ran out of stack printing a value, 2000 while parsing
    for depth in (2000, MAX_RATFUN_DEPTH + 1):
        for argv in (("qnum", "--upto", "2"), ("jw", "--n", "2")):
            (code, out, err), took = _timed(capsys, *argv, "--ring", "ratfun:" * depth + "Q", "--d1", "t", "--d2", "u")
            assert code == 1 and not out, (depth, argv)
            assert err.count("\n") == 1 and err.startswith("error:"), err
            assert f"nests {depth} ratfun: levels, beyond the limit of {MAX_RATFUN_DEPTH}" in err
            assert took < 0.5, (depth, argv, took)
    for argv in (("qnum", "--upto", "2"), ("jw", "--n", "2")):
        code, out, _ = run(capsys, *argv, "--ring", "ratfun:" * MAX_RATFUN_DEPTH + "Q", "--d1", "t", "--d2", "u")
        assert code == 0 and out, argv


def test_jw_ceiling_over_deep_towers_is_one(capsys):
    # two less per variable over Q would go below 1 from seven variables on
    for depth in (7, 50):
        ring = "ratfun:" * depth + "Q"
        code, _, err = run(capsys, "jw", "--ring", ring, "--d1", "t+u", "--d2", "u", "--n", "2")
        assert code == 1 and f"jw --n 2 is beyond the limit of 1 over {ring} with these loop values" in err
        code, out, _ = run(capsys, "jw", "--ring", ring, "--d1", "t+u", "--d2", "u", "--n", "1")
        assert code == 0 and out


def test_size_ceilings_exit_one_fast_and_admit_the_benchmark_jobs(capsys, tmp_path):
    from tlab.cli import MAX_FUSION_N, MAX_JW_N, MAX_QNUM_UPTO, MAX_ROTATABLE_N
    from tlab.fusion import MAX_BUILTIN_RANK, MAX_DOCUMENT_BYTES, MAX_DOCUMENT_RANK, builtin_ring

    # the largest such jobs the benchmark runs (slq:12 has rank 11; --max-n
    # keeps its default)
    assert MAX_JW_N >= 7 and MAX_ROTATABLE_N >= 5 and MAX_QNUM_UPTO >= 8
    assert MAX_BUILTIN_RANK >= 11 and MAX_FUSION_N >= 64
    for argv, limit in (
        (("jw", "--n"), MAX_JW_N),
        (("rotatable", "--n"), MAX_ROTATABLE_N),
        (("qnum", "--upto"), MAX_QNUM_UPTO),
        (("bound", "--builtin", "slq:5", "--object", "L1", "--max-n"), MAX_FUSION_N),
        (("classify", "--builtin", "ising", "--max-n"), MAX_FUSION_N),
    ):
        (code, _, err), took = _timed(capsys, *argv, str(limit + 1))
        assert code == 1, argv
        assert f"beyond the limit of {limit}" in err
        assert took < 0.5, (argv, took)
    # a built-in's rank is checked before its rank^3 table is built, and a
    # verp:p before p is tested for primality (2^61 - 1 is prime)
    for name in (f"slq:{MAX_BUILTIN_RANK + 2}", "verp:113", f"pointed:{MAX_BUILTIN_RANK + 1}",
                 "pointed:1000", "verp:2305843009213693951"):
        for argv in (("bound", "--builtin", name, "--object", "L1"), ("classify", "--builtin", name)):
            (code, _, err), took = _timed(capsys, *argv)
            assert code == 1, argv
            assert f"beyond the limit of {MAX_BUILTIN_RANK}" in err
            assert took < 0.5, (argv, took)
    (code, _, _), took = _timed(capsys, "bound", "--builtin", f"pointed:{MAX_BUILTIN_RANK}", "--object", "g1")
    assert code == 0 and took < 5, took
    # a --fusion document's rank is checked before its table is built and
    # its associativity sweep runs
    path = tmp_path / "big.json"
    path.write_text(json.dumps(builtin_ring(f"pointed:{MAX_DOCUMENT_RANK + 1}").to_json_dict()))
    for argv in (("bound", "--fusion", str(path), "--object", "g1"), ("classify", "--fusion", str(path))):
        (code, _, err), took = _timed(capsys, *argv)
        assert code == 1, argv
        assert f"beyond the limit of {MAX_DOCUMENT_RANK}" in err
        assert took < 0.5, (argv, took)
    # a --fusion file's size is checked while it is read, before it is parsed
    huge = tmp_path / "huge.json"
    subprocess.run(["truncate", "-s", str(MAX_DOCUMENT_BYTES + 1), str(huge)], check=True)
    for argv in (("bound", "--fusion", str(huge), "--object", "g1"), ("classify", "--fusion", str(huge))):
        (code, _, err), took = _timed(capsys, *argv)
        assert code == 1, argv
        assert f"beyond the limit of {MAX_DOCUMENT_BYTES} bytes" in err
        assert took < 0.5, (argv, took)
    # a document at the rank limit, written with indent=2, is read whole,
    # validated and answered
    path.write_text(json.dumps(builtin_ring(f"pointed:{MAX_DOCUMENT_RANK}").to_json_dict(), indent=2))
    (code, out, _), took = _timed(capsys, "bound", "--fusion", str(path), "--object", "g1")
    assert code == 0 and out.startswith("strictly 3-bounded"), out
    assert took < 10, took


def test_raised_jw_ceilings_are_reached_in_seconds(capsys, monkeypatch):
    # JW_7 over the default tower Q(t)(u), built afresh from the integer
    # table (0.2 s; the suite's check of both kills takes most of the rest),
    # and the 2tl model at the homology ceiling, which reads [n+1] and builds
    # no JW_n
    from tlab import tldiag
    from tlab.cli import MAX_HOMOLOGY_N

    monkeypatch.setattr(tldiag, "_JW_CACHE", {})
    (code, _, _), took = _timed(capsys, "jw", "--n", "7", "--format", "json")
    assert code == 0 and took < 3, took
    (code, out, _), took = _timed(
        capsys, "homology", "--model", "2tl", "--n", str(MAX_HOMOLOGY_N), "--format", "json"
    )
    assert code == 0 and took < 1, took
    assert json.loads(out)["jw_exists"] is True


def test_homology_at_a_huge_rational_q_is_certified_in_seconds(capsys):
    # q = 10^999 has 3,320 bits; reduced mod p the ranks cost what they cost
    # at q = 2, where elimination over Q took 5-6 s on its huge entries
    (code, out, _), took = _timed(capsys, "homology", "--n", "11", "--ring", "Q", "--q", "10^999", "--format", "json")
    assert code == 0 and took < 3, took
    degrees = json.loads(out)["degrees"]
    assert degrees["0"]["homology"] == 12
    assert all(d["homology"] == 0 for i, d in degrees.items() if i != "0")


# rings with their generators, and malformed specifications
_RINGS = {
    "Q": "", "Fp:2": "", "Fp:7": "", "cyclo:10": "q", "cyclo:12": "q", "ratfun:Q": "t",
    "ratfun:ratfun:Q": "tu", "ratfun:Fp:5": "t", "Fp:4": "", "cyclo:0": "", "ratfun:": "",
}
_JUNK = st.text(alphabet="0123456789tuq+-*/^() ", max_size=12)
_N = st.integers(-2, 4)


def _elements(gens: str):
    """Small well-formed expressions in the generators most of the time,
    short junk otherwise."""
    atom = st.sampled_from(("0", "1", "2", "3", "-1") + tuple(gens) + tuple(g + "^-1" for g in gens))
    expr = st.recursive(
        atom,
        lambda inner: st.builds(lambda a, op, b: f"({a}{op}{b})", inner, st.sampled_from("+-*/"), inner)
        | st.builds(lambda a, e: f"({a})^{e}", inner, st.integers(-3, 3)),
        max_leaves=4,
    )
    return st.one_of(expr, expr, expr, _JUNK)


@st.composite
def _cheap_commands(draw):
    command = draw(st.sampled_from(("qnum", "jw", "rotatable", "continuant", "homology")))
    ring = draw(st.sampled_from(sorted(_RINGS)))
    element = _elements(_RINGS[ring])
    flags = {"ring": ring}
    if command == "homology":
        flags.update(q=draw(element), n=draw(_N), model=draw(st.sampled_from(("sl2", "2tl"))))
    else:
        flags.update(d1=draw(element), d2=draw(element))
        flags["upto" if command == "qnum" else "n"] = draw(_N)
    if draw(st.booleans()):
        flags["format"] = "json"
    # --flag=value keeps values that start with "-" from reading as flags
    return [command] + [f"--{flag}={value}" for flag, value in flags.items()]


@settings(max_examples=200, deadline=None)
@given(_cheap_commands())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def test_cyclotomic_modulus_ceiling_exits_one_fast(capsys):
    from tlab.rings import MAX_CYCLO_M

    for m in (MAX_CYCLO_M + 1, 10**30):
        (code, _, err), took = _timed(
            capsys, "qnum", "--ring", f"cyclo:{m}", "--d1", "q+q^-1", "--d2", "q+q^-1", "--upto", "2"
        )
        assert code == 1, m
        assert f"beyond the limit of {MAX_CYCLO_M}" in err and "Traceback" not in err
        assert took < 0.5, (m, took)
    # the largest cyclotomic field the tests use is admitted
    (code, _, _), took = _timed(
        capsys, "qnum", "--ring", "cyclo:105", "--d1", "q+q^-1", "--d2", "q+q^-1", "--upto", "4"
    )
    assert code == 0 and took < 5, took


def test_parser_is_built_once():
    from tlab.cli import build_parser

    assert build_parser() is build_parser()


def test_one_process_answers_as_separate_runs(capsys):
    import os
    import subprocess
    import sys

    import tlab

    jobs = [
        ["continuant", "--variant", "middle", "--n", "3"],
        ["jw", "--ring", "Fp:6", "--d1", "0", "--d2", "0", "--n", "2"],
        ["qnum", "--ring", "Q", "--d1", "3", "--d2", "3", "--upto", "4"],
        ["continuant", "--n", "4", "--format", "json"],
        ["jw", "--n", "3", "--bogus", "1"],
        ["qnum", "--ring", "cyclo:10", "--d1", "q+q^-1", "--d2", "q+q^-1", "--format", "json"],
        ["continuant", "--n", "3", "--variant", "upper"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tlab.__file__)))
    for argv in jobs:
        code, out, err = run(capsys, *argv)
        alone = subprocess.run(
            [sys.executable, "-m", "tlab.cli", *argv], capture_output=True, text=True, env=env,
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
    assert [run(capsys, *argv)[0] for argv in jobs] == [2, 2, 0, 0, 2, 0, 0]

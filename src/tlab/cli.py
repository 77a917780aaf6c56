"""Command-line front end.

Exit codes: 0 for success (verdicts such as a non-existent idempotent, an
unbounded object or an inconclusive classification are answers, not
failures), 1 for domain errors (bad labels, invalid fusion data), 2 for
usage errors (unknown flags, malformed ring specifications).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, List, Tuple

from . import complexes, contpoly, fusion, sl2model, tldiag
from .rings import (
    ElementParseError,
    FractionField,
    IntFractionField,
    RingError,
    RingSpecError,
    Triple,
    construct_ring,
    generic_tower,
    parse_element,
)


class UsageError(Exception):
    pass


class InputLimitError(ValueError):
    """A well-formed request beyond what the command finishes in a minute."""


# Largest --n (--upto for `qnum`, --max-n for `bound` and `classify`): the
# largest value that finished within 60 s without error (CPython 3.11, one
# core of an Intel Xeon virtual machine), with the default rings unless said
# otherwise.  `continuant`, lower variant, took 8-9.5 s at n = 20 (183 MB,
# the text printed one degree at a time) and 21-28 s with --format json
# (254 MB); at 21 the text took 20 s (359 MB), --format json 66 s and 568 MB,
# over the time and memory rules: the dense JSON rows set the peak, which
# about doubles with each n.  `homology` over ratfun:Q, its ranks certified
# mod p, took 0.2 s at n = 11, 0.7 s at 12, 1.9-2.3 s at 13 (64 MB),
# 6.2-6.7 s at 14 (135 MB) and 17-19 s at 15 (376 MB), either variant, text
# or JSON; at 15 over cyclo:10 at q, Q at q = 10^999, ratfun:ratfun:Q at
# t*u and Fp:1000003 at 12345 it took 17-19 s and 374-382 MB.  n = 16 was
# not run: the peak more than doubles with each n.  Where q has no
# reduction mod p (ratfun:Fp:*, ratfun:cyclo:*, or a denominator that p
# divides) the ranks come from elimination over the field, as before the
# certificate: MAX_HOMOLOGY_EXACT_N, since ratfun:cyclo:5 at t took 54 s
# at 13 (98 MB), too close to 60 s, and 16 s at 12 (47 MB); ratfun:Fp:5
# took 5.4 s at 12 and 19 s at 13 (84 MB), and Q at q = p 5.9 s at 13 and
# 20 s at 14 (165 MB); deeper towers were not measured.
# `--model 2tl` builds no JW_n and takes 0.02 s at 15.  `jw` over the
# default ratfun:ratfun:Q, from the integer table over Z[z], took 0.2-0.3 s
# at n = 8, 0.9-1.0 s at 9, 4.0-4.4 s at 10 (59 MB) and 15-22 s at 11
# (197 MB; 16-20 s and 227 MB with --format json); over `--ring Fp:101 --d1
# 3 --d2 5` it takes 0.3 s at 9, 1.1-1.3 s at 10 (35 MB) and 4.7-6.0 s at 11
# (81 MB); blocked, at cyclo:12 (q+q^-1, q+q^-1), 9-11 s (121 MB).  Other
# loop values over a rational-function field take a gcd per coefficient:
# MAX_JW_RATFUN_N over Q, two less per further variable down to 1 (JW_1 is
# the identity), and MAX_JW_FIELD_RATFUN_N over F_p or Q(zeta_m), over one
# variable and more.
# ratfun:Q with (t+t^-1, 2t) took 19 s at 11, ratfun:Fp:101 50 s (150 MB),
# ratfun:cyclo:5 with (t+q, t) 62 s at 10; over Q(t)(u) with (t+u, u+1)
# 83 s at 10, over F_101(t)(u) 71 s at 8, over Q(zeta_5)(t)(u) with
# (t+u, u+q) 71 s at 6; over Q(t)(u)(v) with (t+u, v+1) over 90 s at 8.
# `rotatable` took 43 s at n = 500 (178 MB) and 62 s at 550, and `qnum`
# 59 s at 550 (160 MB) and over 75 s at 600, when these limits were set.
# With [n] and [[n]] evaluated as power sums in z = d1 d2, `rotatable`
# takes 9.5 s at 400 and 20 s at 500 (166 MB), and `qnum` 13 s at 400 and
# 34 s at 550 (147 MB); just before, on the same 2-core VM, 15.6 s, 29 s,
# 17 s and 46 s (159 MB).  `classify`
# at the built-in rank limit (fusion.MAX_BUILTIN_RANK) took 7-10 s at
# --max-n 256 with --format json (verp:101, 182 MB); the classes of objects
# of FPdim above 2 grow exponentially, so memory grows as the square of
# --max-n, and over slq:111 it went from 49 MB at 64 to 220 MB at 256.
MAX_CONTINUANT_N = 20
MAX_HOMOLOGY_N = 15
MAX_HOMOLOGY_EXACT_N = 12
MAX_JW_N = 11
MAX_JW_RATFUN_N = 11
MAX_JW_FIELD_RATFUN_N = (9, 5)
MAX_ROTATABLE_N = 500
MAX_QNUM_UPTO = 550
MAX_FUSION_N = 256


def _check_limit(value: int, limit: int, option: str) -> None:
    if value > limit:
        raise InputLimitError(f"{option} {value} is beyond the limit of {limit}")


def _triple_from_args(args) -> Triple:
    try:
        ring = construct_ring(args.ring)
        d1 = parse_element(ring, args.d1)
        d2 = parse_element(ring, args.d2)
    except (RingSpecError, ElementParseError) as exc:
        raise UsageError(str(exc)) from None
    return Triple(ring, d1, d2)


def _print_json(payload) -> None:
    """Stream payload as indented JSON, without building the whole text."""
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit(args, text: str, payload) -> None:
    if args.format == "json":
        _print_json(payload)
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands


def cmd_qnum(args) -> int:
    _check_limit(args.upto, MAX_QNUM_UPTO, "qnum --upto")
    if args.upto < 0:
        raise ValueError("upto must be a natural number")
    triple = _triple_from_args(args)
    lines = ["  n  [n]              [[n]]"]
    rows = []
    for k in range(args.upto + 1):
        qn, qq = map(str, contpoly.qnum(triple, k))
        lines.append(f"{k:3d}  {qn:<15}  {qq}")
        rows.append({"n": k, "qnum": qn, "qqnum": qq})
    _emit(args, "\n".join(lines), {"ring": args.ring, "rows": rows})
    return 0


def cmd_jw(args) -> int:
    _check_limit(args.n, MAX_JW_N, "jw --n")
    triple = _triple_from_args(args)
    ring = triple.ring
    if isinstance(ring, FractionField) and not tldiag._monomial_loops(triple):
        limit = max(1, MAX_JW_RATFUN_N + 2 - 2 * ring.depth)
        if not isinstance(ring, IntFractionField):
            limit = min(limit, MAX_JW_FIELD_RATFUN_N[ring.depth > 1])
        if args.n > limit:
            raise InputLimitError(f"jw --n {args.n} is beyond the limit of {limit} over {args.ring}"
                                  " with these loop values")
    result = tldiag.jw(triple, args.n)
    if isinstance(result, tldiag.NotExists):
        detail = f"Hazi: binom({args.n},{result.witness})=0"
        _emit(
            args,
            f"JW_{args.n}: does not exist ({detail})",
            {"n": args.n, "exists": False, "reason": detail},
        )
        return 0
    shown = str(result)
    _emit(
        args,
        f"JW_{args.n} = {shown}",
        {"n": args.n, "exists": True, "morphism": shown, "terms": len(result.terms)},
    )
    return 0


def cmd_rotatable(args) -> int:
    _check_limit(args.n, MAX_ROTATABLE_N, "rotatable --n")
    triple = _triple_from_args(args)
    report = tldiag.rotatability(triple, args.n)
    _emit(
        args,
        f"level {args.n}: {report.status} ({report.detail})",
        {
            "n": args.n,
            "status": report.status,
            "detail": report.detail,
            "binomials_vanish": report.binomials_vanish,
            "cyclotomic_vanish": report.cyclotomic_vanish,
        },
    )
    return 0


def cmd_continuant(args) -> int:
    _check_limit(args.n, MAX_CONTINUANT_N, "continuant --n")
    triple = _triple_from_args(args)
    build = complexes.build_continuant(args.n, args.variant, triple)
    report = complexes.validate(build)
    if args.format == "json":
        payload = build.complex.to_json_dict()
        payload["validation"] = {"ok": report.ok, "issues": report.issues}
        _print_json(payload)
    else:
        sys.stdout.writelines(line + "\n" for line in build.complex._summary_lines())
        print(report)
    return 0


def cmd_homology(args) -> int:
    _check_limit(args.n, MAX_HOMOLOGY_N, "homology --n")
    if args.n < 0:
        raise complexes.ComplexError("n must be a natural number")
    try:
        ring = construct_ring(args.ring)
        q = parse_element(ring, args.q)
    except (RingSpecError, ElementParseError) as exc:
        raise UsageError(str(exc)) from None
    params = sl2model.FiberParams(ring, q)
    if args.model == "sl2" and args.n > MAX_HOMOLOGY_EXACT_N and sl2model._modular_pass(params) is None:
        raise InputLimitError(f"homology --n {args.n} is beyond the limit of {MAX_HOMOLOGY_EXACT_N} over "
                              f"{args.ring} at this q, which has no reduction mod p")
    triple = params.balanced_triple()
    if args.model == "2tl":
        verdict = tldiag._binomial_verdict(triple, args.n)
        if verdict is not None:
            _emit(
                args,
                f"E_{args.n} at q={args.q}: {verdict}",
                {"n": args.n, "jw_exists": False, "reason": verdict.reason},
            )
            return 0
        # tr(JW_n) = [n+1], with no JW_n built.  Let rho be sl2model's
        # realization of TL(delta, delta), delta = q + q^-1: it is monoidal,
        # so a scalar realizes to itself, and every diagram keeps the number
        # k of ones in a string s of n bits; W_k is spanned by those strings.
        # 1. The Markov trace closes strand j by a cup and a cap with left ends on
        #    f's side, weighing bit 0 by q * 1 and bit 1 by 1 * q^-1, so
        #    tr(f) = sum_s q^(#0(s) - #1(s)) rho(f)_ss = sum_k q^(n-2k) Tr(rho(f) | W_k).
        # 2. ker rho(e_i) is the kernel of its cap, x_..10.. = -q x_..01..;
        #    adjacent swaps join all of W_k, so S_k = W_k cap (ker rho(e_i) for
        #    all i) is spanned by x_s = (-q)^inv(s).
        # 3. e_i JW_n = 0 puts the image of rho(JW_n) in S, and every
        #    non-identity diagram is D' e_i, so rho(JW_n) fixes S: on W_k it
        #    is an idempotent of rank 1, of trace 1 in every characteristic.
        # 4. So tr(JW_n) = sum_k q^(n-2k) = [n+1] at (delta, delta).
        # And JW_n m = 0 for every non-identity diagram m, so JW_n is
        # negligible exactly when [n+1] = tr(JW_n) vanishes.
        trace = contpoly.qnum(triple, args.n + 1)[0]
        negligible = trace.is_zero()
        _emit(
            args,
            f"E_{args.n} at q={args.q}: JW exists; markov trace {trace}; "
            f"negligible: {negligible}",
            {"n": args.n, "jw_exists": True, "markov_trace": str(trace), "negligible": negligible},
        )
        return 0
    build = complexes.build_continuant(args.n, args.variant, triple)
    report = sl2model.homology(build.complex, params)
    _emit(args, str(report), report.to_json_dict())
    return 0


def _ring_from_args(args) -> fusion.FusionRing:
    if args.builtin and args.fusion:
        raise UsageError("give either --builtin or --fusion, not both")
    if args.builtin:
        return fusion.builtin_ring(args.builtin)
    if args.fusion:
        with open(args.fusion, "rb") as handle:
            document = handle.read(fusion.MAX_DOCUMENT_BYTES + 1)
        if len(document) > fusion.MAX_DOCUMENT_BYTES:
            raise fusion.FusionRingError(f"{args.fusion} is beyond the limit of {fusion.MAX_DOCUMENT_BYTES} bytes")
        return fusion.load_fusion_ring(document.decode("utf-8"))
    raise UsageError("one of --builtin or --fusion is required")


def cmd_bound(args) -> int:
    _check_limit(args.max_n, MAX_FUSION_N, "--max-n")
    ring = _ring_from_args(args)
    obj = args.object
    if obj is None:
        raise UsageError("--object is required")
    report = fusion.minimal_bound(ring, obj, args.max_n)
    _emit(args, f"{report.verdict}; FPdim={report.fpdim:.6f}", report.to_json_dict())
    return 0


def cmd_classify(args) -> int:
    _check_limit(args.max_n, MAX_FUSION_N, "--max-n")
    ring = _ring_from_args(args)
    reports = fusion.classify_all(ring, args.max_n)
    _emit(
        args,
        fusion.summary_table(reports),
        {"ring": ring.name, "reports": [r.to_json_dict() for r in reports]},
    )
    return 0


# ---------------------------------------------------------------------------
# verify: replay the anchored examples as one suite


def _verify_items() -> List[Tuple[str, Callable[[], Tuple[bool, str]]]]:
    from .contpoly import IntPolynomial, kappa, qbinom, qnum
    from .tldiag import NotExists, TLMorphism, Word, enumerate_basis, jw

    items: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = []

    def add(name):
        def wrap(fn):
            items.append((name, fn))
            return fn

        return wrap

    @add("kappa_2..5 match the displayed polynomials")
    def _():
        want = {
            2: {(2, 0): 1, (0, 0): -1},
            3: {(3, 0): 1, (1, 0): -2},
            4: {(4, 0): 1, (2, 0): -3, (0, 0): 1},
            5: {(5, 0): 1, (3, 0): -4, (1, 0): 3},
        }
        ok = all(kappa(n) == IntPolynomial(c) for n, c in want.items())
        return ok, "kappa_2 = x^2 - 1 ... kappa_5 = x^5 - 4x^3 + 3x"

    @add("mod-p collapse of kappa_{p^l - 1}")
    def _():
        for p, l in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]:
            n = p**l - 1
            got = kappa(n).reduce_mod(p)
            if p == 2:
                want = IntPolynomial({(n, 0): 1})
            else:
                base = IntPolynomial({(2, 0): 1, (0, 0): -4})
                power = IntPolynomial({(0, 0): 1})
                for _ in range(n // 2):
                    power = power * base
                want = power.reduce_mod(p)
            if got != want:
                return False, f"failed at p={p}, l={l}"
        return True, "kappa_{p^l-1} = (x^2-4)^((p^l-1)/2) mod p, x^(2^l-1) for p=2"

    @add("roots of kappa_{N-1} at 2cos(j pi/N), N <= 20")
    def _():
        worst = 0.0
        for N in range(2, 21):
            for j in range(1, N):
                val = abs(kappa(N - 1).evaluate_float(2 * math.cos(j * math.pi / N)))
                worst = max(worst, val)
        return worst < 1e-9, f"max |kappa_(N-1)(2cos(j pi/N))| = {worst:.2e}"

    @add("quantum numbers [2], [3], [4] in the generic tower")
    def _():
        T = generic_tower()
        d1, d2 = T.delta1, T.delta2
        ok = (
            qnum(T, 2)[0] == d1
            and qnum(T, 3)[0] == d1 * d2 - 1
            and qnum(T, 4)[0] == d1 * (d1 * d2 - 2)
        )
        return ok, "[2] = d1, [3] = d1 d2 - 1, [4] = d1(d1 d2 - 2)"

    @add("binom(4,2) = (d1 d2 - 2)(d1 d2 - 1) generically")
    def _():
        T = generic_tower()
        want = (T.delta1 * T.delta2 - 2) * (T.delta1 * T.delta2 - 1)
        return qbinom(T, 4, 2) == want, "product of the two cyclotomic factors"

    @add("binom(5,2) = 0 over (F_2, 0, 0)")
    def _():
        F2 = construct_ring("Fp:2")
        T = Triple(F2, F2.zero, F2.zero)
        return qbinom(T, 5, 2).is_zero(), "the binomial vanishes"

    @add("diagram basis of End(alt(3)) has 5 elements")
    def _():
        return len(enumerate_basis(Word.alt(3), Word.alt(3))) == 5, "Catalan(3) = 5"

    @add("JW_1 is the identity diagram")
    def _():
        T = generic_tower()
        return jw(T, 1) == TLMorphism.identity(T, Word.alt(1)), "by convention"

    @add("JW_5 does not exist over (F_2, 0, 0)")
    def _():
        F2 = construct_ring("Fp:2")
        T = Triple(F2, F2.zero, F2.zero)
        return isinstance(jw(T, 5), NotExists), "binom(5,2) = 0 blocks existence"

    @add("JW_{p^l - 1} exists over (F_p, 2, 2)")
    def _():
        for p, l in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
            Fp = construct_ring(f"Fp:{p}")
            T = Triple(Fp, Fp.from_int(2), Fp.from_int(2))
            if isinstance(jw(T, p**l - 1), NotExists):
                return False, f"missing at p={p}, l={l}"
        return True, "all listed cases exist"

    @add("partial trace of JW_2 is ([3]/[2]) JW_1")
    def _():
        T = generic_tower()
        got = tldiag.partial_trace(jw(T, 2))
        want = (qnum(T, 3)[0] / qnum(T, 2)[0]) * TLMorphism.identity(T, Word.alt(1))
        return got == want, "((d1 d2 - 1)/d1) times the identity"

    @add("every triple is rotatable at level 1")
    def _():
        T = generic_tower()
        F2 = construct_ring("Fp:2")
        T2 = Triple(F2, F2.zero, F2.zero)
        ok = (
            tldiag.rotatability(T, 1).status == "rotatable"
            and tldiag.rotatability(T2, 1).status == "rotatable"
        )
        return ok, "level 1 is unconditional"

    @add("second continuant complex is 0 -> v^ -> unit -> 0 via ev")
    def _():
        T = generic_tower()
        b2 = complexes.build_continuant(2, "lower", T)
        ok = (
            b2.complex.term(0).summands == (Word.of("v^"),)
            and b2.complex.term(-1).summands == (Word.empty(),)
            and b2.complex.differential(0).entries[0][0] == TLMorphism.ev(T, "^")
        )
        return ok, "terms and differential match the displayed complex"

    @add("fourth continuant complex has multiplicities (1, 3, 1)")
    def _():
        T = generic_tower()
        b4 = complexes.build_continuant(4, "lower", T)
        counts = [len(b4.complex.term(0)), len(b4.complex.term(-1)), len(b4.complex.term(-2))]
        return counts == [1, 3, 1], f"counts {counts}"

    @add("K-class of the second complex is xy - 1, specializing to kappa_2")
    def _():
        T = generic_tower()
        k = complexes.k0_class(complexes.build_continuant(2, "lower", T).complex)
        ok = k.xy == IntPolynomial({(1, 1): 1, (0, 0): -1}) and k.x == kappa(2)
        return ok, "signed monomial count"

    @add("ising data loads as a valid rank-3 fusion ring")
    def _():
        ring = fusion.builtin_ring("ising")
        ring.validate()
        return ring.rank == 3, "unit, sigma, eps"

    @add("verp:5 has rank 4 with L1*L1 = L0 + L2")
    def _():
        ring = fusion.builtin_ring("verp:5")
        got = ring.multiply(ring.basis_vector("L1"), ring.basis_vector("L1"))
        return ring.rank == 4 and got == (1, 0, 1, 0), "truncated recursion"

    @add("FPdim of the ising generator is sqrt(2)")
    def _():
        val = fusion.fpdim(fusion.builtin_ring("ising"), "sigma")
        return abs(val - math.sqrt(2)) < 1e-9, f"fpdim = {val:.9f}"

    @add("FPdim of L1 in slq:N is 2cos(pi/N) for N = 3..6")
    def _():
        for N in range(3, 7):
            val = fusion.fpdim(fusion.builtin_ring(f"slq:{N}"), "L1")
            if abs(val - 2 * math.cos(math.pi / N)) > 1e-9:
                return False, f"fpdim {val:.12f} at N={N}"
        return True, "1, sqrt2, golden ratio, sqrt3"

    @add("ising generator is strictly 4-bounded")
    def _():
        r = fusion.minimal_bound(fusion.builtin_ring("ising"), "sigma")
        return r.verdict.kind == "strictly_bounded" and r.verdict.n == 4, str(r.verdict)

    @add("ty_z3 generator is strictly 6-bounded")
    def _():
        r = fusion.minimal_bound(fusion.builtin_ring("ty_z3"), "X")
        return r.verdict.kind == "strictly_bounded" and r.verdict.n == 6, str(r.verdict)

    @add("verp:5 generator is strictly 5-bounded")
    def _():
        r = fusion.minimal_bound(fusion.builtin_ring("verp:5"), "L1")
        return r.verdict.kind == "strictly_bounded" and r.verdict.n == 5, str(r.verdict)

    @add("units are strictly 3-bounded")
    def _():
        for name in ("ising", "ty_z3", "verp:5", "slq:7", "pointed:4"):
            ring = fusion.builtin_ring(name)
            r = fusion.minimal_bound(ring, ring.unit)
            if r.verdict.n != 3:
                return False, f"{name} unit gave {r.verdict}"
        return True, "invertibles are exactly the 3-bounded objects"

    @add("ising classifies as {1: 3, sigma: 4, eps: 3}")
    def _():
        got = [r.verdict.n for r in fusion.classify_all(fusion.builtin_ring("ising"))]
        return got == [3, 4, 3], f"{got}"

    @add("FPdim of L1 in verp:p is sin(2pi/p)/sin(pi/p) for p = 3, 5, 7")
    def _():
        for p in (3, 5, 7):
            val = fusion.fpdim(fusion.builtin_ring(f"verp:{p}"), "L1")
            if abs(val - math.sin(2 * math.pi / p) / math.sin(math.pi / p)) > 1e-9:
                return False, f"fpdim {val:.12f} at p={p}"
        return True, "the dimension formula at a = 1 is 2cos(pi/p)"

    return items


def cmd_verify(args) -> int:
    results = []
    failed = 0
    for name, fn in _verify_items():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with evidence
            ok, detail = False, f"exception: {exc}"
        results.append({"name": name, "pass": ok, "detail": detail})
        if not ok:
            failed += 1
    if args.format == "json":
        _print_json({"results": results, "failed": failed})
    else:
        for r in results:
            tag = "PASS" if r["pass"] else "FAIL"
            print(f"[{tag}] {r['name']}: {r['detail']}")
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tlab",
        description="Exact Temperley-Lieb diagram calculus, continuant complexes, "
        "and a fusion-ring boundedness classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_flags(p, default_ring="ratfun:ratfun:Q", d1="t", d2="u"):
        p.add_argument("--ring", default=default_ring, help="ring specification")
        p.add_argument("--d1", default=d1, help="first loop value")
        p.add_argument("--d2", default=d2, help="second loop value")

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("qnum", help="table of quantum numbers")
    ring_flags(p)
    p.add_argument("--upto", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_qnum)

    p = sub.add_parser("jw", help="Jones-Wenzl idempotent or non-existence verdict")
    ring_flags(p)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_jw)

    p = sub.add_parser("rotatable", help="rotatability verdict at a level")
    ring_flags(p)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_rotatable)

    p = sub.add_parser("continuant", help="build and validate a continuant complex")
    ring_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("lower", "upper"), default="lower")
    common(p)
    p.set_defaults(func=cmd_continuant)

    p = sub.add_parser("homology", help="homology of a continuant complex at q")
    p.add_argument("--ring", default="ratfun:Q", help="exact field specification")
    p.add_argument("--q", default="t", help="invertible scalar q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("lower", "upper"), default="lower")
    p.add_argument("--model", choices=("sl2", "2tl"), default="sl2")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("bound", help="boundedness classification of one object")
    p.add_argument("--builtin", help="built-in ring name")
    p.add_argument("--fusion", help="path to a fusion-ring JSON document")
    p.add_argument("--object", help="basis label of the object")
    p.add_argument("--max-n", type=int, default=64, dest="max_n")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("classify", help="classify every basis element")
    p.add_argument("--builtin", help="built-in ring name")
    p.add_argument("--fusion", help="path to a fusion-ring JSON document")
    p.add_argument("--max-n", type=int, default=64, dest="max_n")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="replay the anchored examples as one suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (fusion.FusionRingError, tldiag.DiagramError, complexes.ComplexError,
            sl2model.ModelError, RingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Compute, confirm and store the answer of every job the benchmark can run.

    python3 bench/expected.py           # recompute and compare with expected.json
    python3 bench/expected.py --write   # store the recomputed answers

Each answer is confirmed once, here, by a property computed apart from the
code path that produced it:

* ``jw``: up to n = ``SOLVE_UP_TO``, the idempotent itself (through its
  hash), and above it any term count other than Catalan(n) and every
  non-existence verdict, must agree with the independent linear-solve
  strategy; a generic idempotent with n above ``SOLVE_UP_TO`` must have a
  non-zero coefficient on each of the Catalan(n) basis diagrams.
* ``homology`` (sl2 model): the Euler characteristic of the terms equals
  that of the homology; (2tl model): the Markov trace of JW_n is [n+1] from
  the Chebyshev recursion, and JW_n is negligible exactly when it is 0.
* ``continuant``: degree k holds C(n-k, k) summands, the number of ways to
  pick k disjoint adjacent pairs out of n letters.
* ``qnum``: [k] follows the two-parameter Chebyshev recursion and equals
  the product of [[d]] over the divisors d of k.
* ``rotatable``: "no_jw" exactly when JW_n fails to exist for the triple or
  its swap; "rotatable" only when [n+1] vanishes for both.
* ``bound``/``classify``: a strictly N-bounded object has FPdim 2cos(pi/N),
  an unbounded one FPdim >= 2, and the generator of slq:N or verp:p is
  strictly N- or p-bounded.
* malformed input: the exit code is the one README's contract prescribes
  (2 for usage errors, 1 for domain errors), with a message and no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import answers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PATH = os.path.join(BENCH, "expected.json")
# the largest n whose JW answer is checked against the solve strategy, whose
# dense system has about 2(n-1)C(n) rows and C(n) columns
SOLVE_UP_TO = 5


def _option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _cli(argv) -> dict:
    """Run one more job in this process, for a cross-check."""
    return worker.run([argv])["jobs"][0]


def _chebyshev(ring, d1, d2, upto):
    """[0..upto] by [k+1] = d [k] - [k-1], d alternating d1 (odd k), d2."""
    q = [ring.zero, ring.one]
    for k in range(1, upto):
        q.append((d1 if k % 2 == 1 else d2) * q[k] - q[k - 1])
    return q


def _triple(argv, default_ring="ratfun:ratfun:Q", d1="t", d2="u"):
    from tlab.rings import construct_ring, parse_element

    ring = construct_ring(_option(argv, "--ring", default_ring))
    return ring, parse_element(ring, _option(argv, "--d1", d1)), parse_element(ring, _option(argv, "--d2", d2))


def confirm(argv, result, answer) -> str:
    """Empty when an independent property confirms the answer, else why not."""
    from tlab.rings import construct_ring, parse_element

    command = argv[0]
    if answer["exit"] != 0:
        want = workloads.contract_exit_code(argv)
        if answer["exit"] != want:
            return f"exit {answer['exit']}, contract says {want}"
        return "" if result["stderr"].strip() else "no error message"
    doc = json.loads(result["stdout"])
    if command == "jw":
        n = int(_option(argv, "--n", None))
        catalan = math.comb(2 * n, n) // (n + 1)
        if answer["exists"] and answer["terms"] > catalan:
            return f"{answer['terms']} terms exceed Catalan({n}) = {catalan}"
        if answer["exists"] and answer["terms"] == catalan and n > SOLVE_UP_TO:
            return ""
        solved = answers.digest(argv, 0, _cli(list(argv) + ["--strategy", "solve"])["stdout"])
        return "" if solved == answer else f"solve strategy gives {solved}"
    if command == "continuant":
        n = int(_option(argv, "--n", None))
        for degree, count in answer["summands"].items():
            k = abs(int(degree))
            if count != math.comb(n - k, k):
                return f"degree {degree}: {count} summands, C({n - k},{k}) = {math.comb(n - k, k)}"
        return "" if answer["valid"] else "validation failed"
    if command == "homology" and "degrees" in answer:
        if answer["euler"][0] != answer["euler"][1]:
            return f"Euler characteristics differ: {answer['euler']}"
        return "" if all(h >= 0 for _, _, h in answer["degrees"].values()) else "negative homology"
    if command == "homology":
        n = int(_option(argv, "--n", None))
        ring = construct_ring(_option(argv, "--ring", "ratfun:Q"))
        q = parse_element(ring, _option(argv, "--q", "t"))
        d = q + q.inverse()
        trace = _chebyshev(ring, d, d, n + 1)[n + 1]
        if not answer["jw_exists"]:
            return "JW_n reported missing at a generic trace"
        if parse_element(ring, doc["markov_trace"]) != trace:
            return f"Markov trace {doc['markov_trace']} != [n+1] = {trace}"
        return "" if answer["negligible"] == trace.is_zero() else "negligibility disagrees with [n+1]"
    if command == "qnum":
        ring, d1, d2 = _triple(argv)
        upto = int(_option(argv, "--upto", 6))
        plain = _chebyshev(ring, d1, d2, upto)
        rows = [(parse_element(ring, r["qnum"]), parse_element(ring, r["qqnum"])) for r in doc["rows"]]
        for k in range(1, upto + 1):
            product = ring.one
            for e in range(1, k + 1):
                if k % e == 0:
                    product = product * rows[e][1]
            if rows[k][0] != plain[k] or product != plain[k]:
                return f"[{k}] disagrees with the recursion or the divisor product"
        return ""
    if command == "rotatable":
        n = int(_option(argv, "--n", None))
        ring, d1, d2 = _triple(argv)
        if answer["status"] == "no_jw" or n > 1:
            exists = []
            for a, b in ((_option(argv, "--d1", "t"), _option(argv, "--d2", "u")),
                         (_option(argv, "--d2", "u"), _option(argv, "--d1", "t"))):
                jw = ["jw", "--ring", ring.spec(), "--d1", a, "--d2", b, "--n", str(n), "--format", "json"]
                exists.append(json.loads(_cli(jw)["stdout"])["exists"])
            if (answer["status"] == "no_jw") != (not all(exists)):
                return f"status {answer['status']} but JW_n exists: {exists}"
        if answer["status"] == "rotatable" and n > 1:
            if not (_chebyshev(ring, d1, d2, n + 1)[n + 1].is_zero()
                    and _chebyshev(ring, d2, d1, n + 1)[n + 1].is_zero()):
                return "rotatable but [n+1] is non-zero"
        return ""
    if command in ("bound", "classify"):
        reports = doc["reports"] if command == "classify" else [doc]
        for r in reports:
            kind, n, dim = r["verdict"]["kind"], r["verdict"]["n"], r["fpdim"]
            if kind == "strictly_bounded" and abs(dim - 2 * math.cos(math.pi / n)) > 1e-6:
                return f"{r['object']}: FPdim {dim} != 2cos(pi/{n})"
            if kind == "unbounded" and dim < 2 - 1e-6:
                return f"{r['object']}: unbounded with FPdim {dim} < 2"
            if kind == "inconclusive":
                return f"{r['object']}: inconclusive"
        name = _option(argv, "--builtin", "")
        if name.split(":")[0] in ("slq", "verp"):
            for r in reports:
                if r["object"] == "L1" and r["verdict"]["n"] != int(name.split(":")[1]):
                    return f"{name} generator is {r['verdict']['n']}-bounded"
        return ""
    return f"no confirmation for {command}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the recomputed answers")
    args = parser.parse_args(argv)
    jobs = list(dict.fromkeys(workloads.all_jobs()))
    results = worker.run(jobs)["jobs"]
    computed, problems = {}, []
    for argv_, result in zip(jobs, results):
        key = " ".join(argv_)
        if result["traceback"]:
            problems.append(f"{key}: {result['traceback'].strip().splitlines()[-1]}")
            continue
        computed[key] = answers.digest(argv_, result["code"], result["stdout"])
        why = confirm(argv_, result, computed[key])
        if why:
            problems.append(f"{key}: {why}")
    if not args.write:
        with open(PATH, encoding="utf-8") as handle:
            stored = json.load(handle)
        problems += [f"{k}: stored {stored.get(k)}, computed {v}" for k, v in computed.items() if stored.get(k) != v]
    for p in problems:
        print(p)
    if problems:
        return 1
    if args.write:
        with open(PATH, "w", encoding="utf-8") as handle:
            json.dump(computed, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"{len(computed)} answers confirmed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

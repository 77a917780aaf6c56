"""The benchmark's workloads: which `tlab` jobs run, and in which process.

A job is one `tlab` command line.  Every job asks for `--format json`, so
its answer can be checked field by field against ``expected.json``.

The cold workloads run each job in a fresh process, like one `tlab`
invocation, so every cache starts empty.  ``session-mix`` runs its jobs in
one process, so caches stay warm, as for a user of the Python API.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Tuple

Job = Tuple[str, ...]


def job(text: str) -> Job:
    return tuple(text.split()) + ("--format", "json")


COLD: Dict[str, List[Job]] = {
    # tldiag composition on cheap coefficients; the compose cache sets peak
    # memory.  The first job is a Lucas case: a recursion over Q at a lifted
    # integer, reduced mod 2.
    "modular-jw": [
        job("jw --ring Fp:2 --d1 0 --d2 0 --n 7"),
        job("jw --ring Fp:101 --d1 3 --d2 5 --n 7"),
    ],
    # rings.py (Q(t), Q(t)(u)) dominates; little diagram work.  In the last
    # job [3] = 0 in F_7 blocks the recursion, and `auto` specializes the
    # universal JW_5 over Q(t)(u): the only job on the specialization path.
    "generic-ratfun": [
        job("jw --ring ratfun:Q --d1 t --d2 t --n 6"),
        job("jw --n 5"),
        job("homology --ring ratfun:Q --q t --n 5 --model 2tl"),
        job("jw --ring Fp:7 --d1 3 --d2 5 --n 5"),
    ],
    # complexes, sl2model and linalg, over a cyclotomic field
    "continuant-homology": [
        job("continuant --n 12"),
        job("homology --n 8 --ring cyclo:10 --q q"),
    ],
}

SESSION = "session-mix"
WORKLOADS = tuple(COLD) + (SESSION,)

# (command, copies of each variant, the variants).  Every seed runs the same
# 300 jobs; the seed sets their order (see pass_order), and with it which
# copy of a job meets cold caches and which finds them warm.  Keeping the
# multiset fixed keeps the session's total work, and so its figures,
# comparable across seeds.
SESSION_MIX: Tuple[Tuple[str, int, Tuple[Job, ...]], ...] = (
    ("qnum", 3, tuple(job(f"qnum --ring {r} --d1 {a} --d2 {b} --upto {u}") for r, a, b, u in (
        ("Q", 3, 3, 6), ("Q", 2, 3, 8), ("Q", -1, 4, 6), ("Q", 5, 2, 7),
        ("Fp:5", 2, 2, 8), ("Fp:7", 3, 5, 8), ("Fp:3", 1, 2, 6), ("Fp:13", 4, 9, 8),
        ("Fp:2", 0, 1, 6), ("Fp:11", 3, 3, 8),
    ))),
    ("rotatable", 2, tuple(job(f"rotatable --ring {r} --d1 {a} --d2 {b} --n {n}") for r, a, b, n in (
        ("cyclo:10", "q+q^-1", "q+q^-1", 4), ("cyclo:8", "q+q^-1", "q+q^-1", 3),
        ("cyclo:12", "q+q^-1", "q+q^-1", 5), ("Fp:3", 2, 2, 2), ("Fp:2", 0, 0, 1),
        ("Fp:2", 0, 0, 3), ("Fp:5", 2, 2, 4), ("Q", 2, 2, 3),
    ))),
    ("jw", 4, tuple(job(f"jw --ring {r} --d1 {a} --d2 {b} --n {n}") for r, a, b, n in (
        ("Q", 3, 3, 3), ("Q", 3, 3, 5), ("Q", 2, 3, 4), ("Q", 5, 4, 5), ("Q", -3, 7, 2),
        ("Fp:2", 0, 0, 3), ("Fp:2", 0, 0, 5), ("Fp:3", 2, 2, 2), ("Fp:3", 2, 2, 4),
        ("Fp:3", 2, 2, 5), ("Fp:5", 2, 2, 4), ("Fp:7", 2, 3, 5), ("Fp:101", 3, 5, 5),
        ("cyclo:10", "q+q^-1", "q+q^-1", 3), ("cyclo:10", "q+q^-1", "q+q^-1", 4),
        ("cyclo:10", "q+q^-1", "q+q^-1", 5), ("cyclo:12", "q+q^-1", "q+q^-1", 5),
        ("ratfun:Q", "t", "t", 3), ("ratfun:Q", "t", "t", 4), ("ratfun:Q", "t", "t", 5),
        ("ratfun:Q", "t", "t^2", 4),
    ))),
    ("continuant", 4, tuple(job(f"continuant --n {n} --variant {v}{r}") for n, v, r in (
        (2, "lower", ""), (3, "upper", ""), (4, "lower", ""), (5, "upper", ""),
        (6, "lower", ""), (7, "upper", ""), (8, "lower", ""), (8, "upper", ""),
        (6, "upper", " --ring Q --d1 2 --d2 3"), (7, "lower", " --ring Fp:5 --d1 2 --d2 2"),
    ))),
    ("homology", 4, tuple(job(f"homology --n {n}{rest}") for n, rest in (
        (3, ""), (4, ""), (5, ""), (6, ""), (4, " --variant upper"),
        (3, " --ring cyclo:10 --q q"), (5, " --ring cyclo:10 --q q"), (4, " --ring cyclo:8 --q q"),
        (5, " --ring Q --q 2"), (4, " --ring Fp:7 --q 3"),
        (2, " --model 2tl"), (3, " --model 2tl"), (4, " --model 2tl"),
        (4, " --ring cyclo:10 --q q --model 2tl"),
    ))),
    ("bound", 2, tuple(job(f"bound --builtin {b} --object {o}") for b, o in (
        ("ising", "sigma"), ("ising", "eps"), ("ty_z3", "X"), ("ty_z3", "g"),
        ("verp:5", "L1"), ("verp:7", "L2"), ("pointed:4", "g1"),
    ) + tuple((f"slq:{N}", "L1") for N in range(3, 13)))),
    ("classify", 3, tuple(job(f"classify --builtin {b}") for b in (
        "ising", "ty_z3", "verp:5", "verp:7", "slq:6", "slq:9", "pointed:3", "pointed:6",
    ))),
    # malformed input: the exit-code contract says 2 for usage, 1 for domain errors
    ("error", 1, tuple(job(text) for text in (
        "jw --ring Fp:4 --n 3", "jw --ring Z --n 3", "qnum --ring Q --d1 3+ --d2 2",
        "jw --n 3 --bogus 1", "bound --builtin ising", "homology --ring cyclo:0 --n 3",
        "continuant --n 3 --variant middle", "qnum --ring Fp:7 --d1 1/0 --d2 1",
        "bound --builtin ising --object tau", "classify --builtin verp:6",
        "homology --ring Q --q 0 --n 3", "jw --ring Q --d1 2 --d2 2 --n 0",
        "rotatable --ring Q --d1 2 --d2 2 --n 0", "classify --builtin nope", "classify",
        "homology --n 3 --ring Fp:5 --q 2 --model 3tl",
    ))),
)

# the exit code README's contract prescribes for each malformed job
USAGE_ERRORS = {"Fp:4", "Z", "3+", "--bogus", "cyclo:0", "middle", "1/0", "3tl"}


def contract_exit_code(argv: Job) -> int:
    """2 for a malformed ring spec, element, flag or missing flag; 1 for a
    well-formed request the domain rejects."""
    if (USAGE_ERRORS.intersection(argv) or ("bound" in argv and "--object" not in argv)
            or ("classify" in argv and "--builtin" not in argv)):
        return 2
    return 1


def jobs_of(workload: str) -> List[Job]:
    if workload == SESSION:
        return [j for _, copies, variants in SESSION_MIX for j in variants * copies]
    return list(COLD[workload])


def pass_order(seed: int, index: int, count: int) -> List[int]:
    """The order in which pass `index` of a run runs the workload's jobs.

    Each pass of a run takes a new order drawn from the seed, and a job's
    time is its median over passes, so a run's figures average over several
    orders rather than resting on which job one order lets meet cold caches
    or a garbage collection."""
    return random.Random(seed * 1000 + index).sample(range(count), count)


def command_of(argv: Job) -> str:
    for command, _, variants in SESSION_MIX:
        if argv in variants:
            return command
    return argv[0]


def mix(jobs: List[Job]) -> Dict[str, int]:
    return dict(sorted(Counter(command_of(j) for j in jobs).items()))


def all_jobs() -> List[Job]:
    """Every distinct job any workload can run, whatever the seed."""
    out = [j for jobs in COLD.values() for j in jobs]
    out += [j for _, _, variants in SESSION_MIX for j in variants]
    return out

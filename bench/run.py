"""The tlab benchmark: run one workload, check every answer, print metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details: the job mix per command, pass count, per-job times and any
failed job with its reason.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time (cold
``import tlab`` plus ``cli.build_parser()`` in a fresh interpreter, median
of ``SETUP_RUNS``), wall time summed over jobs, per-job latency percentiles
and peak resident set.  Every job is timed from the call into
``tlab.cli.main`` to its return, in a worker process; passes over the
workload's jobs, each in an order drawn from the seed, repeat until
``--seconds`` have gone by, and each figure is the median of its per-pass
values.  All times are normalised to a reference machine
speed with calibration samples taken while they run (see ``worker.py``); the
detail line keeps the raw seconds of each pass too.  With ``--trace 1`` one
untraced and one traced pass run, and the metrics are the per-layer ones
read from the spans and counters that ``spans.py`` installs around each
layer; their self times are raw seconds.

A job fails when it prints a traceback, exits with another code than its
stored one, gives another answer than ``expected.json`` holds, or overruns
its time limit.  Answers are checked after all timing is done.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import answers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 21
SETUP_CODE = (
    "import sys, time; start = time.perf_counter(); import tlab; from tlab import cli; "
    "cli.build_parser(); took = time.perf_counter() - start; "
    f"sys.path.insert(0, {BENCH!r}); import worker; print(took, worker.calibrate())"
)
COLD_JOB_LIMIT_S = 45.0
SESSION_JOB_LIMIT_S = 10.0
RUN_LIMIT_S = 170.0  # every process this run starts is stopped before this
RING_KINDS = ("Q", "Fp", "cyclo", "ratfun", "ratfun2")


class Budget:
    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def child_env() -> dict:
    env = dict(os.environ)
    # set-up is timed with the bytecode cache a user's installed package has;
    # the untimed first run writes it under src/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(budget: Budget) -> float:
    """Median seconds of cold import plus parser construction, each in a
    fresh interpreter; one untimed run first writes the bytecode cache."""
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=budget.left(), check=True,
        )
        if i:
            took, calibration = map(float, proc.stdout.split())
            times.append(worker.normalised(took, calibration))
    return statistics.median(times)


def run_worker(jobs, trace: bool, timeout: float, budget: Budget) -> dict:
    """One worker process over jobs; a crash or timeout fails all of them."""
    spec = json.dumps({"jobs": [list(j) for j in jobs], "trace": trace})
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py")], input=spec,
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=min(timeout, budget.left()),
        )
        report = json.loads(proc.stdout)
    except subprocess.TimeoutExpired:
        why = "worker overran its time limit"
    except json.JSONDecodeError:
        why = f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    else:
        return report
    failed = {
        "code": None, "seconds": (time.monotonic() - start) / len(jobs),
        "calibration_s": worker.REFERENCE_CALIBRATION_S, "stdout": "", "stderr": "", "traceback": why,
    }
    return {"jobs": [dict(failed) for _ in jobs], "peak_rss_mb": None}


def run_pass(name: str, jobs, order, trace: bool, budget: Budget) -> dict:
    """All jobs of the workload once, in the given order: their results (in
    the order of jobs), the peak RSS over the pass's workers and, when
    traced, each worker's trace report."""
    ordered = [jobs[i] for i in order]
    if name == workloads.SESSION:
        reports = [run_worker(ordered, trace, budget.left(), budget)]
    else:
        reports = [run_worker([j], trace, COLD_JOB_LIMIT_S + 15, budget) for j in ordered]
    results = [None] * len(jobs)
    for i, result in zip(order, (r for report in reports for r in report["jobs"])):
        results[i] = result
    rss = [r["peak_rss_mb"] for r in reports if r["peak_rss_mb"] is not None]
    return {
        "results": results,
        "peak_rss_mb": max(rss) if rss else None,
        "traces": [r["trace"] for r in reports if "trace" in r],
    }


def job_seconds(result: dict) -> float:
    return worker.normalised(result["seconds"], result["calibration_s"])


def job_medians(passes) -> list:
    return [statistics.median(job_seconds(p["results"][i]) for p in passes) for i in range(len(passes[0]["results"]))]


def end_to_end(passes, setup_s: float) -> dict:
    """Each figure is taken per pass, then its median over the passes."""
    times = [[job_seconds(r) for r in p["results"]] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes if p["peak_rss_mb"] is not None]
    cuts = [statistics.quantiles(t, n=100, method="inclusive") for t in times]  # percentiles 1-99
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(t) for t in times), "s"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
        "job_p50_ms": (1000 * statistics.median(c[49] for c in cuts), "ms"),
        "job_p95_ms": (1000 * statistics.median(c[94] for c in cuts), "ms"),
    }


def _hit_rate(caches: dict, names) -> float:
    found = [caches[n] for n in names if n in caches]
    hits = sum(f[0] for f in found)
    total = hits + sum(f[1] for f in found)
    return hits / total if total else 0.0


def per_layer(traced: dict, untraced: dict):
    """The per-layer metrics, summed over the traced pass's worker processes,
    and the merged cache states [hits, misses, largest size]."""
    self_s, calls, counters, caches = {}, {}, {}, {}
    jw_entries = 0
    density = [0, 0]
    for report in traced["traces"]:
        for store, part in ((self_s, "self_s"), (calls, "calls"), (counters, "counters")):
            for key, value in report[part].items():
                store[key] = store.get(key, 0) + value
        for key, (hits, misses, size) in report["caches"].items():
            old = caches.get(key, [0, 0, 0])
            caches[key] = [old[0] + hits, old[1] + misses, max(old[2], size)]
        jw_entries = max(jw_entries, report["jw_cache_entries"])
        density = [density[0] + report["density"][0], density[1] + report["density"][1]]
    s = lambda k: (self_s.get(k, 0.0), "s")  # noqa: E731
    c = lambda table, k: (table.get(k, 0), "count")  # noqa: E731
    out = {}
    for kind in RING_KINDS:
        out[f"rings.{kind}.ops"] = c(calls, f"rings.{kind}")
        out[f"rings.{kind}.self_s"] = s(f"rings.{kind}")
    out["contpoly.calls"] = c(calls, "contpoly")
    out["contpoly.self_s"] = s("contpoly")
    out["contpoly.cache_hit_rate"] = (
        _hit_rate(caches, [f"contpoly.{f}" for f in ("qnum", "qbinom", "kappa", "mu", "nu")]), "ratio")
    out["tldiag.compose.calls"] = c(calls, "tldiag.compose")
    out["tldiag.compose.pairs"] = c(counters, "tldiag.compose.pairs")
    out["tldiag.compose.self_s"] = s("tldiag.compose")
    out["tldiag.tensor.self_s"] = s("tldiag.tensor")
    out["tldiag.compose_cache.entries"] = (caches.get("tldiag._compose_matchings", [0, 0, 0])[2], "count")
    out["tldiag.compose_cache.hit_rate"] = (_hit_rate(caches, ["tldiag._compose_matchings"]), "ratio")
    out["tldiag.trace.self_s"] = s("tldiag.trace")
    out["tldiag.format.self_s"] = s("tldiag.format")
    out["tldiag.jw.self_s"] = s("tldiag.jw")
    for strategy in ("recursion", "lift", "specialize", "solve", "fallbacks"):
        out[f"tldiag.jw.{strategy}"] = c(counters, f"tldiag.jw.{strategy}")
    out["tldiag.basis_cache.hit_rate"] = (_hit_rate(caches, ["tldiag._basis_letters"]), "ratio")
    out["tldiag.jw_cache.entries"] = (jw_entries, "count")
    out["tldiag.rotatability.self_s"] = s("tldiag.rotatability")
    out["complexes.build.self_s"] = s("complexes.build")
    out["complexes.cone.calls"] = c(calls, "complexes.cone")
    out["complexes.formal_mul.self_s"] = s("complexes.formal_mul")
    out["complexes.validate.self_s"] = s("complexes.validate")
    out["sl2model.realize.self_s"] = s("sl2model.realize")
    out["sl2model.realize.density"] = (density[0] / density[1] if density[1] else 0.0, "ratio")
    out["sl2model.entries_cache.hit_rate"] = (_hit_rate(caches, ["sl2model._matching_entries"]), "ratio")
    out["sl2model.homology.self_s"] = s("sl2model.homology")
    out["linalg.matmul.calls"] = c(calls, "linalg.matmul")
    out["linalg.matmul.products"] = c(counters, "linalg.matmul.products")
    out["linalg.matmul.self_s"] = s("linalg.matmul")
    out["linalg.rank.cells"] = c(counters, "linalg.rank.cells")
    out["linalg.rank.self_s"] = s("linalg.rank")
    out["linalg.solve.calls"] = c(calls, "linalg.solve")
    out["fusion.calls"] = (sum(v for k, v in calls.items() if k.startswith("fusion.")), "count")
    out["fusion.fpdim.self_s"] = s("fusion.fpdim")
    out["fusion.classify.self_s"] = s("fusion.classify")
    out["cli.self_s"] = s("cli")
    traced_wall = sum(job_seconds(r) for r in traced["results"])
    untraced_wall = sum(job_seconds(r) for r in untraced["results"])
    out["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return out, caches


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tlab", "__init__.py")):
        print(f"error: no tlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    budget = Budget()

    jobs = workloads.jobs_of(args.workload)
    limit = SESSION_JOB_LIMIT_S if args.workload == workloads.SESSION else COLD_JOB_LIMIT_S

    def one_pass(trace: bool) -> dict:
        return run_pass(args.workload, jobs, workloads.pass_order(args.seed, len(passes), len(jobs)), trace, budget)

    passes = []
    if args.trace:
        passes.append(one_pass(False))
        passes.append(one_pass(True))
        metrics, caches = per_layer(passes[1], passes[0])
    else:
        setup_s = measure_setup(budget)
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(one_pass(False))
        metrics, caches = end_to_end(passes, setup_s), None

    problems = []
    for p in passes:
        for argv, result in zip(jobs, p["results"]):
            why = answers.job_problem(argv, result, expected.get(" ".join(argv)), limit)
            if why is not None:
                problems.append({"job": " ".join(argv), "problem": why})
    attempted = len(jobs) * len(passes)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "mix": workloads.mix(jobs), "passes": len(passes),
        "pass_wall_s": [sum(r["seconds"] for r in p["results"]) for p in passes],
        "pass_normalised_s": [sum(job_seconds(r) for r in p["results"]) for p in passes],
        "calibration_s": statistics.median(r["calibration_s"] for p in passes for r in p["results"]),
        "job_seconds": {" ".join(j): t for j, t in zip(jobs, job_medians(passes))}
        if args.workload != workloads.SESSION else None,
        "caches": caches, "problems": problems[:20],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

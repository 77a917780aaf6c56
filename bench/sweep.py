"""Run the benchmark over several seeds and keep every run's output.

    python3 bench/sweep.py OUT [--seeds 1-10] [--trace 0]

Runs every workload of ``BENCHMARK.json`` for its ``run_seconds``, so that
every result set has the same run length, and writes
``OUT/<workload>.<seed>.t<trace>.txt`` with each run's standard output,
which ``compare.py`` reads.  Seeds 1 to 10 are the gate seeds;
``CONFIRM_SEED`` is used by nothing else, so a gain found while working on
the gate seeds can be confirmed on inputs it was not tuned on
(``--seeds confirm``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CONFIRM_SEED = 20231206


def seed_list(text: str):
    if text == "confirm":
        return [CONFIRM_SEED]
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for workload in (w["name"] for w in config["workloads"]):
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                config["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=240,
            )
            path = os.path.join(args.out, f"{workload}.{seed}.t{args.trace}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr.strip()[-200:]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[:160]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

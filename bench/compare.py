"""Summarise one result set, or compare two, metric by metric.

    python3 bench/compare.py BASE [NEW]

A result set is a directory of captured benchmark outputs, as
``sweep.py`` writes them.  For every workload (one row each) and every
end-to-end metric in ``BENCHMARK.json`` it prints the median and the first
and third quartiles over the runs, and the spread (quartile distance over
median).  Given NEW as well, it prints NEW's figures beside BASE's and flags
a metric whose NEW median is worse than BASE's by more than the metric's
bound, and a spread wider than the bound, which leaves the comparison
unresolved.  A workload and metric with no values in a set is flagged too.
Failed jobs are counted per set; an output without a readable result line
(a run that crashed) counts as one failed job.  Exits 1 when anything is
flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load(directory: str) -> dict:
    """{workload: {"failed": n, "attempted": n, metric: [values]}} from untraced
    runs; outputs that hold no result are counted under workload None."""
    sets: dict = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            metrics = result["metrics"]
        except (IndexError, ValueError, KeyError, TypeError):
            row = sets.setdefault(None, {"failed": 0, "attempted": 0})
            row["failed"] += 1
            row["attempted"] += 1
            print(f"{os.path.join(directory, name)}: no result line, counted as one failed job")
            continue
        if detail.get("trace"):
            continue
        row = sets.setdefault(detail["workload"], {"failed": 0, "attempted": 0})
        row["failed"] += result["failed"]
        row["attempted"] += result["attempted"]
        for metric, entry in metrics.items():
            row.setdefault(metric, []).append(entry["value"])
    return sets


def stats(values):
    """(median, q1, q3, spread)"""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    sets = [load(d) for d in argv]
    flagged = 0
    for metric in config["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%})")
        header = f"  {'workload':<22}" + "".join(
            f"{label + ' median':>14}{'q1':>11}{'q3':>11}{'spread':>8}" for label in ("base", "new")[: len(sets)])
        print(header)
        for workload in [w["name"] for w in config["workloads"]]:
            cells, notes, medians = [], [], []
            for s in sets:
                values = s.get(workload, {}).get(name)
                if not values:
                    cells.append(f"{'-':>14}{'':>11}{'':>11}{'':>8}")
                    medians.append(None)
                    notes.append("MISSING")
                    continue
                med, q1, q3, spread = stats(values)
                medians.append(med)
                cells.append(f"{med:>14.5g}{q1:>11.5g}{q3:>11.5g}{spread:>7.1%} ")
                if spread > bound:
                    notes.append("SPREAD>BOUND")
            if len(sets) == 2 and None not in medians:
                change = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
                worse = change > bound if lower else -change > bound
                notes.append(f"{change:+.1%}" + (" WORSE" if worse else ""))
                flagged += worse
            flagged += sum(n in ("SPREAD>BOUND", "MISSING") for n in notes)
            print(f"  {workload:<22}" + "".join(cells) + "  " + " ".join(notes))
    print()
    for label, s in zip(("base", "new"), sets):
        failed = sum(row["failed"] for row in s.values())
        attempted = sum(row["attempted"] for row in s.values())
        print(f"{label}: {failed} of {attempted} jobs failed")
        flagged += failed > 0
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run `tlab` jobs in this process through `tlab.cli.main` and report them.

Reads ``{"jobs": [[arg, ...], ...], "trace": bool}`` as JSON on stdin and
writes one JSON document to stdout: per job its exit code, its seconds from
the call into ``cli.main`` to its return, the machine's calibration time
while it ran, its captured output and any traceback; then the process's
peak resident set, and with ``trace`` the recorded spans, counters and
cache states.

The machine this runs on changes speed by up to half within seconds,
slowing every process alike.  So while jobs run, a timer signal every
``SAMPLE_EVERY_S`` times a fixed calibration loop in this process.  The
handler's own time is taken out of the job it interrupted, and each job
carries the median calibration sample from its run (widened by
``WINDOW_S`` on both sides, so short jobs find samples too);
:func:`normalised` turns its seconds into seconds at the reference speed.
Calibration samples run with the garbage collector off, so the size of the
program's heap does not reach them, and run their work once untimed before
timing it, so neither does the state of the CPU caches the job left.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE_EVERY_S = 0.05
WINDOW_S = 1.0
WARM_UP_SAMPLES = 20
# The calibration time that normalised seconds refer to: they are the seconds
# of a machine on which one calibration sample takes this long.
REFERENCE_CALIBRATION_S = 0.0004
# Jobs slow down less than the calibration loop when the machine does: over
# 140 passes of all four workloads (40 runs), the log of a pass's seconds
# rose with the log of its calibration time at slopes 0.69 to 0.89; this
# power kept every workload's run-to-run spread at 6% or less, against up
# to 11% with a power of 1.  That fit timed the loop cold; with the warm
# timing of calibration_sample, 0.8 still gave the least spread of 0.6, 0.8
# and 1 over 529 repetitions of one homology job.
SLOWDOWN_EXPONENT = 0.8


def _calibration_work() -> None:
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i % 17 - 8, i + 1)
        table[(i, acc.denominator % 97)] = acc
        if i % 40 == 0:
            acc = Fraction(acc.numerator % 1000, 7)


def calibration_sample() -> float:
    """Seconds this machine takes, right now, for a fixed piece of pure-Python
    work: rational arithmetic and dict inserts, like tlab's own inner loops.

    The work runs once untimed first, so the timed run finds its code and
    data in the CPU caches whatever the interrupted job left there."""
    collecting = gc.isenabled()
    gc.disable()  # a collection would scan the job's heap, not time the machine
    _calibration_work()
    start = time.perf_counter()
    _calibration_work()
    took = time.perf_counter() - start
    if collecting:
        gc.enable()
    return took


def calibrate() -> float:
    return statistics.median(calibration_sample() for _ in range(9))


def normalised(seconds: float, calibration_s: float) -> float:
    """Seconds scaled to the reference machine speed."""
    return seconds * (REFERENCE_CALIBRATION_S / calibration_s) ** SLOWDOWN_EXPONENT


class Calibrator:
    """Samples the machine's speed from a timer signal while jobs run."""

    def __init__(self):
        self.times, self.samples = [], []
        self.spent = 0.0  # seconds spent in the handler, to subtract from jobs

    def _tick(self, signum, frame):
        start = time.perf_counter()
        took = calibration_sample()
        self.times.append(start)
        self.samples.append(took)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        for _ in range(WARM_UP_SAMPLES):
            calibration_sample()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def around(self, start: float, end: float) -> float:
        """Median sample within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(lo, len(self.samples) - 1)
            hi = lo + 1
        return statistics.median(self.samples[lo:hi])


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory, in MiB.

    Read from VmHWM: Linux starts a child's ``ru_maxrss`` at its parent's
    resident set when it forks, so that would report the benchmark's
    parent process whenever it is larger than the worker."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(jobs, trace: bool = False) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tlab import cli

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.install()
    results, intervals = [], []
    with Calibrator() as calibrator:
        for argv in jobs:
            out, err = io.StringIO(), io.StringIO()
            failure = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                spent = calibrator.spent
                start = time.perf_counter()
                try:
                    code = cli.main(list(argv))
                except Exception:  # a traceback is a failed job, reported with evidence
                    code, failure = None, traceback.format_exc()
                end = time.perf_counter()
            intervals.append((start, end))
            results.append({
                "code": code, "seconds": end - start - (calibrator.spent - spent),
                "stdout": out.getvalue(), "stderr": err.getvalue(), "traceback": failure,
            })
    for result, (start, end) in zip(results, intervals):
        result["calibration_s"] = calibrator.around(start, end)
    report = {
        "jobs": results,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    return report


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    json.dump(run(spec["jobs"], spec.get("trace", False)), sys.stdout)

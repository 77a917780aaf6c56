"""Every job the benchmark can run gives the answer stored in
``bench/expected.json``, run in this process through ``tlab.cli.main`` and
reduced by the benchmark's own ``answers.digest``.  The bench modules are
read from their files, not imported as a package."""

import contextlib
import io
import json
import pathlib
import types

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    # executed from source, so that no bytecode is written beside it
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_benchmark_job_gives_its_stored_answer():
    from tlab import cli

    workloads, answers = _bench_module("workloads"), _bench_module("answers")
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    jobs = list(dict.fromkeys(workloads.all_jobs()))
    assert {" ".join(argv) for argv in jobs} == set(expected)
    wrong = []
    for argv in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        got = answers.digest(argv, code, out.getvalue())
        if got != expected[" ".join(argv)]:
            wrong.append((" ".join(argv), got))
    assert not wrong, wrong

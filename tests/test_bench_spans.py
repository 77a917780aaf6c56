"""Every function and class member the benchmark's tracer wraps exists in
tlab, but for those deleted on purpose: ``bench/spans.py`` skips a name it
cannot find, so a rename would otherwise read as a per-layer metric of 0.
The same holds for the JW strategy helpers it counts."""

import importlib
import inspect
import pathlib
import types

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# names the tracer still lists that tlab no longer has: the linear solve,
# replaced by the integer table divided at the point, and the two
# strategies that an earlier integer table replaced; their metrics read 0
DELETED = {
    ("linalg", "ExactMatrix.solve"),
    # the matrix product and the division-based binomial, moved to the tests:
    # no runtime path called either, and the contpoly span keeps its others
    ("linalg", "ExactMatrix.__mul__"),
    ("contpoly", "qbinom_literal"),
    # the display wrapper of qnum: `tlab qnum` reads qnum row by row
    ("contpoly", "QuantumTable.build"),
    # the Markov trace and negligibility, the iterated cone and the
    # ExactMatrix realization, moved to the tests: no command reached them
    ("tldiag", "markov_trace"),
    ("tldiag", "is_negligible"),
    ("complexes", "cone"),
    ("sl2model", "realize_morphism"),
    ("sl2model", "_realize_formal"),
    ("linalg", "ExactMatrix.rank"),
    ("tldiag", "_jw_by_solve"),
    ("tldiag", "_jw_by_integer_lift"),
    ("tldiag", "_jw_by_specialization"),
}


def _spans_module():
    # executed from source, so that no bytecode is written beside it
    module = types.ModuleType("spans")
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec"), module.__dict__)
    return module


def _resolve(module_name: str, path: str):
    target = importlib.import_module(f"tlab.{module_name}")
    for part in path.split("."):
        target = inspect.getattr_static(target, part, None)
    return target


def test_every_span_resolves_in_tlab():
    spans = _spans_module()
    assert spans.SPANS
    missing = [f"{m}.{path} ({span})" for m, path, span in spans.SPANS
               if (m, path) not in DELETED and _resolve(m, path) is None]
    assert not missing, missing


def test_every_traced_ring_operation_resolves():
    from tlab.rings import RingValue

    spans = _spans_module()
    missing = [op for op in spans.RING_OPS if inspect.getattr_static(RingValue, op, None) is None]
    assert not missing, missing


def test_every_live_jw_strategy_helper_resolves():
    """The helpers behind tldiag.jw.recursion and .check are counted and
    exist, so refactoring one cannot silently zero its counter."""
    spans = _spans_module()
    counted = {helper for helper, _, _ in spans.STRATEGIES}
    for helper in ("_jw_by_recursion", "_check_jw"):
        assert helper in counted, helper
    missing = [h for h in counted if ("tldiag", h) not in DELETED and _resolve("tldiag", h) is None]
    assert not missing, missing


def test_the_deleted_names_are_gone():
    """Each name deleted on purpose is absent, so the list cannot go stale."""
    spans = _spans_module()
    listed = {(m, path) for m, path, _ in spans.SPANS} | {("tldiag", h) for h, _, _ in spans.STRATEGIES}
    assert DELETED <= listed
    present = [f"{m}.{path}" for m, path in sorted(DELETED) if _resolve(m, path) is not None]
    assert not present, present

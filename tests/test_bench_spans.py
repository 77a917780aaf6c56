"""Every function and class member the benchmark's tracer wraps exists in
tlab: ``bench/spans.py`` skips a name it cannot find, so a rename would
otherwise read as a per-layer metric of 0.  The same holds for the JW
strategy helpers it counts."""

import importlib
import inspect
import pathlib
import types

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    # executed from source, so that no bytecode is written beside it
    module = types.ModuleType("spans")
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec"), module.__dict__)
    return module


def test_every_span_resolves_in_tlab():
    spans = _spans_module()
    assert spans.SPANS
    missing = []
    for module_name, path, span in spans.SPANS:
        target = importlib.import_module(f"tlab.{module_name}")
        for part in path.split("."):
            target = inspect.getattr_static(target, part, None)
        if target is None:
            missing.append(f"{module_name}.{path} ({span})")
    assert not missing, missing


def test_every_traced_ring_operation_resolves():
    from tlab.rings import RingValue

    spans = _spans_module()
    missing = [op for op in spans.RING_OPS if inspect.getattr_static(RingValue, op, None) is None]
    assert not missing, missing


def test_every_live_jw_strategy_helper_resolves():
    """The helpers behind tldiag.jw.recursion, .solve and .check are counted
    and exist, so refactoring one cannot silently zero its counter."""
    from tlab import tldiag

    spans = _spans_module()
    counted = {helper for helper, _, _ in spans.STRATEGIES}
    for helper in ("_jw_by_recursion", "_jw_by_solve", "_check_jw"):
        assert helper in counted, helper
        assert callable(getattr(tldiag, helper, None)), helper

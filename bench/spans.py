"""Spans and counters around calls into each tlab layer, installed from outside.

Nothing under ``src/`` knows about tracing: :func:`install` replaces module
and class attributes of an already imported ``tlab`` with wrappers that
record, per span name, the number of calls and the self time (the span's
duration minus the time its child spans cover).  Every reference to a
wrapped function held by any ``tlab`` module is replaced, so calls made
through ``from .x import f`` bindings are traced as well.

``RingValue.is_zero`` and ``==`` stay unwrapped: they are called millions of
times by elimination and would make tracing cost more than the work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# ring-value operations recorded as one op each under rings.<kind>
RING_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "inverse", "__pow__",
)

# (module, attribute path, span name); a dotted path names a class member
SPANS = (
    ("contpoly", "kappa", "contpoly"),
    ("contpoly", "mu", "contpoly"),
    ("contpoly", "nu", "contpoly"),
    ("contpoly", "qnum", "contpoly"),
    ("contpoly", "qbinom", "contpoly"),
    ("contpoly", "qbinom_literal", "contpoly"),
    ("contpoly", "QuantumTable.build", "contpoly"),
    ("tldiag", "compose", "tldiag.compose"),
    ("tldiag", "tensor", "tldiag.tensor"),
    ("tldiag", "partial_trace", "tldiag.trace"),
    ("tldiag", "markov_trace", "tldiag.trace"),
    ("tldiag", "is_negligible", "tldiag.trace"),
    ("tldiag", "TLMorphism.__str__", "tldiag.format"),
    ("tldiag", "jw", "tldiag.jw"),
    ("tldiag", "hazi_witness", "tldiag.jw"),
    ("tldiag", "rotatability", "tldiag.rotatability"),
    ("complexes", "build_continuant", "complexes.build"),
    ("complexes", "cone", "complexes.cone"),
    ("complexes", "FormalMorphism.__mul__", "complexes.formal_mul"),
    ("complexes", "validate", "complexes.validate"),
    ("sl2model", "realize_morphism", "sl2model.realize"),
    ("sl2model", "_realize_formal", "sl2model.realize"),
    ("sl2model", "homology", "sl2model.homology"),
    ("linalg", "ExactMatrix.__mul__", "linalg.matmul"),
    ("linalg", "ExactMatrix.rank", "linalg.rank"),
    ("linalg", "ExactMatrix.solve", "linalg.solve"),
    ("fusion", "builtin_ring", "fusion.load"),
    ("fusion", "load_fusion_ring", "fusion.load"),
    ("fusion", "fpdim", "fusion.fpdim"),
    ("fusion", "minimal_bound", "fusion.classify"),
    ("fusion", "classify_all", "fusion.classify"),
    ("cli", "main", "cli"),
)

# JW strategy helpers, counted on every call: (helper, counter, whether its
# ZeroDivisionError or AssertionError is one that jw(..., "auto") swallows
# when it falls back to the next strategy)
STRATEGIES = (
    ("_jw_by_recursion", "tldiag.jw.recursion", False),
    ("_jw_by_integer_lift", "tldiag.jw.lift", True),
    ("_jw_by_specialization", "tldiag.jw.specialize", True),
    ("_jw_by_solve", "tldiag.jw.solve", False),
    ("_check_jw", "tldiag.jw.check", True),
)
SWALLOWED = (ZeroDivisionError, AssertionError)


def _ring_kind(ring) -> str:
    if ring.kind != "ratfun":
        return ring.kind
    depth = 0
    while getattr(ring, "kind", None) == "ratfun":
        depth += 1
        ring = ring.base
    return "ratfun" if depth == 1 else f"ratfun{depth}"


class Tracer:
    """Per-process span and counter store, filled by the installed wrappers."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.density = [0, 0]  # non-zero cells, cells of realized differentials
        self._stack = [[0.0]]  # child-time accumulator per open span; [0] is the root
        self._kinds = {}  # id(ring) -> (ring, span name); the ring is held so ids stay unique
        self._caches = {}

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args), when given, returns the
        (counter, amount) to add before each call."""
        stack, self_s, calls, counters, clock = (
            self._stack, self.self_s, self.calls, self.counters, time.perf_counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                key, amount = count(args)
                counters[key] += amount
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[name] += elapsed - frame[0]
                calls[name] += 1

        return wrapper

    def ring_span(self, fn):
        """Wrap a RingValue method in a span named after the value's ring kind.

        The span body is repeated from span() rather than shared, because it
        runs once per ring operation, millions of times a job."""
        stack, self_s, calls, kinds, clock = (
            self._stack, self.self_s, self.calls, self._kinds, time.perf_counter)

        @functools.wraps(fn)
        def wrapper(value, *args):
            ring = value.ring
            known = kinds.get(id(ring))
            if known is None:
                known = kinds[id(ring)] = (ring, "rings." + _ring_kind(ring))
            name = known[1]
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(value, *args)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[name] += elapsed - frame[0]
                calls[name] += 1

        return wrapper

    def counted(self, name: str, fn, raises: str = None):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            if raises is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except SWALLOWED:
                counters[raises] += 1
                raise

        return wrapper

    def realized(self, fn):
        """Record the density of each realized differential; the scan is
        charged to no span."""
        stack, density, clock = self._stack, self.density, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            matrix = fn(*args, **kwargs)
            start = clock()
            density[0] += sum(1 for row in matrix.rows for e in row if not e.is_zero())
            density[1] += matrix.nrows * matrix.ncols
            stack[-1][0] += clock() - start
            return matrix

        return wrapper

    # -- reading state -----------------------------------------------------

    def report(self) -> dict:
        """Everything recorded, plus the state of every module-level cache."""
        from tlab import tldiag

        caches = {}
        for qualname, cached in self._caches.items():
            info = cached.cache_info()
            caches[qualname] = [info.hits, info.misses, info.currsize]
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "caches": caches,
            "jw_cache_entries": len(getattr(tldiag, "_JW_CACHE", ())),
            "density": list(self.density),
        }


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "tlab" or name.startswith("tlab.")]


def _replace(original, wrapped):
    """Point every tlab module attribute bound to original at wrapped."""
    for module in _modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch(module, path: str, make):
    """Wrap one function or class member; a name the program no longer has
    is skipped, and its metrics read 0."""
    if module is None:
        return
    if "." not in path:
        original = getattr(module, path, None)
        if original is not None:
            _replace(original, make(original))
        return
    cls_name, attr = path.split(".")
    cls = getattr(module, cls_name, None)
    raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
    if raw is None:
        return
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install() -> Tracer:
    """Instrument the imported tlab package; call once per process."""
    import tlab  # noqa: F401  (loads every layer)
    from tlab import rings

    tracer = Tracer()
    mods = {m.__name__.split(".")[-1]: m for m in _modules()}
    for module in _modules():
        for key, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                tracer._caches[f"{module.__name__.split('.')[-1]}.{key}"] = value

    for op in RING_OPS:
        _patch(rings, f"RingValue.{op}", tracer.ring_span)

    counts = {
        "tldiag.compose": lambda a: ("tldiag.compose.pairs", len(a[0].terms) * len(a[1].terms)),
        "linalg.matmul": lambda a: ("linalg.matmul.products", a[0].nrows * a[0].ncols * a[1].ncols),
        "linalg.rank": lambda a: ("linalg.rank.cells", a[0].nrows * a[0].ncols),
    }
    for helper, name, swallowed in STRATEGIES:
        raises = "tldiag.jw.fallbacks" if swallowed else None
        _patch(mods.get("tldiag"), helper, lambda fn, n=name, r=raises: tracer.counted(n, fn, r))
    _patch(mods.get("sl2model"), "_realize_formal", tracer.realized)
    for module, path, name in SPANS:
        _patch(mods.get(module), path, lambda fn, n=name: tracer.span(n, fn, counts.get(n)))
    return tracer

"""Every name in ``tlab.__all__`` has a caller in ``src/tlab`` outside its
own definition, or a reason to stay public, given in ``API_ONLY`` and in
the bullets of README's "Python API" section.  A caller refers to the name
bare, in the module that defines it or in one that imports it from there,
or as ``module.name``.  What only the tests need lives under ``tests/``."""

import ast
import functools
import pathlib

import tlab

ROOT = pathlib.Path(__file__).resolve().parent.parent

API_ONLY = {
    "mu": "the paper's two-variable continuants, the K-classes of the continuant complexes",
    "nu": "the paper's cyclotomic parts of the continuants, mu_{m-1} = prod_{i | m} nu_{i-1}",
}


@functools.lru_cache(maxsize=None)
def _references() -> dict:
    """module -> (imports, refs): (home, name) for each ``from .home import
    name``, and (owner, name, via) for each load of a bare name (via None)
    or of ``via.name`` inside the top-level statement named owner."""
    out = {}
    for path in (ROOT / "src" / "tlab").glob("*.py"):
        imports, refs = set(), []
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for n in ast.walk(statement):
                if isinstance(n, ast.ImportFrom) and n.module:
                    imports |= {(n.module.rsplit(".", 1)[-1], a.name) for a in n.names if a.asname is None}
                elif isinstance(n, ast.Name) or (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)):
                    via = n.value.id if isinstance(n, ast.Attribute) else None
                    refs.append((getattr(statement, "name", None), getattr(n, "attr", None) or n.id, via))
        out[path.stem] = imports, refs
    del out["__init__"]  # it imports to re-export
    return out


def _callers(name: str) -> set:
    home = getattr(tlab, name).__module__.rsplit(".", 1)[-1]
    return {
        module
        for module, (imports, refs) in _references().items()
        for owner, ref, via in refs
        if ref == name and not (module == home and owner == name)  # not its own definition
        and (via == home or (via is None and (module == home or (home, name) in imports)))
    }


def test_every_public_name_has_a_caller_or_a_reason():
    # a listed name that gains a caller or leaves __all__ fails here too
    assert sorted(name for name in tlab.__all__ if not _callers(name)) == sorted(API_ONLY)
    assert _callers("qnum") >= {"cli", "tldiag"}  # as contpoly.qnum, and imported


def test_readme_repeats_the_reasons():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [" ".join(b.split()) for b in section.split("\n* ")[1:]]
    assert {b.split("`")[1]: b.split(": ", 1)[1].rstrip(";.") for b in bullets} == API_ONLY

"""The runtime imports nothing outside the Python standard library and,
like the tests, no name that it does not use, keeps no check in an `assert`
statement, which `python -O` strips, and loads neither `dataclasses` nor
`fractions` at start-up."""

import ast
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tlab"


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, outside


def _unused_imports(tree) -> list:
    """(line, name) of each name an import binds where its scope, the module
    or the function that holds the import, never loads it.  A string equal
    to the name counts as a load, as a string annotation is."""
    found = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        used = {n.id if isinstance(n, ast.Name) else n.value for n in ast.walk(scope)
                if isinstance(n, ast.Name) or (isinstance(n, ast.Constant) and isinstance(n.value, str))}
        stack = list(ast.iter_child_nodes(scope))
        while stack:  # the scope's own statements, not those of a nested function
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = ((a.asname or a.name).split(".")[0] for a in node.names)
                found += [(node.lineno, name) for name in names if name not in used]
    return sorted(found)


def test_runtime_imports_no_unused_name():
    """Nor do the tests.  ``__init__.py`` is skipped: it imports to re-export."""
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, found


def test_the_unused_import_check_reads_each_function_as_a_scope():
    source = "import os.path\nfrom typing import List\ndef f() -> 'List':\n"
    source += "    from fractions import Fraction\n    import math\n    return math.pi\ndef g():\n    return os.sep\n"
    assert _unused_imports(ast.parse(source)) == [(4, "Fraction")]


def test_runtime_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_start_up_loads_no_code_introspection_modules():
    """Importing the package and the CLI loads neither ``dataclasses`` nor
    the modules it pulls in, which cost more start-up time than a small job;
    the runtime's value classes are written by hand instead.  Nor does it
    load ``fractions`` or the ``decimal`` and ``numbers`` that it imports:
    Q's payloads are pairs of ints."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers")
    code = f"import tlab, tlab.cli, sys; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []

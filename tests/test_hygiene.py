"""Import hygiene of ``src/`` and ``tests/``, checked with :mod:`ast` (no linter needed).

Every module-level import must be used, and every ``__all__`` entry must
be a name the module defines (or, in a package that resolves names
lazily through a module-level ``__getattr__``, a name that resolves).  A name counts as used when it is read
anywhere in the module, appears inside a string annotation, or is listed
in ``__all__`` (a package's re-exports).  An import kept only for other
modules to import from here says so with a ``# noqa: F401`` marker on
its line.
"""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.rglob("*.py"))


def _module_level(body: list[ast.stmt]):
    """Statements executed at import time: the body, and the bodies of
    module-level ``if`` / ``try`` / ``with`` blocks."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level(handler.body)


def _imports(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound → line, for each module-level import without a noqa."""
    bound = {}
    for node in _module_level(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _defined(tree: ast.Module) -> set[str]:
    """Names the module binds at import time."""
    names = set()
    for node in _module_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _all_entries(tree: ast.Module) -> list[str]:
    """A literal ``__all__``'s entries.  One computed at import time (a
    package resolving its names lazily through ``__getattr__``) is not
    checked."""
    for node in _module_level(tree.body):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names read inside string annotations (``x: "Params"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _problems(path: Path, root: Path = SRC) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    entries = _all_entries(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree) | set(entries)
    where = path.relative_to(root)
    problems = [
        f"{where}:{line}: '{name}' is imported but unused"
        for name, line in _imports(tree, source.splitlines()).items()
        if name not in used
    ]
    defined = _defined(tree)
    if "__getattr__" in defined:
        module = import_module(".".join(where.with_suffix("").parts).removesuffix(".__init__"))
        defined |= {name for name in entries if hasattr(module, name)}
    problems += [
        f"{where}: __all__ lists '{name}', which it does not define"
        for name in entries
        if name not in defined
    ]
    return problems


def test_src_has_no_unused_imports_and_no_dangling_all_entries():
    assert MODULES, f"no modules under {SRC}"
    problems = [problem for path in MODULES for problem in _problems(path)]
    assert not problems, "\n".join(problems)


def test_tests_have_no_unused_imports():
    assert TEST_MODULES, f"no modules under {TESTS}"
    problems = [problem for path in TEST_MODULES for problem in _problems(path, TESTS)]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["'os' is imported but unused"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nc()\n", []),
        ("from a import b  # noqa: F401\n", []),
        ("from a import (\n    b,  # noqa: F401\n)\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from a import B\n"
         "def f(x: 'B') -> None: ...\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("__all__ = ['missing']\n", ["__all__ lists 'missing'"]),
        ("def f():\n    import os\n", []),  # function-level imports are out of scope
    ],
)
def test_the_checker_itself(source, expected, tmp_path):
    module = tmp_path / "m.py"
    module.write_text(source)
    problems = _problems(module, tmp_path)
    assert len(problems) == len(expected), problems
    for problem, fragment in zip(problems, expected):
        assert fragment in problem

"""No module in ``src/repro`` imports a name it never uses.

An AST scan stands in for a linter: every name a module-level
``import``/``from ... import`` binds must be referenced somewhere in the
module — in code, in a decorator, in an annotation (a string annotation
is parsed too), or in ``__all__``.  A line marked ``# noqa: F401`` is an
intended re-export.  Package ``__init__`` modules are skipped: re-export
is their job.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` for every import outside a def or class."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.partition(".")[0]
                yield bound, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, ()))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _string_annotation_names(node: ast.AST):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        for inner in ast.walk(parsed):
            if isinstance(inner, ast.Name):
                yield inner.id


def _used_names(tree: ast.Module):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_string_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_string_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_string_annotation_names(node.annotation))
        elif isinstance(node, ast.Subscript):
            # Optional["Name"], List["Name"] ...
            for inner in ast.walk(node.slice):
                used.update(_string_annotation_names(inner))
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return used


def unused_imports(path: Path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        (line, name)
        for name, line in _module_imports(tree)
        if name not in used and "noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path) == []


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from typing import List, Optional\n"
        "import os, json  # noqa: F401\n"
        "from a import b\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module) == [(1, "Optional"), (3, "b")]

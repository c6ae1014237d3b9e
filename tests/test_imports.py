"""Imports: none unused, every module reachable, and every process imports
only the layers it runs.

An AST scan stands in for a linter: every name a module-level
``import``/``from ... import`` binds must be referenced somewhere in the
module — in code, in a decorator, in an annotation (a string annotation
is parsed too), or in ``__all__``.  A line marked ``# noqa: F401`` is an
intended re-export.  Package ``__init__`` modules are skipped: re-export
is their job.

A second scan keeps ``src/`` to what runs: every module must be in the
static import closure of ``python -m repro``, the paper's benchmarks or
the examples — what only tests import is not part of the program.

The import diet (DESIGN.md "Cold start") is checked on fresh
interpreters: a ``--durable`` daemon reaches its listening line without
the model checker, the chaos machinery or any strategy but its own, and
imports nothing after it; the explorer path imports no TM, runtime,
fault, serve or durable module; and every lazily exported package name
resolves once and is then cached.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.perf import child_env, repro_modules, serve_launch
from repro.serve.client import call_daemon
from repro.serve.loadgen import LoadConfig, run_load_sync

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
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


# -- every module reachable from what runs ---------------------------------------

#: dotted module name -> source file, packages included
MODULE_FILES = {
    ".".join(path.relative_to(SRC.parent).with_suffix("").parts).removesuffix(
        ".__init__"
    ): path
    for path in SRC.rglob("*.py")
}

#: what runs: the command line, the paper's benchmarks and the examples
ROOTS = sorted(
    [SRC / "__main__.py"]
    + list((REPO / "benchmarks").glob("*.py"))
    + list((REPO / "examples").glob("*.py"))
)


def imported_modules(path: Path):
    """The module names a file may import: every ``import`` statement at
    any depth (function-local ones too, which is how commands load their
    layers), the modules of ``lazy_exports`` tables and the ``LazyTable``
    entries a package resolves on first use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dicts = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and _dotted(node.func).split(".")[-1] in (
            "lazy_exports", "LazyTable",
        ):
            for arg in node.args:
                table = dicts.get(arg.id) if isinstance(arg, ast.Name) else arg
                if isinstance(table, ast.Dict):
                    found.update(
                        inner.value for inner in ast.walk(table)
                        if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
                    )
    return found


def reachable_modules(roots):
    """The ``repro`` modules in the static import closure of ``roots``
    (a root that is a module counts); reaching a module reaches the
    packages above it."""
    reached = {name for name, path in MODULE_FILES.items() if path in roots}
    pending = list(roots)
    while pending:
        for name in imported_modules(pending.pop()):
            parts = name.split(".")
            for depth in range(1, len(parts) + 1):
                module = ".".join(parts[:depth])
                if module in MODULE_FILES and module not in reached:
                    reached.add(module)
                    pending.append(MODULE_FILES[module])
    return reached


def test_every_module_is_reachable_from_what_runs():
    assert sorted(set(MODULE_FILES) - reachable_modules(ROOTS)) == []


def test_scan_follows_local_lazy_and_table_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.lazy import LazyTable, lazy_exports\n"
        "_TABLE = {'tl2': ('repro.tm.tl2', 'TL2TM')}\n"
        "STRATEGIES = LazyTable(_TABLE)\n"
        "__getattr__, __dir__, __all__ = lazy_exports(globals(), {\n"
        "    'repro.obs.flight': ('FlightRecorder',),\n"
        "})\n"
        "def f():\n"
        "    import repro.core.rewind\n"
        "    from repro.checking import tms2\n"
        "    return 'repro.core.opacity'\n"
    )
    found = imported_modules(module)
    assert found >= {
        "repro.lazy", "repro.tm.tl2", "repro.obs.flight", "repro.core.rewind",
        "repro.checking.tms2",
    }
    assert "repro.core.opacity" not in found  # a string, not an import
    reached = reachable_modules([module])
    assert {"repro", "repro.tm", "repro.tm.base", "repro.checking.tms2"} <= reached


# -- one owner of the transaction lifecycle -------------------------------------

#: (module, step) pairs allowed outside the runtime: the model checker's
#: synthetic terminal history, built from the commit orders an exploration
#: recorded rather than from a running transaction
LIFECYCLE_ALLOWED = {("checking/model_checker.py", "history.commit")}


def _dotted(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def lifecycle_steps(path: Path):
    """``(line, what)`` for each hand-rolled transaction-lifecycle step in
    a module: a ``history.commit``/``history.abort`` call, a
    ``RebasedStateSpec`` construction, or a runtime's ``apply("cmt", …)``
    — all :class:`~repro.tm.base.Runtime`'s to make."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        last_two = ".".join(name.split(".")[-2:])
        if last_two in ("history.commit", "history.abort"):
            found.append((node.lineno, last_two))
        elif name.split(".")[-1] == "RebasedStateSpec":
            found.append((node.lineno, "RebasedStateSpec"))
        elif (
            name.endswith(".apply")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "cmt"
        ):
            found.append((node.lineno, 'apply("cmt")'))
    return sorted(found)


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_only_the_runtime_runs_the_transaction_lifecycle(path):
    module = str(path.relative_to(SRC))
    if module == "tm/base.py":
        return
    assert [
        (line, what)
        for line, what in lifecycle_steps(path)
        if (module, what) not in LIFECYCLE_ALLOWED
    ] == []


def test_scan_sees_a_hand_rolled_lifecycle_step(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(rt, record, spec, state):\n"
        "    rt.apply('cmt', 1)\n"
        "    rt.apply('push', 1, None)\n"
        "    rt.history.commit(record, ())\n"
        "    rt.commit(1, record)\n"
        "    history.abort(record, 'x')\n"
        "    return core.spec.RebasedStateSpec(spec, state)\n"
    )
    assert lifecycle_steps(module) == [
        (2, 'apply("cmt")'),
        (4, "history.commit"),
        (6, "history.abort"),
        (7, "RebasedStateSpec"),
    ]


# -- the import diet ------------------------------------------------------------

IMPORTTIME = ("-X", "importtime")

#: what a daemon never runs, so must never import
SERVE_NEVER = {
    "repro.checking.model_checker",
    "repro.checking.reduction",
    "repro.core.invariants",
    "repro.core.rewind",
    "repro.core.atomic",
    "repro.runtime.harness",
    "repro.runtime.workload",
    "repro.obs.profiling",
    "repro.obs.exporters",
    "repro.obs.perf",
    "repro.obs.report",
    "repro.faults.nemesis",
}

LAZY_PACKAGES = ("checking", "faults", "obs", "runtime", "specs", "tm")


@pytest.fixture(scope="module")
def serve_run(tmp_path_factory):
    """A ``--durable`` daemon under ``-X importtime`` through mixed
    cross-shard load and the admin calls, SIGKILLed, then restarted on the
    same directory: each launch's ``repro`` imports before and after its
    listening line."""
    durable = str(tmp_path_factory.mktemp("serve") / "wal")
    launches = []
    with serve_launch(durable, IMPORTTIME) as daemon:
        report = run_load_sync(LoadConfig(
            port=daemon.port, workload="mixed", cross_ratio=0.3, requests=120,
            sessions=20, max_inflight=8, pool=2, seed=3,
        ))
        assert report.committed > 0
        assert call_daemon("metrics", port=daemon.port)["ok"]
        assert call_daemon("conformance", port=daemon.port)["ok"]
        daemon.proc.kill()
        daemon.proc.wait()
        launches.append((daemon.before, daemon.proc.stdout.read()))
    with serve_launch(durable, IMPORTTIME) as daemon:
        assert call_daemon("conformance", port=daemon.port)["ok"]
        assert call_daemon("txn", port=daemon.port, ops=[["counter", "get"]])["ok"]
        daemon.proc.kill()
        daemon.proc.wait()
        launches.append((daemon.before, daemon.proc.stdout.read()))
    return [(repro_modules(before), repro_modules(after)) for before, after in launches]


def test_serve_reaches_listening_without_unused_layers(serve_run):
    for before, _after in serve_run:
        assert "repro.serve.shard" in before  # the log covers the shards' start
        assert SERVE_NEVER.isdisjoint(before), SERVE_NEVER.intersection(before)
        assert not [m for m in before if m.startswith("repro.fuzz")]
        strategies = {m for m in before if m.startswith("repro.tm.")}
        assert strategies == {"repro.tm.base", "repro.tm.encounter"}


def test_serve_imports_nothing_after_listening(serve_run):
    for _before, after in serve_run:
        assert after == []


def test_explorer_path_imports_no_runtime_layer():
    probe = (
        "import sys\n"
        "from repro.cli import SCOPES\n"
        "import repro.checking.model_checker\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=child_env(), check=True, timeout=60,
    ).stdout.split()
    assert "repro.checking.model_checker" in loaded
    layers = ("repro.tm.", "repro.runtime.", "repro.faults.", "repro.serve.",
              "repro.durable.")
    assert [m for m in loaded if (m + ".").startswith(layers)] == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_resolve_once(name, monkeypatch):
    package = importlib.import_module(f"repro.{name}")
    for export in package.__all__:
        getattr(package, export)
        assert export in dir(package)
    namespace = {}
    exec(f"from repro.{name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        package.no_such_name

    def refuse(attribute):
        raise AssertionError(f"repro.{name}.{attribute} resolved twice")

    monkeypatch.setattr(package, "__getattr__", refuse)
    for export in package.__all__:
        assert getattr(package, export) is namespace[export]


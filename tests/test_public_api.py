"""Every public name of every ``repro`` package resolves, and every
definition in ``repro`` is reached from an entry point.

Some package ``__init__`` files export names lazily through a module-level
``__getattr__`` (PEP 562); a typo in such a map shows only when the name is
first used, so every ``__all__`` entry is resolved here.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
#: Where the entry points live: both CLIs (under ``src``), the benchmark
#: scripts, perfbench's workloads and the examples.
ENTRY_DIRS = ("src", "benchmarks", "perfbench", "examples")
#: Kept with no caller outside the tests: the documented kernel extension
#: point, the pattern validators and the seed oracles the tests compare with.
KEPT_FOR_TESTS = (
    "src/repro/kernels/registry.py:register_kernel",
    "src/repro/sparse/validate.py:",
    "src/repro/core/reference.py:",
    "src/repro/sparse/spmm_reference.py:",
)

PACKAGES = [
    "repro",
    *(f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg),
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), f"duplicate entries in {name}.__all__"
    for attr in exported:
        getattr(package, attr)
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


def _is_export(node: ast.stmt) -> bool:
    """An import, or the ``__all__`` / ``_LAZY`` name tables of a module."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", None) in ("__all__", "_LAZY") for target in node.targets
    )


def _is_registered(node: ast.stmt) -> bool:
    """Registered by a call decorator such as ``@rule(...)``."""
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) != "dataclass"
        for d in node.decorator_list
    )


def _used_names(node: ast.AST):
    """Names, attributes and identifier strings (``getattr`` targets)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value


def test_every_definition_is_reached_from_an_entry_point():
    """Names are matched, not resolved: a definition counts as reached when
    any reached code uses its name, so this errs towards keeping code."""
    definitions: dict[str, list[ast.stmt]] = {}
    owned: list[str] = []
    reached: set[str] = set()
    todo: list[ast.stmt] = []
    for path in sorted(p for d in ENTRY_DIRS for p in (REPO / d).rglob("*.py")):
        module = path.relative_to(REPO).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
                owned.append(f"{module}:{node.name}")
                if _is_registered(node):
                    reached.add(node.name)
                    todo.append(node)
            elif not _is_export(node):
                todo.append(node)
    while todo:
        for name in _used_names(todo.pop()):
            if name not in reached:
                reached.add(name)
                todo.extend(definitions.get(name, ()))
    unreached = [
        entry
        for entry in owned
        if entry.startswith("src/repro/")
        and not entry.startswith(KEPT_FOR_TESTS)
        and not entry.split(":")[1].startswith("__")
        and entry.split(":")[1] not in reached
    ]
    assert unreached == []

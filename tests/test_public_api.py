"""Every public name of every ``repro`` package resolves, and every
definition and method in ``repro`` is reached from an entry point.

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
#: Kept with no caller outside the tests.
KEPT_FOR_TESTS = (
    # The documented kernel extension point.
    "src/repro/kernels/registry.py:register_kernel",
    # The pattern validators and the seed oracles the tests compare with.
    "src/repro/sparse/validate.py:",
    "src/repro/core/reference.py:",
    "src/repro/sparse/spmm_reference.py:",
    # The scalar estimates the timing-grid tests compare the grid with.
    "src/repro/kernels/base.py:SpMMKernel.estimate_conv",
    "src/repro/kernels/base.py:SpMMKernel.metadata_bytes",
    # The chaos suite's drain and its seeded fault schedules.
    "src/repro/serve/pool.py:WorkerPool.collect_all",
    "src/repro/serve/pool.py:WorkerPool.outstanding",
    "src/repro/serve/faults.py:FaultPlan.seeded",
)
#: Methods the stdlib calls by protocol rather than by name, keyed by the
#: base class that calls them and matched as name prefixes (``visit_*``).
CALLBACKS = {
    "NodeVisitor": ("visit_", "generic_visit"),
    "StreamRequestHandler": ("handle",),
}

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


def _named_methods(cls: ast.ClassDef):
    """The methods of ``cls`` that code calls by name: all but the dunders
    and the stdlib callbacks of its bases, which run whenever it does."""
    bases = (getattr(base, "attr", getattr(base, "id", None)) for base in cls.bases)
    callbacks = tuple(name for base in bases for name in CALLBACKS.get(base, ()))
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not node.name.startswith(callbacks):
                yield node


def _used_names(node: ast.AST):
    """Names, attributes and identifier strings (``getattr`` targets),
    leaving out the bodies of methods called by name."""
    todo = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value
        skip = list(_named_methods(sub)) if isinstance(sub, ast.ClassDef) else ()
        todo.extend(child for child in ast.iter_child_nodes(sub) if child not in skip)


def test_every_definition_is_reached_from_an_entry_point():
    """Names are matched, not resolved: a definition or method counts as
    reached when any reached code uses its name, so this errs towards
    keeping code.  A reached class reaches its dunders and stdlib callbacks,
    not its other methods."""
    definitions: dict[str, list[ast.stmt]] = {}
    owned: list[tuple[str, str]] = []
    reached: set[str] = set()
    todo: list[ast.stmt] = []
    for path in sorted(p for d in ENTRY_DIRS for p in (REPO / d).rglob("*.py")):
        module = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for method in _named_methods(cls):
                    definitions.setdefault(method.name, []).append(method)
                    owned.append((f"{module}:{cls.name}.{method.name}", method.name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
                owned.append((f"{module}:{node.name}", node.name))
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
        for entry, name in owned
        if entry.startswith("src/repro/")
        and not entry.startswith(KEPT_FOR_TESTS)
        and not name.startswith("__")
        and name not in reached
    ]
    assert unreached == []

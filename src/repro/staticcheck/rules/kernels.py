"""SC004 — kernel conformance: every registered kernel is complete, and the
sweep executor's cross-GPU batch reuse is sound.

The timing model prices every kernel through one path:
``build_launch_batch`` describes a grid of launches, ``simulate_batch``
times it.  Two statically checkable contracts follow:

* **arch-agnosticism** — a kernel whose effective ``launch_arch_agnostic``
  is ``True`` must not consult the ``arch`` parameter inside
  ``build_launch_batch`` (forwarding it to ``super().build_launch_batch`` is
  fine).  A violation means the executor reuses one GPU's launch batch for
  a different GPU.
* **registry completeness** — every kernel named in the registry's
  ``_FACTORIES`` table must resolve, via its analyzed ancestry, to concrete
  ``prepare`` / ``run`` / ``build_launch_batch`` implementations below the
  abstract base.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..project import ClassInfo, ModuleInfo, ProjectIndex, dotted_chain
from ..registry import rule

__all__ = ["check_kernel_conformance"]

RULE_ID = "SC004"

_BASE_CLASS = "SpMMKernel"
_BATCH_METHOD = "build_launch_batch"
_REQUIRED_CONCRETE = ("prepare", "run", _BATCH_METHOD)
_AGNOSTIC_ATTR = "launch_arch_agnostic"


def _finding(cls: ClassInfo, node: ast.AST, symbol: str, message: str) -> Finding:
    return Finding(
        path=cls.module.display_path,
        line=getattr(node, "lineno", cls.node.lineno),
        col=getattr(node, "col_offset", cls.node.col_offset),
        rule=RULE_ID,
        symbol=symbol,
        message=message,
    )


def _effective_arch_agnostic(index: ProjectIndex, cls: ClassInfo) -> bool:
    """The most-derived ``launch_arch_agnostic`` literal along the ancestry."""
    for ancestor in index.ancestors(cls):
        value = ancestor.class_attr(_AGNOSTIC_ATTR)
        if isinstance(value, ast.Constant) and isinstance(value.value, bool):
            return value.value
    return False


class _ArchUseScanner(ast.NodeVisitor):
    """Finds reads of the ``arch`` parameter outside super() forwarding."""

    def __init__(self) -> None:
        self.offending: list[ast.Name] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == _BATCH_METHOD
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            # ``super().build_launch_batch(arch, ...)``: forwarding is sanctioned —
            # skip the argument expressions, but still scan nested calls that
            # are not plain names.
            for arg in node.args:
                if not isinstance(arg, ast.Name):
                    self.visit(arg)
            for keyword in node.keywords:
                if not isinstance(keyword.value, ast.Name):
                    self.visit(keyword.value)
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "arch" and isinstance(node.ctx, ast.Load):
            self.offending.append(node)


def _check_arch_agnosticism(
    index: ProjectIndex, cls: ClassInfo, findings: list[Finding]
) -> None:
    if not _effective_arch_agnostic(index, cls):
        return
    method = cls.methods.get(_BATCH_METHOD)
    if method is None:
        return
    scanner = _ArchUseScanner()
    for stmt in method.node.body:
        scanner.visit(stmt)
    for name in scanner.offending:
        findings.append(
            _finding(
                cls,
                name,
                method.qualname,
                f"declares {_AGNOSTIC_ATTR}=True but {_BATCH_METHOD} reads "
                "the arch parameter; cross-GPU batch reuse would apply "
                "one GPU's launch description to another",
            )
        )


def _registered_classes(
    index: ProjectIndex,
) -> list[tuple[str, ClassInfo | None, ModuleInfo, ast.AST]]:
    """``(name, class-or-None, registry-module, node)`` per registration.

    One entry per value of a module-level ``_FACTORIES`` dict literal (the
    kernel registry's factory table).
    """
    entries: list[tuple[str, ClassInfo | None, ModuleInfo, ast.AST]] = []
    for module in index.modules.values():
        for stmt in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            named_factories = any(
                isinstance(t, ast.Name) and t.id == "_FACTORIES" for t in targets
            )
            if not named_factories or not isinstance(value, ast.Dict):
                continue
            for key, factory in zip(value.keys, value.values, strict=True):
                label = (
                    str(key.value)
                    if isinstance(key, ast.Constant)
                    else ast.unparse(key)
                    if key is not None
                    else "**"
                )
                chain = dotted_chain(factory)
                resolved = (
                    index.resolve_class(module, chain) if chain is not None else None
                )
                entries.append((label, resolved, module, factory))
    return entries


def _is_kernel_class(index: ProjectIndex, cls: ClassInfo) -> bool:
    return any(a.name == _BASE_CLASS for a in index.ancestors(cls)[1:])


@rule(
    RULE_ID,
    "kernel-conformance",
    "SpMMKernel subclasses must honour launch_arch_agnostic, and registered "
    "kernels must be concrete",
)
def check_kernel_conformance(index: ProjectIndex) -> list[Finding]:
    findings: list[Finding] = []
    for cls in index.subclasses_of(_BASE_CLASS):
        _check_arch_agnosticism(index, cls, findings)

    for label, resolved, context, node in _registered_classes(index):
        if resolved is None:
            # Factories that are not plain class names (lambdas, partials)
            # cannot be checked statically; only flag resolvable ones.
            continue
        if not _is_kernel_class(index, resolved):
            findings.append(
                Finding(
                    path=context.display_path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    rule=RULE_ID,
                    symbol=resolved.qualname,
                    message=(
                        f"registered under {label!r} but does not inherit "
                        f"from {_BASE_CLASS}"
                    ),
                )
            )
            continue
        missing = [
            name
            for name in _REQUIRED_CONCRETE
            if (
                (found := index.resolve_method(resolved, name)) is None
                or (found.cls is not None and found.cls.name == _BASE_CLASS)
            )
        ]
        if missing:
            findings.append(
                Finding(
                    path=context.display_path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    rule=RULE_ID,
                    symbol=resolved.qualname,
                    message=(
                        f"registered under {label!r} without concrete "
                        f"{'/'.join(missing)} implementation(s) below the "
                        "abstract base"
                    ),
                )
            )
    return findings

"""repro.staticcheck — AST contract linter for the repro codebase.

The sweep cache, the bit-identity oracle nets and the batched timing engine
all rest on conventions the type system cannot see: cells must be pure,
oracles must mirror engine signatures, ``config_hash`` must cover every
result-affecting field, registered kernels must be concrete, and a kernel
declaring ``launch_arch_agnostic`` must never read ``arch`` when it builds
its launch batch.  This package checks those conventions statically —
pure ``ast`` analysis, nothing imported or executed — and is wired into
CI next to the style lint.

Run it with ``python -m repro.staticcheck [paths] [--format text|json]``;
suppress a finding inline with ``# staticcheck: ignore[SC001] -- reason``.
"""

from __future__ import annotations

from .cli import main
from .findings import Finding
from .project import ProjectIndex
from .registry import Rule, all_rules, rule

__all__ = [
    "Finding",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "main",
    "rule",
]

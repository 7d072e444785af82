"""SC001 — cell purity: sweep-cell code must be deterministic.

The repo's central cache contract is that every sweep cell is a *pure*
function of its hashable config: serial and parallel runs must produce
byte-identical records, and a cached record must stay valid forever (until
its family's ``CellTask`` salt is bumped).  Any nondeterminism inside a cell
executor silently breaks both.

The rule roots a reachability walk over the shared
:mod:`repro.staticcheck.flow` call graph at the cell-execution entry points:
every function passed as the ``execute=`` argument of a ``CellTask(...)``
construction.  Every cell family is a ``CellTask`` — the timing grid's
``batched_executor`` included — so these roots cover every executor the
sweep runner can run.

Every reachable function's effect summary is then filtered for the
nondeterminism kinds that would break the serial == parallel byte-identity
contract — wall-clock reads, legacy global-state RNG, environment reads,
and set-order-dependent outputs (see
:data:`repro.staticcheck.effects.PURITY_KINDS`); the sanctioned fixes are
seeded ``np.random.default_rng`` generators and ``sorted(...)`` around set
iteration.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..effects import PURITY_KINDS
from ..findings import Finding
from ..flow import FlowAnalysis, reachable
from ..project import FunctionInfo, ProjectIndex, dotted_chain
from ..registry import rule

__all__ = ["check_cell_purity"]

RULE_ID = "SC001"


def _celltask_execute_roots(index: ProjectIndex) -> Iterator[tuple[FunctionInfo, str]]:
    """Functions passed as ``execute=`` to ``CellTask(...)`` constructions."""
    for module in index.all_modules:
        if "CellTask" not in module.source:
            continue  # cheap prefilter before the full tree walk
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None or module.resolve(chain).rsplit(".", 1)[-1] != "CellTask":
                continue
            for keyword in node.keywords:
                if keyword.arg != "execute":
                    continue
                target = dotted_chain(keyword.value)
                if target is None:
                    continue
                resolved = module.resolve(target)
                info = index.functions.get(resolved)
                if info is not None:
                    yield info, f"CellTask execute ({module.name})"


@rule(
    RULE_ID,
    "cell-purity",
    "functions reachable from CellTask execute functions must be "
    "deterministic (no wall clock, unseeded RNG, environment reads, or "
    "set-order-dependent outputs)",
)
def check_cell_purity(index: ProjectIndex) -> list[Finding]:
    flow = FlowAnalysis.for_index(index)
    roots = list(_celltask_execute_roots(index))
    findings: list[Finding] = []
    for qualname, origin in sorted(reachable(flow.graph, roots).items()):
        summary = flow.summary(qualname)
        if summary is None:
            continue
        info = index.functions[qualname]
        for site in summary.sites:
            if site.kind not in PURITY_KINDS:
                continue
            findings.append(
                Finding(
                    path=info.module.display_path,
                    line=site.line,
                    col=site.col,
                    rule=RULE_ID,
                    symbol=qualname,
                    message=f"{site.detail} (reachable from {origin})",
                )
            )
    return findings

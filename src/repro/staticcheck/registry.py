"""Rule registry: the catalogue of contract checks the CLI runs.

Rules register themselves with the :func:`rule` decorator at import time
(importing :mod:`repro.staticcheck.rules` loads every built-in rule); the
CLI runs all of them.  A rule is a pure function from a parsed
:class:`~repro.staticcheck.project.ProjectIndex` to a list of
:class:`~repro.staticcheck.findings.Finding` records — registration carries
the id, a short name and the one-line description shown by ``--list-rules``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .findings import Finding
from .project import ProjectIndex

__all__ = [
    "PostCheck",
    "Rule",
    "RuleCheck",
    "all_rules",
    "post_rule",
    "rule",
]

RuleCheck = Callable[[ProjectIndex], list[Finding]]
#: A post rule sees the raw (pre-suppression) findings of every ordinary
#: rule — the shape the SC008 suppression-hygiene check needs.
PostCheck = Callable[[ProjectIndex, "list[Finding]"], "list[Finding]"]


@dataclass(frozen=True)
class Rule:
    """One registered contract check.

    Exactly one of ``check`` (an ordinary rule over the index) and
    ``post_check`` (a meta rule over the other rules' raw findings) is set.
    Post-rule findings are exempt from inline suppression — a hygiene
    violation cannot be ignored away by the mechanism it polices.
    """

    rule_id: str
    name: str
    description: str
    check: RuleCheck | None = None
    post_check: PostCheck | None = None

    @property
    def is_post(self) -> bool:
        return self.post_check is not None

    def run(self, index: ProjectIndex) -> list[Finding]:
        if self.check is None:
            return []
        return sorted(self.check(index))

    def run_post(self, index: ProjectIndex, findings: list[Finding]) -> list[Finding]:
        if self.post_check is None:
            return []
        return sorted(self.post_check(index, findings))


_RULES: dict[str, Rule] = {}


def rule(rule_id: str, name: str, description: str) -> Callable[[RuleCheck], RuleCheck]:
    """Register a check function under ``rule_id`` (decorator)."""

    def register(check: RuleCheck) -> RuleCheck:
        if rule_id in _RULES:
            raise ValueError(f"rule {rule_id!r} is already registered")
        _RULES[rule_id] = Rule(
            rule_id=rule_id, name=name, description=description, check=check
        )
        return check

    return register


def post_rule(
    rule_id: str, name: str, description: str
) -> Callable[[PostCheck], PostCheck]:
    """Register a post check (runs after ordinary rules, over their findings)."""

    def register(check: PostCheck) -> PostCheck:
        if rule_id in _RULES:
            raise ValueError(f"rule {rule_id!r} is already registered")
        _RULES[rule_id] = Rule(
            rule_id=rule_id, name=name, description=description, post_check=check
        )
        return check

    return register


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def _load_builtin_rules() -> None:
    # Imported lazily so the registry module itself stays import-cycle free
    # (rule modules import the registry to self-register).
    from . import rules  # noqa: F401

"""SC008 — suppression hygiene: every ignore earns its keep.

An inline ``# staticcheck: ignore[...]`` comment is a debt marker: it
silences a real rule at a real line for a stated reason.  This meta rule
(a *post* rule — it runs after the ordinary rules, over their raw,
pre-suppression findings) keeps that debt honest:

* a suppression **without a ``-- reason`` trailer** is flagged — the next
  reader must not have to re-derive why the violation is acceptable;
* a suppression that **matches no finding** is flagged (the RUF100 idea):
  either the code was fixed and the comment is stale, or the rule list is
  wrong and the comment never protected anything — including the malformed
  empty list ``ignore[]``, which suppresses nothing by definition.

Unused-ness is only decided for the ordinary rule ids: an id no rule
registers, or SC008 itself, is never reported stale.  A blanket ignore is
stale when no finding at all lands on its line.  SC008 findings are
themselves exempt from suppression — the hygiene rule cannot be ignored
away by the mechanism it polices.
"""

from __future__ import annotations

from ..findings import Finding
from ..project import ProjectIndex
from ..registry import all_rules, post_rule

__all__ = ["check_suppression_hygiene"]

RULE_ID = "SC008"


def _format_rules(rules: frozenset[str]) -> str:
    return ", ".join(sorted(rules))


@post_rule(
    RULE_ID,
    "suppression-hygiene",
    "every inline suppression must carry a '-- reason' trailer and must "
    "still match a real finding; stale and reason-less ignores are flagged "
    "(and SC008 itself cannot be suppressed)",
)
def check_suppression_hygiene(index: ProjectIndex, findings: list[Finding]) -> list[Finding]:
    ordinary = frozenset(r.rule_id for r in all_rules() if not r.is_post)
    out: list[Finding] = []
    by_path_line: dict[tuple[str, int], set[str]] = {}
    for finding in findings:
        by_path_line.setdefault((finding.path, finding.line), set()).add(finding.rule)
    for module in index.all_modules:
        for entry in module.suppressions.entries():
            if entry.reason is None:
                out.append(
                    Finding(
                        path=module.display_path,
                        line=entry.line,
                        col=entry.col,
                        rule=RULE_ID,
                        symbol="<suppression>",
                        message=(
                            "suppression without a reason; append "
                            "'-- <why this violation is acceptable>'"
                        ),
                    )
                )
            hit_rules = by_path_line.get((module.display_path, entry.line), set())
            if entry.rules is None:
                if not hit_rules:
                    out.append(
                        Finding(
                            path=module.display_path,
                            line=entry.line,
                            col=entry.col,
                            rule=RULE_ID,
                            symbol="<suppression>",
                            message=(
                                "blanket suppression matches no finding; "
                                "remove it (and prefer naming the rule: "
                                "ignore[SCnnn] -- reason)"
                            ),
                        )
                    )
                continue
            if not entry.rules:
                out.append(
                    Finding(
                        path=module.display_path,
                        line=entry.line,
                        col=entry.col,
                        rule=RULE_ID,
                        symbol="<suppression>",
                        message=(
                            "malformed suppression 'ignore[]' suppresses "
                            "nothing; name the rule ids"
                        ),
                    )
                )
                continue
            unused = (entry.rules & ordinary) - hit_rules
            if unused:
                out.append(
                    Finding(
                        path=module.display_path,
                        line=entry.line,
                        col=entry.col,
                        rule=RULE_ID,
                        symbol="<suppression>",
                        message=(
                            f"unused suppression of {_format_rules(unused)}: "
                            "no matching finding on this line; remove the "
                            "stale ignore"
                        ),
                    )
                )
    return out

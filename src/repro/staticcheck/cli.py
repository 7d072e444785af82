"""Command-line front-end: ``python -m repro.staticcheck [paths] ...``.

Exit codes follow the usual linter contract:

* ``0`` — every rule ran and produced no (unsuppressed) findings;
* ``1`` — findings were reported (or files failed to parse);
* ``2`` — usage error: a bad option, or a path that does not exist.

Every registered rule runs on every invocation.  ``--format json`` (and
``--output FILE``, which always writes JSON) emit a machine-readable
report.  ``--cache-dir DIR`` persists parsed modules and the rules' raw
findings keyed by source content hashes, so a warm re-run over an
unchanged tree neither parses nor runs a rule.  ``--list-rules`` prints the
rule catalogue.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, TextIO

from .cache import FindingsCache, ParseCache
from .findings import Finding
from .project import ProjectIndex
from .registry import Rule, all_rules

__all__ = ["main"]

#: Bumped when the JSON report schema changes shape.
REPORT_VERSION = 2

_DEFAULT_PATHS = ("src",)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="AST contract linter for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(_DEFAULT_PATHS),
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        metavar="DIR",
        help="persist parse/findings caches under DIR (content-hash keyed)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        metavar="FILE",
        help="also write the JSON report to FILE (independent of --format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _collect_files(paths: list[str]) -> tuple[list[Path], list[str]]:
    """Python files under the given paths, plus the paths that don't exist."""
    files: list[Path] = []
    missing: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            missing.append(raw)
    return files, missing


def _split_findings(
    index: ProjectIndex, findings: list[Finding]
) -> tuple[list[Finding], list[Finding]]:
    """Partition into (active, suppressed) via inline ignore comments."""
    by_path = {module.display_path: module.suppressions for module in index.all_modules}
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        marks = by_path.get(finding.path)
        if marks is not None and marks.is_suppressed(finding.line, finding.rule):
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed


def _report(
    *,
    rules: list[Rule],
    paths: list[str],
    index: ProjectIndex,
    active: list[Finding],
    suppressed: list[Finding],
) -> dict[str, Any]:
    counts: dict[str, int] = {rule.rule_id: 0 for rule in rules}
    for finding in active:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "version": REPORT_VERSION,
        "tool": "repro.staticcheck",
        "rules": [
            {"id": rule.rule_id, "name": rule.name, "description": rule.description}
            for rule in rules
        ],
        "paths": list(paths),
        "files_scanned": len(index.all_modules) + len(index.parse_errors),
        "findings": [finding.to_dict() for finding in active],
        "suppressed": len(suppressed),
        "parse_errors": [
            {"path": path, "error": error} for path, error in index.parse_errors
        ],
        "counts": counts,
    }


def _print_text(report: dict[str, Any], active: list[Finding], out: TextIO) -> None:
    for path, error in sorted(
        (entry["path"], entry["error"]) for entry in report["parse_errors"]
    ):
        print(f"{path}: parse error: {error}", file=out)
    for finding in active:
        print(finding.format_text(), file=out)
    total = len(active) + len(report["parse_errors"])
    scanned = report["files_scanned"]
    suppressed = report["suppressed"]
    tail = f" ({suppressed} suppressed)" if suppressed else ""
    if total:
        print(f"{total} finding(s) in {scanned} file(s){tail}", file=out)
    else:
        print(f"clean: 0 findings in {scanned} file(s){tail}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0

    files, missing = _collect_files(args.paths)
    if missing:
        for raw in missing:
            print(f"error: no such file or directory: {raw}", file=sys.stderr)
        return 2
    if not files:
        print("error: no Python files found under the given paths", file=sys.stderr)
        return 2

    cache = ParseCache(args.cache_dir) if args.cache_dir is not None else None
    index = ProjectIndex.from_files(files, cache=cache)

    ordinary = [rule for rule in rules if not rule.is_post]
    post = [rule for rule in rules if rule.is_post]
    ordinary_ids = frozenset(rule.rule_id for rule in ordinary)
    findings_cache = (
        FindingsCache(args.cache_dir) if args.cache_dir is not None else None
    )
    raw = (
        findings_cache.load(index, ordinary_ids)
        if findings_cache is not None
        else None
    )
    if raw is None:
        raw = []
        for rule in ordinary:
            raw.extend(rule.run(index))
        raw.sort()
        if findings_cache is not None:
            findings_cache.store(index, ordinary_ids, raw)
    active, suppressed = _split_findings(index, raw)
    # Post rules see the raw findings (a suppressed finding still *matches*
    # its suppression) and their own findings cannot be suppressed.
    for rule in post:
        active.extend(rule.run_post(index, raw))
    active.sort()

    report = _report(
        rules=rules,
        paths=args.paths,
        index=index,
        active=active,
        suppressed=suppressed,
    )
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_text(report, active, sys.stdout)

    return 1 if active or index.parse_errors else 0

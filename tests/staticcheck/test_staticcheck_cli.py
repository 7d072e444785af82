"""CLI contract tests: exit codes, JSON report schema, suppressions."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import dataclasses

from repro.staticcheck import cache as staticcheck_cache
from repro.staticcheck import main, registry
from repro.staticcheck.cli import REPORT_VERSION
from repro.staticcheck.flow import FlowAnalysis

CLEAN_MODULE = """
def add(a, b):
    return a + b
"""

DIRTY_MODULE = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    m: int
    n: int

    def to_dict(self):
        return {"m": self.m}

    def config_hash(self):
        return str(self.to_dict())
"""


def write_tree(tmp_path: Path, source: str) -> Path:
    root = tmp_path / "proj"
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "mod.py").write_text(source, encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path, CLEAN_MODULE)
        assert main([str(root)]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "SC003" in out
        assert "1 finding(s)" in out

    def test_missing_path_exits_two(self, tmp_path: Path, capsys) -> None:
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_bad_flag_exits_two(self, tmp_path: Path) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["--format", "yaml"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag",
        [["--format", "sarif"], ["--rules", "SC001"], ["--paths", "src"]],
        ids=" ".join,
    )
    def test_removed_flag_exits_two(
        self, tmp_path: Path, capsys, flag: list[str]
    ) -> None:
        root = write_tree(tmp_path, CLEAN_MODULE)
        with pytest.raises(SystemExit) as excinfo:
            main([str(root), *flag])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path, "def broken(:\n")
        assert main([str(root)]) == 1
        assert "parse error" in capsys.readouterr().out


class TestJsonReport:
    def test_schema_and_counts(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        assert main([str(root), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == REPORT_VERSION
        assert report["tool"] == "repro.staticcheck"
        assert {r["id"] for r in report["rules"]} == {
            "SC001",
            "SC002",
            "SC003",
            "SC004",
            "SC005",
            "SC006",
            "SC007",
            "SC008",
        }
        assert report["files_scanned"] == 2
        assert report["parse_errors"] == []
        assert report["suppressed"] == 0
        assert report["counts"]["SC003"] == 1
        (finding,) = report["findings"]
        assert finding["rule"] == "SC003"
        assert finding["path"].endswith("mod.py")
        assert {"path", "line", "col", "rule", "symbol", "message"} <= set(finding)

    def test_output_file_written_alongside_text(
        self, tmp_path: Path, capsys
    ) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        out_file = tmp_path / "report.json"
        assert main([str(root), "--output", str(out_file)]) == 1
        assert "SC003" in capsys.readouterr().out  # text still on stdout
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert report["counts"]["SC003"] == 1

    def test_list_rules(self, capsys) -> None:
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "SC001",
            "SC002",
            "SC003",
            "SC004",
            "SC005",
            "SC006",
            "SC007",
            "SC008",
        ):
            assert rule_id in out


class TestSuppressions:
    def test_inline_ignore_suppresses_matching_rule(
        self, tmp_path: Path, capsys
    ) -> None:
        source = DIRTY_MODULE.replace(
            "    n: int",
            "    n: int  # staticcheck: ignore[SC003] -- fixture: hash is partial",
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "(1 suppressed)" in out

    def test_ignore_of_other_rule_does_not_suppress(
        self, tmp_path: Path, capsys
    ) -> None:
        source = DIRTY_MODULE.replace(
            "    n: int", "    n: int  # staticcheck: ignore[SC001]"
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 1
        assert "SC003" in capsys.readouterr().out

    def test_blanket_ignore_suppresses_everything(
        self, tmp_path: Path, capsys
    ) -> None:
        source = DIRTY_MODULE.replace(
            "    n: int", "    n: int  # staticcheck: ignore -- fixture blanket"
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 0
        assert "(1 suppressed)" in capsys.readouterr().out

    def test_suppressed_count_lands_in_json(self, tmp_path: Path, capsys) -> None:
        source = DIRTY_MODULE.replace(
            "    n: int",
            "    n: int  # staticcheck: ignore[SC003] -- fixture: hash is partial",
        )
        root = write_tree(tmp_path, source)
        assert main([str(root), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suppressed"] == 1
        assert report["findings"] == []


class TestSuppressionHygiene:
    def test_reasonless_suppression_is_flagged(
        self, tmp_path: Path, capsys
    ) -> None:
        source = DIRTY_MODULE.replace(
            "    n: int", "    n: int  # staticcheck: ignore[SC003]"
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "SC008" in out
        assert "without a reason" in out

    def test_unused_suppression_is_flagged(self, tmp_path: Path, capsys) -> None:
        source = CLEAN_MODULE.replace(
            "    return a + b",
            "    return a + b  # staticcheck: ignore[SC001] -- stale",
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "SC008" in out
        assert "unused suppression of SC001" in out

    @pytest.mark.parametrize("rules", ["SC008", "SC999"])
    def test_unused_only_decided_for_ordinary_rules(
        self, tmp_path: Path, capsys, rules: str
    ) -> None:
        source = CLEAN_MODULE.replace(
            "    return a + b",
            f"    return a + b  # staticcheck: ignore[{rules}] -- not an ordinary rule",
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_stale_blanket_suppression_is_flagged(self, tmp_path: Path, capsys) -> None:
        source = CLEAN_MODULE.replace(
            "    return a + b", "    return a + b  # staticcheck: ignore -- stale"
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 1
        assert "blanket suppression matches no finding" in capsys.readouterr().out

    def test_ignore_syntax_inside_string_is_not_a_suppression(
        self, tmp_path: Path, capsys
    ) -> None:
        source = CLEAN_MODULE + '\nDOC = "# staticcheck: ignore[SC001]"\n'
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sc008_itself_cannot_be_suppressed(
        self, tmp_path: Path, capsys
    ) -> None:
        source = CLEAN_MODULE.replace(
            "    return a + b",
            "    return a + b  # staticcheck: ignore[SC001, SC008] -- nice try",
        )
        root = write_tree(tmp_path, source)
        assert main([str(root)]) == 1
        assert "unused suppression" in capsys.readouterr().out


class TestCacheDir:
    def test_warm_run_reproduces_report(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        cache = tmp_path / "cache"
        assert main([str(root), "--cache-dir", str(cache), "--format", "json"]) == 1
        cold = json.loads(capsys.readouterr().out)
        assert main([str(root), "--cache-dir", str(cache), "--format", "json"]) == 1
        warm = json.loads(capsys.readouterr().out)
        assert warm == cold
        assert any(cache.rglob("*.pkl"))  # entries actually persisted

    def test_warm_run_never_computes_the_dataflow_layer(
        self, tmp_path: Path, capsys, monkeypatch
    ) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        argv = [str(root), "--cache-dir", str(tmp_path / "cache"), "--format", "json"]
        assert main(argv) == 1
        cold = json.loads(capsys.readouterr().out)

        def fail(cls: type, index: object) -> None:
            raise AssertionError("a warm unchanged run recomputed the dataflow layer")

        # The findings cache short-circuits every rule on an unchanged tree,
        # which is why the dataflow summaries need no cache of their own.
        monkeypatch.setattr(FlowAnalysis, "_compute", classmethod(fail))
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out) == cold

    def test_edited_file_misses_cache(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        cache = tmp_path / "cache"
        assert main([str(root), "--cache-dir", str(cache)]) == 1
        capsys.readouterr()
        (root / "mod.py").write_text(CLEAN_MODULE, encoding="utf-8")
        assert main([str(root), "--cache-dir", str(cache)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_linter_source_edit_recomputes_findings(
        self, tmp_path: Path, capsys, monkeypatch
    ) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        cache = tmp_path / "cache"
        assert main([str(root), "--cache-dir", str(cache)]) == 1
        assert "SC003" in capsys.readouterr().out
        # Edit a rule: SC003 now finds nothing.  The linted tree is
        # unchanged, so only the linter's own source digest can tell the
        # warm run that its cached findings are stale.
        sc003 = dataclasses.replace(registry._RULES["SC003"], check=lambda index: [])
        monkeypatch.setitem(registry._RULES, "SC003", sc003)
        monkeypatch.setattr(staticcheck_cache, "_sources_digest", lambda: "edited")
        assert main([str(root), "--cache-dir", str(cache)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path, DIRTY_MODULE)
        cache = tmp_path / "cache"
        assert main([str(root), "--cache-dir", str(cache)]) == 1
        capsys.readouterr()
        for blob in cache.rglob("*.pkl"):
            blob.write_bytes(b"not a pickle")
        assert main([str(root), "--cache-dir", str(cache)]) == 1
        assert "SC003" in capsys.readouterr().out

"""Smoke tests for the ``python -m repro.eval`` command line: listing,
markdown, the sweep-runner flags (--jobs / --cache-dir / --json / --csv) and
the unknown-experiment error path."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.eval.__main__ import main


class TestListing:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1", "figure6", "headline", "table1"):
            assert name in out

    def test_no_argument_lists(self, capsys):
        assert main([]) == 0
        assert "analysis" in capsys.readouterr().out

    def test_markdown(self, capsys):
        assert main(["analysis", "--markdown"]) == 0
        assert "##" in capsys.readouterr().out


class TestUnknownExperiment:
    def test_exit_code_and_message(self, capsys):
        assert main(["figure99"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment 'figure99'" in captured.err
        assert "figure6" in captured.err  # the available list is shown
        assert captured.out == ""  # nothing half-rendered on stdout


class TestSweepFlags:
    def test_headline_json_and_csv_export(self, tmp_path, capsys):
        json_out = tmp_path / "out.json"
        csv_out = tmp_path / "out.csv"
        assert (
            main(
                [
                    "headline",
                    "--jobs",
                    "1",
                    "--json",
                    str(json_out),
                    "--csv",
                    str(csv_out),
                ]
            )
            == 0
        )
        payload = json.loads(json_out.read_text())
        assert payload["title"].startswith("Section 6.2")
        assert payload["records"], "sweep records must be exported"
        statuses = {r["status"] for r in payload["records"]}
        assert statuses == {"ok"}
        rows = list(csv.DictReader(io.StringIO(csv_out.read_text())))
        assert len(rows) == len(payload["records"])
        assert {"kernel", "gpu", "sparsity", "status", "time_s"} <= set(rows[0])
        out = capsys.readouterr().out
        assert "wrote JSON report" in out
        assert "wrote CSV records" in out

    def test_parallel_json_is_byte_identical_to_serial(self, tmp_path):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        args = ["figure1", "--json"]
        assert main(args + [str(serial_out)]) == 0
        assert main(args + [str(parallel_out), "--jobs", "2"]) == 0
        assert serial_out.read_bytes() == parallel_out.read_bytes()

    def test_cache_dir_reports_hits_on_second_run(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["headline", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0% hit rate" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "100% hit rate" in second
        assert "0 misses" in second

    def test_runner_flags_warn_for_non_sweep_experiments(self, capsys):
        assert main(["analysis", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "--jobs/--cache-dir only apply" in captured.err

    def test_scale_flags_warn_for_non_accuracy_experiments(self, capsys):
        assert main(["analysis", "--tiny"]) == 0
        captured = capsys.readouterr()
        assert "--full/--tiny only apply" in captured.err
        assert "table1" in captured.err

    def test_full_and_tiny_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--full", "--tiny"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_pattern_search_warns_on_tiny(self, capsys):
        # pattern-search accepts --full but has no tiny scale; the flag must
        # warn rather than be silently dropped.  A bogus extra kwarg-free
        # run would take minutes, so only the argument handling is checked
        # by pointing the grid at nothing via a monkeypatched experiment.
        import repro.eval.__main__ as cli

        seen = {}

        def fake_run(name, **kwargs):
            seen.update(kwargs, experiment=name)
            from repro.eval.report import Report

            return Report("stub")

        original = cli.run_experiment
        cli.run_experiment = fake_run
        try:
            assert main(["pattern-search", "--tiny"]) == 0
        finally:
            cli.run_experiment = original
        assert seen["experiment"] == "pattern-search"
        assert seen["quick"] is True and "tiny" not in seen
        assert "--tiny ignored" in capsys.readouterr().err


class TestCacheCli:
    """The maintenance surface: python -m repro.eval cache {stats,gc}."""

    @staticmethod
    def seed(cache_dir):
        from repro.eval.runner import MODEL_VERSION
        from repro.eval.store import BlobStore

        cache_dir.mkdir(parents=True, exist_ok=True)
        current = BlobStore(cache_dir / "sweep-cache.blobs", salt=MODEL_VERSION)
        current.put("ab" + "0" * 14, {"value": 1})
        current.flush()
        stale = BlobStore(cache_dir / "sweep-cache.blobs", salt="timing-v0")
        stale.put("cd" + "1" * 14, {"value": 2})
        stale.flush()
        accuracy = BlobStore(cache_dir / "accuracy-cache.blobs", salt=MODEL_VERSION)
        accuracy.put("ef" + "2" * 14, {"value": 3})
        accuracy.flush()

    def test_missing_cache_dir_is_an_error(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_stats_reports_every_family(self, tmp_path, capsys):
        self.seed(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep-cache: 2 blobs" in out
        assert "accuracy-cache: 1 blobs" in out
        assert out.strip().splitlines()[-1].startswith("total: 3 blobs, ")

    def test_stats_json_is_structured(self, tmp_path, capsys):
        self.seed(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        families = {f["name"]: f for f in json.loads(capsys.readouterr().out)}
        assert families["sweep-cache"]["blobs"] == 2
        assert set(families["sweep-cache"]["salts"]) == {"timing-v0", "timing-v2"}
        assert families["accuracy-cache"]["blobs"] == 1

    def test_stats_ignores_json_files(self, tmp_path, capsys):
        """A pre-blob ``<name>.json`` cache whose stem names no blob root is
        not a family: stats neither list nor touch it."""
        self.seed(tmp_path)
        stray = tmp_path / "pattern-search-cache.json"
        stray.write_text(json.dumps({"ab" + "3" * 14: {"value": 4}}))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        families = [f["name"] for f in json.loads(capsys.readouterr().out)]
        assert families == ["accuracy-cache", "sweep-cache"]
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "pattern-search-cache" not in capsys.readouterr().out
        assert json.loads(stray.read_text()) == {"ab" + "3" * 14: {"value": 4}}

    def test_gc_defaults_to_current_model_version(self, tmp_path, capsys):
        from repro.eval.runner import MODEL_VERSION
        from repro.eval.store import BlobStore

        self.seed(tmp_path)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "sweep-cache: would remove 1 of 2 blobs" in out
        sweep_line = next(line for line in out.splitlines() if line.startswith("sweep-cache:"))
        assert f"(salts: {MODEL_VERSION})" in sweep_line
        store = BlobStore(tmp_path / "sweep-cache.blobs")
        assert len(store) == 2  # dry run removed nothing
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "sweep-cache: removed 1 of 2 blobs" in capsys.readouterr().out
        assert store.keys() == ["ab" + "0" * 14]

    def test_default_gc_keeps_each_family_salt(self, tmp_path, capsys):
        """Default gc keeps every shipped family's own current salt; an
        accuracy blob left under the timing salt is an orphan and goes."""
        from repro.eval.accuracy import ACCURACY_TASK
        from repro.eval.pattern_search import PATTERN_SEARCH_TASK
        from repro.eval.runner import MODEL_VERSION, TIMING_TASK, SweepRunner
        from repro.eval.store import BlobStore
        from repro.serve.cells import SERVE_TASK
        from repro.tune.planner import TUNING_TASK

        runner = SweepRunner(cache_dir=tmp_path)
        roots = [
            (runner.cell_cache(task).path, task.salt)
            for task in (
                TIMING_TASK, ACCURACY_TASK, PATTERN_SEARCH_TASK, SERVE_TASK, TUNING_TASK
            )
        ]
        for index, (root, salt) in enumerate(roots):
            store = BlobStore(root, salt=salt)
            store.put(f"{index:02x}" + "0" * 14, {"value": index})
            store.flush()
        accuracy_root = roots[1][0]
        orphan = BlobStore(accuracy_root, salt=MODEL_VERSION)
        orphan.put("ff" + "1" * 14, {"value": -1})
        orphan.flush()

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy-cache: removed 1 of 2 blobs" in out
        for index, (root, _) in enumerate(roots):
            assert BlobStore(root).keys() == [f"{index:02x}" + "0" * 14]

    def test_gc_keep_salt_is_repeatable(self, tmp_path, capsys):
        from repro.eval.runner import MODEL_VERSION
        from repro.eval.store import BlobStore

        self.seed(tmp_path)
        args = [
            "cache", "gc", "--cache-dir", str(tmp_path),
            "--keep-salt", MODEL_VERSION, "--keep-salt", "timing-v0",
        ]
        assert main(args) == 0
        assert "removed 0 of 2" in capsys.readouterr().out
        assert len(BlobStore(tmp_path / "sweep-cache.blobs")) == 2


class TestTuneFlags:
    def test_autotune_experiment_smoke(self, capsys):
        assert main(["autotune"]) == 0
        out = capsys.readouterr().out
        assert "Autotuned kernel selection" in out
        assert "per-layer assignments" in out

    def test_autotune_cache_dir_covers_plans(self, tmp_path, capsys):
        """Plans are cells in the experiment's one cache: a warm re-run is
        all hits and writes the cold report's bytes."""
        cache = tmp_path / "cache"
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main(["autotune", "--cache-dir", str(cache), "--json", str(cold)]) == 0
        capsys.readouterr()
        assert main(["autotune", "--cache-dir", str(cache), "--json", str(warm)]) == 0
        assert "(100% hit rate)" in capsys.readouterr().out
        assert cold.read_bytes() == warm.read_bytes()
        from repro.eval.store import BlobStore

        assert len(BlobStore(cache / "tuning-cache.blobs").keys()) == 9

    def test_tune_flag_augments_headline(self, capsys):
        assert main(["headline", "--tune"]) == 0
        assert "autotuned" in capsys.readouterr().out

    def test_tune_flags_warn_for_untunable_experiments(self, capsys):
        assert main(["analysis", "--tune"]) == 0
        captured = capsys.readouterr()
        assert "--tune only applies" in captured.err


class TestReportExports:
    def test_json_is_deterministic(self, capsys):
        from repro.eval.experiments import run_experiment

        a = run_experiment("headline").to_json()
        b = run_experiment("headline").to_json()
        assert a == b

    def test_csv_falls_back_to_tables(self):
        from repro.eval.report import Report, Table

        report = Report("t").add_table(
            Table("numbers", ["a", "b"]).add_row(1, 2).add_row(3, 4)
        )
        rows = report.to_csv().splitlines()
        assert rows[0] == "table,a,b"
        assert rows[1] == "numbers,1,2"


class TestFigure1Regions:
    """Satellite: the region notes are exposed as structured data and the
    three boundaries behave as the paper describes."""

    @pytest.fixture(scope="class")
    def regions(self):
        from repro.eval.experiments import run_experiment

        return run_experiment("figure1").metadata["regions"]

    def test_three_regions_with_paper_thresholds(self, regions):
        assert set(regions) == {"A", "B", "C"}
        assert regions["A"]["paper_threshold_sparsity"] == 0.65
        assert regions["B"]["paper_threshold_sparsity"] == 0.95
        assert regions["C"]["paper_threshold_sparsity"] == 0.90

    def test_region_ordering(self, regions):
        """Region B needs strictly more sparsity than region A (a tensor-core
        dense baseline is harder to beat), and region C — ours — starts well
        below both: the paper's central claim."""
        a = regions["A"]["threshold_sparsity"]
        b = regions["B"]["threshold_sparsity"]
        c = regions["C"]["threshold_sparsity"]
        assert a is not None and b is not None and c is not None
        assert c < a < b

    def test_region_c_well_below_paper_bound(self, regions):
        assert regions["C"]["threshold_sparsity"] < 0.90

    def test_boundaries_lie_on_the_swept_grid(self, regions):
        from repro.eval.speedup import FIGURE1_DENSITIES

        grid = {1 - d for d in FIGURE1_DENSITIES}
        for region in regions.values():
            assert region["threshold_sparsity"] in grid

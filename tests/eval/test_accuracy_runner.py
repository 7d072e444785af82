"""Tests for the accuracy sweep running through the cell-task machinery:
hashable cells, serial == parallel records, persistent caching and
collation."""

from __future__ import annotations

import pytest

from repro.eval.accuracy import (
    ACCURACY_TASK,
    AccuracyCell,
    AccuracyConfig,
    AccuracyRecord,
    PatternSpec,
    accuracy_cells,
    collate_accuracy,
)
from repro.eval.runner import TIMING_TASK, SweepRunner
from repro.eval.store import BlobStore

TINY = AccuracyConfig(quick=True, tiny=True)
SPECS = [
    PatternSpec("VW, V=32", "vectorwise", 32),
    PatternSpec("Shfl-BW, V=32", "shflbw", 32),
]


class TestAccuracyCell:
    def test_label_is_cosmetic(self):
        a = AccuracyCell("transformer", "shflbw", 0.8, vector_size=8, label="A")
        b = AccuracyCell("transformer", "shflbw", 0.8, vector_size=8, label="B")
        assert a == b
        assert a.config_hash() == b.config_hash()

    def test_hash_covers_training_scale(self):
        base = AccuracyCell("transformer", "shflbw", 0.8, vector_size=8)
        assert base.config_hash() != AccuracyCell(
            "transformer", "shflbw", 0.8, vector_size=8, tiny=True
        ).config_hash()
        assert base.config_hash() != AccuracyCell(
            "transformer", "shflbw", 0.8, vector_size=8, seed=1
        ).config_hash()
        assert base.config_hash() != AccuracyCell(
            "transformer", "shflbw", 0.8, vector_size=16
        ).config_hash()

    def test_round_trips_through_dict(self):
        cell = AccuracyCell("gnmt", "vectorwise", 0.9, vector_size=8, tiny=True, seed=3)
        assert AccuracyCell.from_dict(cell.to_dict()) == cell

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            AccuracyCell("gnmt", "vectorwise", 1.0)

    def test_grid_expansion_is_model_major(self):
        cells = accuracy_cells(("a", "b"), (0.8, 0.9), SPECS, TINY)
        assert [c.model for c in cells[:4]] == ["a"] * 4
        assert len(cells) == 8
        assert cells[0].sparsity == 0.8 and cells[1].sparsity == 0.9
        # Scale flags propagate from the config.
        assert all(c.tiny for c in cells)


class TestExecution:
    @pytest.fixture(scope="class")
    def serial_records(self):
        cells = accuracy_cells(("transformer",), (0.8,), SPECS, TINY)
        return SweepRunner().run_cells(cells, ACCURACY_TASK).records

    def test_records_are_ok(self, serial_records):
        assert [r.status for r in serial_records] == ["ok", "ok"]
        assert all(r.metric_name == "BLEU" for r in serial_records)
        # Both cells fine-tune from the same dense proxy.
        assert len({r.dense_metric for r in serial_records}) == 1

    def test_parallel_records_identical(self, serial_records):
        cells = accuracy_cells(("transformer",), (0.8,), SPECS, TINY)
        parallel = SweepRunner(jobs=2).run_cells(cells, ACCURACY_TASK).records
        assert parallel == serial_records

    def test_accuracy_task_uses_contiguous_chunking(self):
        # Contiguous chunks keep each worker on as few models as possible so
        # the per-process dense-proxy memo is not retrained jobs x models
        # times; the chunking itself must still cover every cell in order.
        from repro.eval.runner import contiguous_process_map

        assert ACCURACY_TASK.chunking == "contiguous"
        # `list` is a picklable identity executor: records == configs, so
        # chunking + reassembly must reproduce the input order exactly.
        out = contiguous_process_map(list, list(range(7)), jobs=3)
        assert out == list(range(7))

    def test_buffer_snapshot_covers_module_rngs(self):
        # Modules holding a random generator (dropout) must have its state
        # restored alongside the batch-norm buffers, or cells would consume
        # each other's rng draws once a proxy enables dropout.
        import numpy as np

        from repro.eval.accuracy import _buffer_state, _restore_buffers
        from repro.models.transformer import TransformerConfig, TransformerProxy

        model = TransformerProxy(TransformerConfig(vocab_size=50, seed=0))
        rng_modules = [
            m for m in model.modules() if isinstance(getattr(m, "_rng", None), np.random.Generator)
        ]
        assert rng_modules, "transformer proxy should hold attention rngs"
        snapshot = _buffer_state(model)
        before = rng_modules[0]._rng.bit_generator.state
        rng_modules[0]._rng.random(100)  # advance the generator
        assert rng_modules[0]._rng.bit_generator.state != before
        _restore_buffers(snapshot)
        assert rng_modules[0]._rng.bit_generator.state == before

    def test_cache_round_trip(self, serial_records, tmp_path):
        cells = accuracy_cells(("transformer",), (0.8,), SPECS, TINY)
        runner = SweepRunner(cache_dir=tmp_path)
        cold = runner.run_cells(cells, ACCURACY_TASK)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        assert cold.records == serial_records
        # A fresh runner over the same directory serves everything warm.
        warm = SweepRunner(cache_dir=tmp_path).run_cells(cells, ACCURACY_TASK)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert warm.records == serial_records

    def test_accuracy_cache_store_is_separate(self, tmp_path):
        cells = accuracy_cells(("transformer",), (0.8,), SPECS[:1], TINY)
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run_cells(cells, ACCURACY_TASK)
        root = runner.cell_cache(ACCURACY_TASK).path
        assert root.is_dir()
        assert not runner.cell_cache(TIMING_TASK).path.exists()
        store = BlobStore(root)
        (key,) = store.keys()
        entry = store.get(key)
        assert entry["status"] == "ok"
        assert entry["config"]["model"] == "transformer"

    def test_cells_are_order_independent(self):
        # Fine-tuning mutates batch-norm running stats; without restoring
        # them alongside the dense weights, a cell's metric depended on
        # which cells ran before it in the same process (and the ResNet
        # rows of a serial sweep disagreed with a parallel one).
        cells = accuracy_cells(("resnet50",), (0.8,), SPECS, TINY)
        forward = ACCURACY_TASK.execute(cells)
        backward = ACCURACY_TASK.execute(list(reversed(cells)))
        assert forward == list(reversed(backward))
        assert all(r.metric_name.startswith("Top-1") for r in forward)
        assert all(0.0 <= r.metric <= 100.0 for r in forward)

    def test_duplicate_cells_computed_once(self, serial_records):
        cells = accuracy_cells(("transformer",), (0.8,), SPECS[:1], TINY)
        runner = SweepRunner()
        result = runner.run_cells(cells + cells, ACCURACY_TASK)
        assert runner.stats.misses == 1
        assert result.records[0] == result.records[1]


class TestCollation:
    def test_collate_groups_by_model_and_label(self):
        cells = accuracy_cells(("transformer",), (0.8,), SPECS, TINY)
        records = [
            AccuracyRecord(c, "ok", metric=0.5 + i, metric_name="BLEU", dense_metric=1.0)
            for i, c in enumerate(cells)
        ]
        out = collate_accuracy(records)
        result = out["transformer"]
        assert result.metric_name == "BLEU"
        assert result.metric("VW, V=32", 0.8) == 0.5
        assert result.metric("Shfl-BW, V=32", 0.8) == 1.5

    def test_not_applicable_reads_as_missing_metric(self):
        cell = AccuracyCell("transformer", "shflbw", 0.8, vector_size=8, label="X")
        records = [
            AccuracyRecord(
                cell, "not-applicable", metric_name="BLEU", dense_metric=1.0, detail="nope"
            )
        ]
        result = collate_accuracy(records)["transformer"]
        assert result.metric("X", 0.8) is None
        assert result.dense_metric == 1.0


class TestAccuracyExperiments:
    def test_run_table1_report_and_records(self, tmp_path):
        from repro.eval.experiments import run_experiment
        from repro.eval.runner import SweepRunner

        runner = SweepRunner(cache_dir=tmp_path)
        report = run_experiment(
            "table1",
            tiny=True,
            models=("transformer",),
            sparsities=(0.8,),
            specs=SPECS,
            runner=runner,
        )
        text = report.to_text()
        assert "Table 1" in text and "transformer" in text
        assert len(report.records) == len(SPECS)
        assert {r["status"] for r in report.records} == {"ok"}
        assert runner.stats.misses == len(SPECS)

    def test_run_table1_rejects_unknown_kwargs(self):
        from repro.eval.experiments import run_table1

        with pytest.raises(TypeError, match="unexpected"):
            run_table1(tiny=True, nonsense=1)

    def test_run_figure2_tiny(self):
        from repro.eval.experiments import run_experiment

        report = run_experiment(
            "figure2",
            tiny=True,
            sparsities=(0.8,),
            specs=[PatternSpec("Shfl-BW, V=32", "shflbw", 32)],
        )
        text = report.to_text()
        assert "Figure 2" in text and "Shfl-BW" in text
        (table,) = report.tables
        (row,) = table.rows
        assert 0.0 <= row[2] <= 100.0  # the proxy BLEU column


    def test_figure2_timing_cells_share_the_sweep_store(self, tmp_path):
        from repro.eval.tradeoff import figure2_spec, figure2_sweep

        grid = dict(sparsities=(0.8,), config=TINY, specs=SPECS)
        cold = figure2_sweep(runner=SweepRunner(cache_dir=tmp_path), **grid)
        warm_runner = SweepRunner(cache_dir=tmp_path)
        warm = figure2_sweep(runner=warm_runner, **grid)
        assert warm == cold
        # Both families are cached: the dense baseline plus one cell per
        # pattern in the timing store, one per pattern in the accuracy one.
        timing_cells = len(figure2_spec("V100", (0.8,), SPECS).expand())
        assert timing_cells == len(SPECS) + 1
        assert (warm_runner.stats.hits, warm_runner.stats.misses) == (
            timing_cells + len(SPECS),
            0,
        )
        blobs = BlobStore(warm_runner.cell_cache(TIMING_TASK).path).keys()
        assert len(blobs) == timing_cells


class TestProtocolAPI:
    def test_table1_sweep_through_runner_matches_direct(self, tmp_path):
        from repro.eval.experiments import run_table1

        grid = dict(tiny=True, models=("transformer",), sparsities=(0.8,), specs=SPECS)
        direct = run_table1(**grid)
        runner = SweepRunner(cache_dir=tmp_path)
        cached = run_table1(runner=runner, **grid)
        assert cached.records == direct.records
        assert runner.stats.misses == 2
        # Warm re-run: identical records, all hits.
        warm = run_table1(runner=runner, **grid)
        assert warm.records == direct.records
        assert runner.stats.hits == 2

    def test_evaluate_model_accuracy_keeps_seed_contract(self):
        cells = accuracy_cells(("transformer",), (0.8,), SPECS, TINY)
        records = SweepRunner().run_cells(cells, ACCURACY_TASK).records
        result = collate_accuracy(records)["transformer"]
        assert result.metric_name == "BLEU"
        assert {label for (label, _) in result.results} == {spec.label for spec in SPECS}
        assert all(0.0 <= v <= 100.0 for v in result.results.values())
        # Pruning at 80 % does not beat the dense proxy beyond noise.
        assert all(v <= result.dense_metric + 15.0 for v in result.results.values())

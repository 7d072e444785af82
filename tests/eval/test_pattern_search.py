"""Tests for the pattern-search experiment on real layer shapes: cells,
execution, collation, caching and the report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import pattern_search
from repro.eval.experiments import run_experiment
from repro.eval.pattern_search import (
    PATTERN_SEARCH_TASK,
    PatternSearchCell,
    PatternSearchRecord,
    collate_pattern_search,
    execute_pattern_search_cell,
    layer_scores,
    pattern_search_cells,
)
from repro.eval.runner import SweepRunner
from repro.eval.store import BlobStore

# The smallest real layer: transformer attn_out is 1024 x 1024, which at
# V=256 clusters into just 4 groups — fast enough for unit tests.
FAST_CELL = dict(
    model="transformer", layer="attn_out", vector_size=256, sparsity=0.8, kmeans_iters=1
)


class TestCells:
    def test_hash_is_stable_and_label_cosmetic(self):
        a = PatternSearchCell(**FAST_CELL, label="A")
        b = PatternSearchCell(**FAST_CELL, label="B")
        assert a == b
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != PatternSearchCell(
            **{**FAST_CELL, "kmeans_iters": 2}
        ).config_hash()

    def test_grid_covers_every_layer(self):
        cells = pattern_search_cells(("transformer",), (64,), (0.8,), kmeans_iters=1)
        assert {c.layer for c in cells} == {"attn_qkv", "attn_out", "ffn1", "ffn2"}
        assert all(c.model == "transformer" for c in cells)

    def test_invalid_cells_rejected(self):
        with pytest.raises(ValueError):
            PatternSearchCell("gnmt", "proj", vector_size=0, sparsity=0.8)
        with pytest.raises(ValueError):
            PatternSearchCell("gnmt", "proj", vector_size=32, sparsity=1.0)


class TestExecution:
    def test_ok_cell(self):
        record = execute_pattern_search_cell(PatternSearchCell(**FAST_CELL))
        assert record.ok
        assert 0.0 < record.retained_fraction < 1.0
        # Achieved density tracks the requested one up to one column per
        # group worth of rounding.
        assert record.density == pytest.approx(0.2, abs=1.0 / 1024)
        assert record.layer_count == 12

    def test_indivisible_layer_is_not_applicable(self):
        # ResNet conv2_3x3 has 64 output channels; V=128 cannot divide them.
        record = execute_pattern_search_cell(
            PatternSearchCell("resnet50", "conv2_3x3", 128, 0.8, kmeans_iters=1)
        )
        assert record.status == "not-applicable"
        assert "not divisible" in record.detail

    def test_unknown_model_and_layer_raise(self):
        with pytest.raises(ValueError):
            execute_pattern_search_cell(
                PatternSearchCell("nope", "proj", 32, 0.8, kmeans_iters=1)
            )
        with pytest.raises(ValueError):
            execute_pattern_search_cell(
                PatternSearchCell("gnmt", "nope", 32, 0.8, kmeans_iters=1)
            )

    def test_adjacent_cells_of_a_layer_draw_scores_once(self, monkeypatch):
        drawn = []

        def counting_layer_scores(*args):
            drawn.append(args)
            return layer_scores(*args)

        monkeypatch.setattr(pattern_search, "layer_scores", counting_layer_scores)
        monkeypatch.setattr(pattern_search, "_LAST_SCORES", {})
        for sparsity in (0.8, 0.9):
            execute_pattern_search_cell(
                PatternSearchCell(**{**FAST_CELL, "sparsity": sparsity})
            )
        assert drawn == [("transformer", "attn_out", 1024, 1024, 0)]

    def test_memo_holds_one_read_only_matrix(self, monkeypatch):
        memo: dict = {}
        monkeypatch.setattr(pattern_search, "_LAST_SCORES", memo)
        execute_pattern_search_cell(PatternSearchCell(**FAST_CELL))
        execute_pattern_search_cell(
            PatternSearchCell(**{**FAST_CELL, "model": "gnmt", "layer": "attention"})
        )
        assert list(memo) == [("gnmt", "attention", 1024, 2048, 0)]
        (scores,) = memo.values()
        assert not scores.flags.writeable
        np.testing.assert_array_equal(scores, layer_scores("gnmt", "attention", 1024, 2048, 0))

    def test_scores_are_deterministic_and_nonnegative(self):
        a = layer_scores("gnmt", "proj", 8, 4, seed=0)
        b = layer_scores("gnmt", "proj", 8, 4, seed=0)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0)
        assert not np.array_equal(a, layer_scores("gnmt", "proj", 8, 4, seed=1))
        assert not np.array_equal(a, layer_scores("gnmt", "attention", 8, 4, seed=0))


class TestSweepAndCache:
    @pytest.fixture(scope="class")
    def cells(self):
        return [
            PatternSearchCell(**FAST_CELL),
            PatternSearchCell(**{**FAST_CELL, "sparsity": 0.9}),
        ]

    def test_cache_round_trip(self, cells, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        cold = runner.run_cells(cells, PATTERN_SEARCH_TASK)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        root = runner.cell_cache(PATTERN_SEARCH_TASK).path
        assert root.is_dir()
        warm = SweepRunner(cache_dir=tmp_path).run_cells(cells, PATTERN_SEARCH_TASK)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert warm.records == cold.records
        store = BlobStore(root)
        entries = [store.get(key) for key in store.keys()]
        assert len(entries) == 2
        assert all(entry["status"] == "ok" for entry in entries)

    def test_sweep_returns_records_in_grid_order(self, cells):
        grid = pattern_search_cells(("transformer",), (256,), (0.8,), kmeans_iters=1)
        records = SweepRunner().run_cells(grid, PATTERN_SEARCH_TASK).records
        assert [r.config.layer for r in records] == [
            "attn_qkv",
            "attn_out",
            "ffn1",
            "ffn2",
        ]
        assert all(r.ok for r in records)


class TestCollation:
    def _record(self, model, layer, v, sparsity, retained, total, count, ok=True):
        cell = PatternSearchCell(model, layer, v, sparsity, kmeans_iters=1)
        if not ok:
            return PatternSearchRecord(cell, "not-applicable", layer_count=count)
        return PatternSearchRecord(
            cell,
            "ok",
            retained_score=retained,
            total_score=total,
            density=1 - sparsity,
            layer_count=count,
        )

    def test_layers_weighted_by_count(self):
        records = [
            self._record("m", "a", 32, 0.8, retained=1.0, total=2.0, count=1),
            self._record("m", "b", 32, 0.8, retained=0.0, total=2.0, count=3),
        ]
        curves = collate_pattern_search(records)
        # (1*1 + 0*3) / (2*1 + 2*3) = 1/8
        assert curves[("m", 32)][0.8] == pytest.approx(1.0 / 8.0)

    def test_all_not_applicable_reads_as_none(self):
        records = [
            self._record("m", "a", 128, 0.8, 0, 0, count=1, ok=False),
        ]
        curves = collate_pattern_search(records)
        assert curves[("m", 128)][0.8] is None


class TestExperiment:
    def test_report_smoke(self):
        report = run_experiment(
            "pattern-search",
            models=("transformer",),
            vector_sizes=(256,),
            sparsities=(0.8,),
            kmeans_iters=1,
        )
        text = report.to_text()
        assert "retained importance" in text
        assert "transformer" in text
        assert report.records
        assert report.metadata["grid"]["kmeans_iters"] == 1
        fractions = [
            r["retained_fraction"] for r in report.records if r["status"] == "ok"
        ]
        assert fractions and all(0.0 < f < 1.0 for f in fractions)

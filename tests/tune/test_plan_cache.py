"""Persistence, versioning and invalidation of cached tuning plans.

Plans are :data:`~repro.tune.planner.TUNING_TASK` cells: keyed by
:meth:`PlanRequest.config_hash` and stored by the sweep runner's cache.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.eval.runner import MODEL_VERSION, KernelSpec, SweepRunner
from repro.eval.store import BlobStore, CorruptCacheWarning
from repro.models.shapes import transformer_layers
from repro.tune import TUNING_TASK, Autotuner, PlanRequest, default_candidates


def tuning_blobs(cache_dir):
    """The keys of every cached plan."""
    return BlobStore(cache_dir / "tuning-cache.blobs").keys()


def tuning_packs(cache_dir):
    """The plan store's pack files (one per flush)."""
    return sorted((cache_dir / "tuning-cache.blobs").glob("*.json"))


class TestRequestHash:
    def request(self, **overrides) -> PlanRequest:
        base = dict(
            gpu="V100",
            sparsity=0.75,
            layers=transformer_layers(),
            candidates=default_candidates(),
            model="transformer",
        )
        base.update(overrides)
        return PlanRequest(**base)

    def test_stable_across_calls(self):
        assert self.request().config_hash() == self.request().config_hash()

    def test_digest_is_pinned(self):
        """Plan caches written by earlier versions stay warm only while a
        request keeps its digest."""
        digest = self.request(sparsity=0.9).config_hash(salt=TUNING_TASK.salt)
        assert digest == "31628cd74c80d84cb0f23b388b749e26"

    def test_salt_changes_key(self):
        assert self.request().config_hash() != self.request().config_hash(
            salt="timing-v999"
        )

    def test_layer_shapes_participate(self):
        assert self.request().config_hash() != self.request(
            layers=transformer_layers(tokens=512)
        ).config_hash()

    def test_operating_point_participates(self):
        base = self.request().config_hash()
        assert base != self.request(sparsity=0.85).config_hash()
        assert base != self.request(gpu="T4").config_hash()

    def test_candidate_pool_participates(self):
        """Labels count too: a plan records them (assignment labels and its
        candidate list), so a relabelled pool must not read another's plan."""
        smaller = default_candidates()[:3]
        assert self.request().config_hash() != self.request(
            candidates=smaller
        ).config_hash()
        relabelled = tuple(
            dataclasses.replace(spec, label=f"{spec.display_label}*")
            for spec in default_candidates()
        )
        assert self.request().config_hash() != self.request(
            candidates=relabelled
        ).config_hash()

    def test_conv_spec_participates_beyond_the_gemm_shape(self):
        """Two convolutions lowering to the same implicit GEMM (a 3x3 and a
        1x1 with 9x the input channels) must not alias: the unfold overhead
        makes them time differently."""
        from repro.kernels.base import conv_to_gemm_shape
        from repro.models.shapes import LayerShape
        from repro.sparse.spconv import Conv2dSpec

        def conv_layer(cin: int, ksize: int) -> LayerShape:
            spec = Conv2dSpec(
                in_channels=cin,
                out_channels=64,
                kernel_size=ksize,
                stride=1,
                padding=ksize // 2,
            )
            return LayerShape(
                "conv",
                conv_to_gemm_shape(spec, 1, 28, 28),
                kind="conv",
                conv=spec,
                batch=1,
                height=28,
                width=28,
            )

        three_by_three = conv_layer(64, 3)
        one_by_one = conv_layer(64 * 9, 1)
        assert three_by_three.gemm == one_by_one.gemm
        assert self.request(
            layers=[three_by_three], model="resnet50"
        ).config_hash() != self.request(layers=[one_by_one], model="resnet50").config_hash()

    def test_conv_resolution_participates(self):
        from repro.models.shapes import resnet50_layers

        default = resnet50_layers()
        bigger = resnet50_layers(batch=64)
        assert self.request(
            layers=default, model="resnet50"
        ).config_hash() != self.request(layers=bigger, model="resnet50").config_hash()


class TestPlanCacheRoundTrip:
    def test_round_trip_identical_plan(self, tmp_path):
        first = SweepRunner(cache_dir=tmp_path)
        plan = Autotuner(runner=first).plan("transformer", "V100", 0.75)
        assert (first.stats.hits, first.stats.misses) == (0, 1)
        assert len(tuning_blobs(tmp_path)) == 1

        second = SweepRunner(cache_dir=tmp_path)
        cached = Autotuner(runner=second).plan("transformer", "V100", 0.75)
        assert (second.stats.hits, second.stats.misses) == (1, 0)
        assert cached == plan

    def test_same_tuner_hits_its_own_cache(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        tuner = Autotuner(runner=runner)
        tuner.plan("gnmt", "T4", 0.85)
        tuner.plan("gnmt", "T4", 0.85)
        assert (runner.stats.hits, runner.stats.misses) == (1, 1)

    def test_cache_blobs_are_debuggable_json(self, tmp_path):
        Autotuner(runner=SweepRunner(cache_dir=tmp_path)).plan("transformer", "A100", 0.5)
        (pack,) = tuning_packs(tmp_path)
        data = json.loads(pack.read_text())
        assert list(data["entries"]) == tuning_blobs(tmp_path)
        assert data["salt"] == MODEL_VERSION
        (entry,) = data["entries"].values()
        assert entry["config"]["model"] == "transformer"
        assert entry["plan"]["salt"] == MODEL_VERSION
        assert entry["plan"]["model"] == "transformer"
        assert entry["plan"]["assignments"]

    def test_relabelled_pool_gets_its_own_labels(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        labels = []
        for label in ("Dense A", "Dense B"):
            tuner = Autotuner(candidates=(KernelSpec("dense", label=label),), runner=runner)
            plan = tuner.plan_gemm((256, 32, 256), "V100", 0.5)
            labels.append((plan.assignments[0].label, plan.candidates))
        assert labels == [("Dense A", ("Dense A",)), ("Dense B", ("Dense B",))]

    def test_distinct_operating_points_do_not_alias(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        tuner = Autotuner(runner=runner)
        a = tuner.plan("transformer", "V100", 0.75)
        b = tuner.plan("transformer", "V100", 0.85)
        assert runner.stats.misses == 2
        assert a.sparsity != b.sparsity


class TestModelVersionInvalidation:
    def test_salt_bump_reads_as_cold_cache(self, tmp_path):
        request = PlanRequest(
            "V100", 0.75, transformer_layers(), default_candidates(), model="transformer"
        )
        SweepRunner(cache_dir=tmp_path).run_cells([request], TUNING_TASK)
        bumped = SweepRunner(cache_dir=tmp_path)
        bumped.run_cells(
            [request], dataclasses.replace(TUNING_TASK, salt=MODEL_VERSION + "-bumped")
        )
        assert (bumped.stats.hits, bumped.stats.misses) == (0, 1)
        # Both generations coexist in the store under different keys.
        assert len(tuning_blobs(tmp_path)) == 2

    def test_corrupt_blob_reads_as_miss(self, tmp_path):
        plan = Autotuner(runner=SweepRunner(cache_dir=tmp_path)).plan(
            "transformer", "V100", 0.75
        )
        (pack,) = tuning_packs(tmp_path)
        pack.write_text("{not json")
        runner = SweepRunner(cache_dir=tmp_path)
        with pytest.warns(CorruptCacheWarning):
            assert Autotuner(runner=runner).plan("transformer", "V100", 0.75) == plan
        assert runner.stats.misses == 1
        # The slot was recomputed and holds a readable plan again.
        warm = SweepRunner(cache_dir=tmp_path)
        assert Autotuner(runner=warm).plan("transformer", "V100", 0.75) == plan
        assert warm.stats.hits == 1

    def test_malformed_entry_reads_as_miss(self):
        request = PlanRequest("V100", 0.75, transformer_layers(), default_candidates(),
                              model="transformer")
        assert TUNING_TASK.decode(request, {"nope": 1}) is None
        assert TUNING_TASK.decode(request, {"plan": {"model": "transformer"}}) is None

"""Persistence, versioning and invalidation of the tuning-plan cache."""

from __future__ import annotations

import json

import pytest

from repro.eval.runner import MODEL_VERSION
from repro.eval.store import BlobStore, CorruptCacheWarning, blob_root_for
from repro.models.shapes import transformer_layers
from repro.tune import (
    PLAN_FILENAME,
    Autotuner,
    PlanCache,
    default_candidates,
    plan_request_hash,
)


class TestRequestHash:
    def kwargs(self, **overrides):
        base = dict(
            gpu="V100",
            sparsity=0.75,
            layers=transformer_layers(),
            candidates=default_candidates(),
            mode="model",
            refiner=None,
            model="transformer",
        )
        base.update(overrides)
        return base

    def test_stable_across_calls(self):
        assert plan_request_hash(**self.kwargs()) == plan_request_hash(**self.kwargs())

    def test_digest_is_pinned(self):
        """Plan caches written by earlier versions stay warm only while a
        request keeps its digest."""
        digest = plan_request_hash(**self.kwargs(sparsity=0.9))
        assert digest == "0226301bbf9345b0e9c8368593b1dabc"

    def test_salt_changes_key(self):
        assert plan_request_hash(**self.kwargs()) != plan_request_hash(
            **self.kwargs(), salt="timing-v999"
        )

    def test_layer_shapes_participate(self):
        assert plan_request_hash(**self.kwargs()) != plan_request_hash(
            **self.kwargs(layers=transformer_layers(tokens=512))
        )

    def test_operating_point_participates(self):
        base = plan_request_hash(**self.kwargs())
        assert base != plan_request_hash(**self.kwargs(sparsity=0.85))
        assert base != plan_request_hash(**self.kwargs(gpu="T4"))

    def test_candidate_pool_participates(self):
        smaller = default_candidates()[:3]
        assert plan_request_hash(**self.kwargs()) != plan_request_hash(
            **self.kwargs(candidates=smaller)
        )

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
        assert plan_request_hash(
            **self.kwargs(layers=[three_by_three], model="resnet50")
        ) != plan_request_hash(**self.kwargs(layers=[one_by_one], model="resnet50"))

    def test_conv_resolution_participates(self):
        from repro.models.shapes import resnet50_layers

        default = resnet50_layers()
        bigger = resnet50_layers(batch=64)
        assert plan_request_hash(
            **self.kwargs(layers=default, model="resnet50")
        ) != plan_request_hash(**self.kwargs(layers=bigger, model="resnet50"))


class TestPlanCacheRoundTrip:
    def test_round_trip_identical_plan(self, tmp_path):
        first = Autotuner(cache_dir=tmp_path)
        plan = first.plan("transformer", "V100", 0.75)
        assert first.stats.misses == 1 and first.stats.hits == 0
        assert blob_root_for(tmp_path / PLAN_FILENAME).is_dir()

        second = Autotuner(cache_dir=tmp_path)
        cached = second.plan("transformer", "V100", 0.75)
        assert second.stats.hits == 1 and second.stats.misses == 0
        assert cached == plan

    def test_same_tuner_hits_its_own_cache(self, tmp_path):
        tuner = Autotuner(cache_dir=tmp_path)
        tuner.plan("gnmt", "T4", 0.85)
        tuner.plan("gnmt", "T4", 0.85)
        assert (tuner.stats.hits, tuner.stats.misses) == (1, 1)

    def test_cache_blobs_are_debuggable_json(self, tmp_path):
        Autotuner(cache_dir=tmp_path).plan("transformer", "A100", 0.5)
        (blob,) = blob_root_for(tmp_path / PLAN_FILENAME).glob("*/*.json")
        envelope = json.loads(blob.read_text())
        assert envelope["key"] == blob.name.removesuffix(".json")
        entry = envelope["entry"]
        assert entry["plan"]["salt"] == MODEL_VERSION
        assert entry["plan"]["model"] == "transformer"
        assert entry["plan"]["assignments"]

    def test_distinct_operating_points_do_not_alias(self, tmp_path):
        tuner = Autotuner(cache_dir=tmp_path)
        a = tuner.plan("transformer", "V100", 0.75)
        b = tuner.plan("transformer", "V100", 0.85)
        assert tuner.stats.misses == 2
        assert a.sparsity != b.sparsity


class TestModelVersionInvalidation:
    def test_salt_bump_reads_as_cold_cache(self, tmp_path):
        Autotuner(cache_dir=tmp_path).plan("transformer", "V100", 0.75)
        bumped = Autotuner(cache_dir=tmp_path, salt=MODEL_VERSION + "-bumped")
        bumped.plan("transformer", "V100", 0.75)
        assert (bumped.stats.hits, bumped.stats.misses) == (0, 1)
        # Both generations coexist in the store under different keys.
        blobs = list(blob_root_for(tmp_path / PLAN_FILENAME).glob("*/*.json"))
        assert len(blobs) == 2

    def test_entry_salt_is_checked_on_read(self, tmp_path):
        """Even a hand-edited blob cannot serve a stale-version plan."""
        tuner = Autotuner(cache_dir=tmp_path)
        tuner.plan("transformer", "V100", 0.75)
        (blob,) = blob_root_for(tmp_path / PLAN_FILENAME).glob("*/*.json")
        key = blob.name.removesuffix(".json")
        stale = PlanCache(tmp_path, salt="some-other-version")
        assert stale.get(key) is None

    def test_corrupt_blob_reads_as_miss(self, tmp_path):
        plan = Autotuner(cache_dir=tmp_path).plan("transformer", "V100", 0.75)
        (blob,) = blob_root_for(tmp_path / PLAN_FILENAME).glob("*/*.json")
        blob.write_text("{not json")
        tuner = Autotuner(cache_dir=tmp_path)
        with pytest.warns(CorruptCacheWarning):
            assert tuner.plan("transformer", "V100", 0.75) == plan
        assert tuner.stats.misses == 1
        # The slot was recomputed and holds a readable plan again.
        assert PlanCache(tmp_path).get(blob.name.removesuffix(".json")) == plan

    def test_malformed_entry_reads_as_miss(self, tmp_path):
        store = BlobStore(blob_root_for(tmp_path / PLAN_FILENAME), salt=MODEL_VERSION)
        planless, undecodable = "ab" + "0" * 30, "cd" + "1" * 30
        store.put(planless, {"nope": 1})
        store.put(undecodable, {"plan": {"model": "transformer"}})
        store.flush()
        cache = PlanCache(tmp_path)
        assert cache.get(planless) is None
        assert cache.get(undecodable) is None
        assert cache.get("missing") is None

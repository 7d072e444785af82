"""Tests for the software-pipeline / metadata-prefetch model."""

import numpy as np
import pytest

from repro.gpu.pipeline import PipelineBatch, pipeline_time_grid


def pipeline_time(
    *,
    compute_time: float,
    load_time: float,
    meta_time: float = 0.0,
    k_steps: int = 1,
    pipeline_stages: int = 2,
    meta_prefetch_steps: int = 4,
    prefetch_metadata: bool = True,
) -> PipelineBatch:
    """The pipeline model for one launch."""
    return pipeline_time_grid(
        compute_time=np.array([compute_time]),
        load_time=np.array([load_time]),
        meta_time=np.array([meta_time]),
        k_steps=np.array([k_steps]),
        pipeline_stages=np.array([pipeline_stages]),
        meta_prefetch_steps=np.array([meta_prefetch_steps]),
        prefetch_metadata=np.array([prefetch_metadata]),
    )


class TestPipelineSpec:
    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            pipeline_time(compute_time=-1.0, load_time=1.0)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            pipeline_time(compute_time=1.0, load_time=1.0, k_steps=0)
        with pytest.raises(ValueError):
            pipeline_time(compute_time=1.0, load_time=1.0, pipeline_stages=0)
        with pytest.raises(ValueError):
            pipeline_time(compute_time=1.0, load_time=1.0, meta_prefetch_steps=0)


class TestOverlap:
    def test_pipelined_loop_is_max_of_streams(self):
        est = pipeline_time(compute_time=2.0, load_time=1.0, k_steps=10, pipeline_stages=2)
        assert est.steady_state_time[0] == pytest.approx(20.0)
        assert est.bound[0] == "compute"

    def test_memory_bound_when_loads_dominate(self):
        est = pipeline_time(compute_time=1.0, load_time=3.0, k_steps=10, pipeline_stages=2)
        assert est.bound[0] == "memory"
        assert est.steady_state_time[0] == pytest.approx(30.0)

    def test_single_stage_serialises(self):
        est = pipeline_time(compute_time=1.0, load_time=1.0, k_steps=10, pipeline_stages=1)
        assert est.bound[0] == "serial"
        assert est.steady_state_time[0] == pytest.approx(20.0)

    def test_prologue_grows_with_stages(self):
        short = pipeline_time(compute_time=1.0, load_time=1.0, k_steps=10, pipeline_stages=2)
        deep = pipeline_time(compute_time=1.0, load_time=1.0, k_steps=10, pipeline_stages=4)
        assert deep.prologue_time[0] > short.prologue_time[0]

    def test_overlap_efficiency_bounded(self):
        est = pipeline_time(compute_time=1.0, load_time=1.0, k_steps=5, pipeline_stages=3)
        assert 0.0 < est.steady_state_time[0] / est.total_time[0] <= 1.0


class TestMetadataPrefetch:
    SPEC = dict(
        compute_time=2.0,
        load_time=1.5,
        meta_time=1.0,
        k_steps=20,
        pipeline_stages=3,
        meta_prefetch_steps=4,
    )

    def test_prefetching_hides_metadata_latency(self):
        with_prefetch = pipeline_time(**self.SPEC, prefetch_metadata=True)
        without = pipeline_time(**self.SPEC, prefetch_metadata=False)
        assert with_prefetch.total_time[0] < without.total_time[0]

    def test_no_benefit_when_metadata_free(self):
        spec = dict(compute_time=2.0, load_time=1.0, meta_time=0.0, k_steps=10)
        assert pipeline_time(**spec, prefetch_metadata=True).total_time[0] == pytest.approx(
            pipeline_time(**spec, prefetch_metadata=False).total_time[0]
        )

"""Tests for the batched simulator's launch and traffic containers.

``LaunchBatch`` validates its per-launch fields on construction, and
concatenating batches — what the sweep executor does to time every kernel
group of a GPU in one ``simulate_batch`` call — must not change any
launch's numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.arch import available_gpus, get_gpu
from repro.gpu.memory import TrafficBatch
from repro.gpu.pipeline import pipeline_time_grid
from repro.gpu.simulator import ComputeUnit, LaunchBatch, simulate_batch

SETTINGS = dict(max_examples=60, deadline=None)

gpus = st.sampled_from(sorted(available_gpus()))
units = st.sampled_from(list(ComputeUnit))
efficiencies = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def traffic_batches(draw, min_operands=0, max_operands=4):
    traffic = TrafficBatch(1)
    for index in range(draw(st.integers(min_operands, max_operands))):
        traffic.add(
            f"op{index}",
            draw(st.floats(min_value=0.0, max_value=1e9)),
            reads=draw(st.floats(min_value=0.0, max_value=40.0)),
            access_efficiency=draw(st.floats(min_value=0.05, max_value=1.0)),
            is_write=draw(st.booleans()),
        )
    return traffic


@st.composite
def launches(draw):
    """One random launch as a batch of one."""
    return LaunchBatch(
        names=[draw(st.sampled_from(["a", "b", "c"]))],
        useful_flops=np.array([draw(st.floats(min_value=0.0, max_value=1e13))]),
        traffic=draw(traffic_batches()),
        meta_traffic=draw(traffic_batches(max_operands=2)),
        tile_m=draw(st.integers(1, 256)),
        tile_n=draw(st.integers(1, 256)),
        tile_k=draw(st.integers(1, 128)),
        threads=32 * draw(st.integers(1, 8)),
        pipeline_stages=draw(st.integers(1, 4)),
        num_tiles=draw(st.integers(1, 20000)),
        k_steps=draw(st.integers(1, 512)),
        compute_unit=draw(units),
        compute_efficiency=draw(efficiencies),
        bandwidth_efficiency=draw(efficiencies),
        prefetch_metadata=draw(st.booleans()),
        meta_prefetch_steps=draw(st.integers(1, 8)),
        extra_overhead_s=draw(st.floats(min_value=0.0, max_value=1e-3)),
        launches=draw(st.integers(1, 8)),
    )


class TestLaunchBatchConcat:
    @settings(**SETTINGS)
    @given(batch=st.lists(launches(), min_size=2, max_size=6), gpu=gpus)
    def test_concat_is_transparent(self, batch, gpu):
        """Merging batches cannot change any launch's numbers."""
        arch = get_gpu(gpu)
        merged = simulate_batch(arch, LaunchBatch.concat(batch))
        assert len(merged) == len(batch)
        for index, launch in enumerate(batch):
            assert merged.timing(index) == simulate_batch(arch, launch).timing(0)


class TestLaunchBatchValidation:
    def _minimal(self, **overrides):
        fields = dict(
            names=["k"],
            useful_flops=np.array([1.0]),
            traffic=TrafficBatch(1),
            tile_m=np.array([16]),
            tile_n=np.array([16]),
            tile_k=np.array([16]),
            num_tiles=np.array([1]),
            k_steps=np.array([1]),
        )
        fields.update(overrides)
        return LaunchBatch(**fields)

    def test_minimal_batch_simulates(self):
        timing = simulate_batch(get_gpu("V100"), self._minimal())
        assert len(timing) == 1 and timing.total_time_s[0] > 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"useful_flops": np.array([-1.0])},
            {"num_tiles": np.array([0])},
            {"k_steps": np.array([0])},
            {"launches": np.array([0])},
            {"compute_efficiency": np.array([0.0])},
            {"bandwidth_efficiency": np.array([1.5])},
            {"tile_m": np.array([0])},
        ],
    )
    def test_field_ranges_enforced(self, overrides):
        with pytest.raises(ValueError):
            self._minimal(**overrides)

    def test_name_count_checked(self):
        with pytest.raises(ValueError):
            self._minimal(names=["a", "b"])

    def test_scalar_useful_flops_rejected_with_clear_message(self):
        with pytest.raises(ValueError, match="one entry per launch"):
            self._minimal(useful_flops=1.0e9)

    def test_traffic_size_checked(self):
        with pytest.raises(ValueError):
            self._minimal(traffic=TrafficBatch(3))

    def test_unknown_compute_unit_code_rejected(self):
        with pytest.raises(ValueError):
            self._minimal(compute_unit=np.array([7], dtype=np.int8))

    def test_empty_concat_rejected(self):
        with pytest.raises(ValueError):
            LaunchBatch.concat([])


class TestTrafficBatch:
    def test_add_validates(self):
        batch = TrafficBatch(2)
        with pytest.raises(ValueError, match="negative bytes"):
            batch.add("w", np.array([-1.0, 0.0]))
        with pytest.raises(ValueError, match="negative read"):
            batch.add("w", 1.0, reads=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="access efficiency"):
            batch.add("w", 1.0, access_efficiency=0.0)
        with pytest.raises(ValueError, match="length-2"):
            batch.add("w", np.array([1.0, 2.0, 3.0]))

    def test_bandwidth_efficiency_validated(self):
        batch = TrafficBatch(1).add("w", 8.0)
        with pytest.raises(ValueError):
            batch.dram_time(get_gpu("V100"), bandwidth_efficiency=0.0)


class TestPipelineGridValidation:
    def test_invalid_streams_rejected(self):
        with pytest.raises(ValueError):
            pipeline_time_grid(
                compute_time=np.array([-1.0]),
                load_time=np.array([0.0]),
                meta_time=np.array([0.0]),
                k_steps=np.array([1]),
                pipeline_stages=np.array([2]),
                meta_prefetch_steps=np.array([4]),
                prefetch_metadata=np.array([True]),
            )

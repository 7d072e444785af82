"""Tests for the tensor-core / CUDA-core compute model."""

import numpy as np
import pytest

from repro.gpu.arch import A100, V100, MMAShape
from repro.gpu.memory import TrafficBatch
from repro.gpu.simulator import ComputeUnit, LaunchBatch, simulate_batch
from repro.gpu.tensorcore import (
    ceil_div_array,
    cuda_core_time_grid,
    mma_instructions_grid,
    tensor_core_time_grid,
)


def one(value) -> np.ndarray:
    return np.array([value])


def tensor_time(arch, flops, *, tile, num_tiles, efficiency=1.0):
    tile_m, tile_n, tile_k = tile
    return tensor_core_time_grid(
        arch,
        one(flops),
        tile_m=one(tile_m),
        tile_n=one(tile_n),
        tile_k=one(tile_k),
        num_tiles=one(num_tiles),
        efficiency=one(efficiency),
    )


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div_array(np.array([8]), 4)[0] == 2

    def test_rounds_up(self):
        assert ceil_div_array(np.array([9]), 4)[0] == 3

    def test_invalid_divisor(self):
        with pytest.raises(ValueError):
            ceil_div_array(np.array([1]), 0)


class TestMMACoverage:
    def test_exact_tile_needs_no_padding(self):
        mma = MMAShape(16, 8, 16)
        assert mma_instructions_grid(one(32), one(16), one(32), mma)[0] == 2 * 2 * 2

    def test_ragged_tile_rounds_up(self):
        mma = MMAShape(16, 8, 16)
        assert mma_instructions_grid(one(17), one(9), one(17), mma)[0] == 2 * 2 * 2

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            mma_instructions_grid(one(0), one(8), one(16), MMAShape(16, 8, 16))

    def test_tile_flops_counts_padding(self):
        # A fragment smaller than the granule still issues one whole MMA.
        mma = MMAShape(16, 8, 16)
        assert mma_instructions_grid(one(8), one(8), one(16), mma)[0] * mma.flops == mma.flops


class TestTensorCoreTime:
    def test_time_scales_inversely_with_peak(self):
        t_v100 = tensor_time(V100, 1.0e9, tile=(128, 128, 64), num_tiles=1)
        t_a100 = tensor_time(A100, 1.0e9, tile=(128, 128, 64), num_tiles=1)
        assert t_a100.time_s[0] < t_v100.time_s[0]

    def test_small_tiles_waste_throughput(self):
        # Fragments smaller than the MMA granule still issue whole
        # instructions, so their useful/issued utilisation drops.
        aligned = tensor_time(V100, 2.0 * 16 * 16 * 16 * 1000, tile=(16, 16, 16), num_tiles=1000)
        ragged = tensor_time(V100, 2.0 * 8 * 8 * 8 * 1000, tile=(8, 8, 8), num_tiles=1000)
        assert ragged.utilization[0] < aligned.utilization[0]

    def test_utilization_never_exceeds_one(self):
        est = tensor_time(V100, 1.0e9, tile=(64, 64, 64), num_tiles=10)
        assert 0.0 < est.utilization[0] <= 1.0

    def test_efficiency_bounds_checked(self):
        with pytest.raises(ValueError):
            tensor_time(V100, 1.0, tile=(16, 16, 16), num_tiles=1, efficiency=0.0)


class TestCudaCoreTime:
    def test_slower_than_tensor_core_for_same_work(self):
        tc = tensor_time(V100, 1.0e9, tile=(128, 128, 64), num_tiles=100)
        cc = cuda_core_time_grid(V100, one(1.0e9), efficiency=one(1.0))
        assert cc.time_s[0] > tc.time_s[0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cuda_core_time_grid(V100, one(1.0), efficiency=one(2.0))
        with pytest.raises(ValueError):
            cuda_core_time_grid(V100, one(1.0), efficiency=one(0.0))


def compute_time(arch, unit: ComputeUnit) -> float:
    """Effective compute time of one well-shaped launch on ``unit``."""
    launch = LaunchBatch(
        names=["k"],
        useful_flops=one(1.0e9),
        traffic=TrafficBatch(1),
        tile_m=128,
        tile_n=128,
        tile_k=64,
        num_tiles=100,
        k_steps=8,
        compute_unit=unit,
    )
    return float(simulate_batch(arch, launch).compute_time_s[0])


class TestSparseTensorCore:
    def test_a100_halves_time(self):
        dense = compute_time(A100, ComputeUnit.TENSOR_CORE)
        sparse = compute_time(A100, ComputeUnit.SPARSE_TENSOR_CORE)
        assert sparse == pytest.approx(dense / 2.0)

    def test_no_benefit_without_hardware_support(self):
        dense = compute_time(V100, ComputeUnit.TENSOR_CORE)
        sparse = compute_time(V100, ComputeUnit.SPARSE_TENSOR_CORE)
        assert sparse == pytest.approx(dense)

"""Tests for the kernel-timing simulator."""

import numpy as np
import pytest

from repro.gpu.arch import A100, T4, V100
from repro.gpu.memory import TrafficBatch
from repro.gpu.simulator import ComputeUnit, KernelTiming, LaunchBatch, simulate_batch


def traffic(*streams) -> TrafficBatch:
    """One-launch traffic from ``(name, bytes, reads, is_write)`` streams."""
    batch = TrafficBatch(1)
    for name, size, reads, is_write in streams:
        batch.add(name, size, reads=reads, is_write=is_write)
    return batch


def make_launch(**overrides) -> LaunchBatch:
    """A plausible mid-sized GEMM launch (a batch of one) used across tests."""
    defaults = dict(
        names=["test-kernel"],
        useful_flops=np.array([2.0e9]),
        traffic=traffic(
            ("weight", 8.0e6, 1.0, False),
            ("activation", 1.0e6, 4.0, False),
            ("output", 1.0e6, 1.0, True),
        ),
        tile_m=64,
        tile_n=64,
        tile_k=32,
        num_tiles=512,
        k_steps=32,
    )
    defaults.update(overrides)
    return LaunchBatch(**defaults)


def simulate(arch, launch: LaunchBatch) -> KernelTiming:
    return simulate_batch(arch, launch).timing(0)


class TestLaunchValidation:
    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            make_launch(useful_flops=np.array([-1.0]))

    def test_invalid_tiles_rejected(self):
        with pytest.raises(ValueError):
            make_launch(num_tiles=0)
        with pytest.raises(ValueError):
            make_launch(k_steps=0)
        with pytest.raises(ValueError):
            make_launch(launches=0)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            make_launch(compute_efficiency=0.0)
        with pytest.raises(ValueError):
            make_launch(bandwidth_efficiency=1.5)


class TestSimulate:
    def test_total_time_positive(self):
        timing = simulate(V100, make_launch())
        assert timing.total_time_s > 0
        assert timing.waves >= 1

    def test_faster_gpu_is_faster(self):
        launch = make_launch()
        assert simulate(A100, launch).total_time_s < simulate(T4, launch).total_time_s

    def test_includes_launch_overhead(self):
        timing = simulate(V100, make_launch())
        assert timing.overhead_s >= V100.kernel_launch_overhead_s

    def test_extra_overhead_added(self):
        base = simulate(V100, make_launch())
        slow = simulate(V100, make_launch(extra_overhead_s=1.0e-3))
        assert slow.total_time_s == pytest.approx(base.total_time_s + 1.0e-3, rel=1e-6)

    def test_cuda_core_slower_than_tensor_core(self):
        tc = simulate(V100, make_launch(compute_unit=ComputeUnit.TENSOR_CORE))
        cc = simulate(V100, make_launch(compute_unit=ComputeUnit.CUDA_CORE))
        assert cc.compute_time_s > tc.compute_time_s

    def test_sparse_tensor_core_only_helps_on_a100(self):
        launch_tc = make_launch(compute_unit=ComputeUnit.TENSOR_CORE)
        launch_sp = make_launch(compute_unit=ComputeUnit.SPARSE_TENSOR_CORE)
        assert simulate(A100, launch_sp).compute_time_s < simulate(A100, launch_tc).compute_time_s
        assert simulate(V100, launch_sp).compute_time_s == pytest.approx(
            simulate(V100, launch_tc).compute_time_s
        )

    def test_small_grid_underutilises_compute(self):
        # The same total work split into 8 huge tiles cannot use all 80 SMs,
        # while 80 smaller tiles can; the effective compute time reflects it.
        wide = simulate(V100, make_launch(num_tiles=80, k_steps=32))
        narrow = simulate(V100, make_launch(num_tiles=8, k_steps=320))
        assert narrow.compute_time_s > wide.compute_time_s

    def test_more_traffic_means_more_time(self):
        heavy = simulate(V100, make_launch(traffic=traffic(("weight", 200.0e6, 1.0, False))))
        light = simulate(V100, make_launch())
        assert heavy.total_time_s > light.total_time_s

    def test_metadata_prefetch_beneficial(self):
        meta = traffic(("metadata", 4.0e6, 1.0, False))
        with_prefetch = simulate(V100, make_launch(meta_traffic=meta, prefetch_metadata=True))
        without = simulate(V100, make_launch(meta_traffic=meta, prefetch_metadata=False))
        assert with_prefetch.total_time_s <= without.total_time_s

    def test_speedup_over(self):
        fast = simulate(A100, make_launch())
        slow = simulate(T4, make_launch())
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0

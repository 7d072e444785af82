"""Tests for the convolution estimation path, the activation-traffic lower
bound and the prepare cache."""

import numpy as np
import pytest

from repro.gpu.arch import get_gpu
from repro.kernels.base import (
    GEMMShape,
    KernelNotApplicableError,
    activation_traffic_grid,
    conv_to_gemm_shape,
)
from repro.kernels.registry import make_kernel
from repro.sparse.spconv import Conv2dSpec

V100 = get_gpu("V100")


def activation_reads(shape: GEMMShape, *, row_tile: int, kept_fraction: float) -> float:
    """Pre-filter read count of the activation stream of one GEMM."""
    traffic = activation_traffic_grid(
        np.array([shape.m]),
        np.array([shape.n]),
        np.array([shape.k]),
        row_tile=row_tile,
        kept_fraction=kept_fraction,
    )
    (operand,) = traffic.slots
    return float(operand.reads[0])


class TestActivationTrafficLowerBound:
    def test_clamps_to_kept_fraction_when_single_row_tile(self):
        # M <= row_tile: one tile covers all rows, so the compulsory traffic
        # is kept_fraction of the activation footprint — not the full matrix.
        shape = GEMMShape(m=32, n=64, k=256)
        assert activation_reads(shape, row_tile=64, kept_fraction=0.25) == pytest.approx(0.25)

    def test_dense_behaviour_unchanged(self):
        shape = GEMMShape(m=32, n=64, k=256)
        assert activation_reads(shape, row_tile=64, kept_fraction=1.0) == pytest.approx(1.0)

    def test_multi_tile_reads_unchanged(self):
        shape = GEMMShape(m=256, n=64, k=256)
        assert activation_reads(shape, row_tile=64, kept_fraction=0.5) == pytest.approx(4 * 0.5)


class TestEstimateConvOverhead:
    def test_3x3_conv_pays_unfold_overhead(self):
        kernel = make_kernel("shfl-bw", vector_size=32)
        spec = Conv2dSpec(64, 128, 3, padding=1)
        shape = conv_to_gemm_shape(spec, batch=8, height=14, width=14)
        gemm = kernel.estimate(V100, shape, 0.25)
        conv = kernel.estimate_conv(V100, spec, 0.25, batch=8, height=14, width=14)
        expected = gemm.total_time_s * (
            1.0 + kernel.conv_unfold_overhead * (1.0 - 1.0 / 9.0)
        )
        assert conv.total_time_s == pytest.approx(expected)
        assert conv.total_time_s > gemm.total_time_s

    def test_1x1_conv_unfolds_for_free(self):
        kernel = make_kernel("dense")
        spec = Conv2dSpec(256, 64, 1)
        shape = conv_to_gemm_shape(spec, batch=8, height=14, width=14)
        gemm = kernel.estimate(V100, shape, 1.0)
        conv = kernel.estimate_conv(V100, spec, 1.0, batch=8, height=14, width=14)
        assert conv.total_time_s == pytest.approx(gemm.total_time_s)

    def test_unsupported_kernel_still_rejected(self):
        spec = Conv2dSpec(64, 128, 3, padding=1)
        with pytest.raises(KernelNotApplicableError):
            make_kernel("cusparse-bsr").estimate_conv(
                V100, spec, 0.25, batch=8, height=14, width=14
            )


class TestPrepareCache:
    def _counting_kernel(self):
        kernel = make_kernel("shfl-bw", vector_size=4)
        calls = {"prepare": 0}
        original = kernel.prepare

        def counted(weight, **kwargs):
            calls["prepare"] += 1
            return original(weight, **kwargs)

        kernel.prepare = counted
        return kernel, calls

    def test_matmul_reuses_compressed_weights(self, rng):
        kernel, calls = self._counting_kernel()
        weight = rng.normal(size=(8, 16)) * (rng.random((8, 16)) < 0.5)
        a1 = rng.normal(size=(16, 3))
        a2 = rng.normal(size=(16, 5))
        out1 = kernel.matmul(weight, a1)
        out2 = kernel.matmul(weight, a2)
        assert calls["prepare"] == 1
        np.testing.assert_allclose(out1, weight @ a1, atol=1e-10)
        np.testing.assert_allclose(out2, weight @ a2, atol=1e-10)

    def test_different_weights_not_conflated(self, rng):
        kernel, calls = self._counting_kernel()
        w1 = rng.normal(size=(8, 16)) * (rng.random((8, 16)) < 0.5)
        w2 = w1.copy()
        w2[0, 0] += 1.0
        acts = rng.normal(size=(16, 3))
        out1 = kernel.matmul(w1, acts)
        out2 = kernel.matmul(w2, acts)
        assert calls["prepare"] == 2
        np.testing.assert_allclose(out1, w1 @ acts, atol=1e-10)
        np.testing.assert_allclose(out2, w2 @ acts, atol=1e-10)

    def test_kwargs_part_of_cache_key(self, rng):
        kernel, calls = self._counting_kernel()
        weight = rng.normal(size=(8, 16)) * (rng.random((8, 16)) < 0.5)
        acts = rng.normal(size=(16, 3))
        kernel.matmul(weight, acts)
        kernel.matmul(weight, acts, row_indices=np.arange(8)[::-1].copy())
        assert calls["prepare"] == 2

    def test_cache_is_bounded(self, rng):
        kernel, calls = self._counting_kernel()
        kernel.prepare_cache_size = 2
        acts = rng.normal(size=(16, 3))
        weights = [
            rng.normal(size=(8, 16)) * (rng.random((8, 16)) < 0.5) for _ in range(3)
        ]
        for w in weights:
            kernel.matmul(w, acts)
        assert len(kernel._prepare_cache) == 2
        # The oldest entry was evicted; using it again re-prepares.
        kernel.matmul(weights[0], acts)
        assert calls["prepare"] == 4

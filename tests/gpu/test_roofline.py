"""Tests for the roofline / operation-intensity analysis (Section 3.2.2)."""

import math

import pytest

from repro.gpu.arch import V100
from repro.gpu.roofline import (
    dense_tile_reuse,
    max_reuse_blockwise,
    max_reuse_dense,
    max_reuse_unstructured,
)
from repro.gpu.tiling import optimal_tile_extent


class TestIntensity:
    def test_square_tile_reuse(self):
        # 2 * T^2 / (2T values * 2 bytes) = T / 2 flop per byte.
        assert dense_tile_reuse(128, 128) == pytest.approx(64.0)
        assert dense_tile_reuse(256, 256) == pytest.approx(128.0)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            dense_tile_reuse(0, 4)


class TestMaxReuse:
    def test_unstructured_follows_sqrt_alpha(self):
        dense = max_reuse_dense(V100)
        for alpha in (0.5, 0.25, 0.1, 0.05):
            assert max_reuse_unstructured(V100, alpha) == pytest.approx(
                math.sqrt(alpha) * dense
            )

    def test_unstructured_reuse_vanishes_with_sparsity(self):
        assert max_reuse_unstructured(V100, 0.01) < max_reuse_unstructured(V100, 0.5)

    def test_blockwise_reuse_independent_of_density(self):
        # The paper's key point: block-wise tiles stay dense regardless of
        # the overall sparsity, so reuse does not degrade.
        assert max_reuse_blockwise(V100, 64) == max_reuse_blockwise(V100, 64)

    def test_blockwise_matches_dense_when_v_reaches_t_opt(self):
        t_opt = int(optimal_tile_extent(V100))
        assert max_reuse_blockwise(V100, t_opt) == pytest.approx(max_reuse_dense(V100), rel=0.01)

    def test_blockwise_beats_unstructured_at_high_sparsity(self):
        # Section 3.2.2 summary: at DNN-relevant sparsity, block/vector/Shfl-BW
        # retain more reuse than unstructured patterns.
        assert max_reuse_blockwise(V100, 64) > max_reuse_unstructured(V100, 0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            max_reuse_unstructured(V100, 0.0)
        with pytest.raises(ValueError):
            max_reuse_blockwise(V100, 0)

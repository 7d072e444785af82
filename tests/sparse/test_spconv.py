"""Tests for the implicit-GEMM convolution references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import prune_shflbw
from repro.sparse import spmm_reference as ref
from repro.sparse.formats import ShflBWMatrix, VectorSparseMatrix
from repro.sparse.spconv import Conv2dSpec, col2im, conv2d_dense, conv2d_sparse, im2col, weight_to_gemm


def reference_conv2d(inputs, weight, spec):
    """Direct (slow) convolution used as the ground truth."""
    n, c, h, w = inputs.shape
    oh, ow = spec.output_hw(h, w)
    padded = np.pad(inputs, ((0, 0), (0, 0), (spec.padding,) * 2, (spec.padding,) * 2))
    out = np.zeros((n, spec.out_channels, oh, ow))
    for b in range(n):
        for oc in range(spec.out_channels):
            for i in range(oh):
                for j in range(ow):
                    patch = padded[
                        b,
                        :,
                        i * spec.stride : i * spec.stride + spec.kernel_size,
                        j * spec.stride : j * spec.stride + spec.kernel_size,
                    ]
                    out[b, oc, i, j] = np.sum(patch * weight[oc])
    return out


class TestConvSpec:
    def test_output_size(self):
        spec = Conv2dSpec(3, 8, 3, stride=1, padding=1)
        assert spec.output_hw(8, 8) == (8, 8)
        assert Conv2dSpec(3, 8, 3, stride=2, padding=1).output_hw(8, 8) == (4, 4)

    def test_gemm_dims(self):
        spec = Conv2dSpec(16, 32, 3)
        assert spec.gemm_m == 32
        assert spec.gemm_k == 16 * 9

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            Conv2dSpec(0, 8, 3)
        with pytest.raises(ValueError):
            Conv2dSpec(3, 8, 3, stride=0)

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            Conv2dSpec(3, 8, 5).output_hw(3, 3)


class TestIm2Col:
    def test_shape(self, rng):
        spec = Conv2dSpec(3, 8, 3, padding=1)
        cols = im2col(rng.normal(size=(2, 3, 6, 6)), spec)
        assert cols.shape == (3 * 9, 2 * 6 * 6)

    def test_dense_conv_matches_direct(self, rng):
        spec = Conv2dSpec(2, 4, 3, stride=1, padding=1)
        inputs = rng.normal(size=(2, 2, 5, 5))
        weight = rng.normal(size=(4, 2, 3, 3))
        np.testing.assert_allclose(
            conv2d_dense(inputs, weight, spec), reference_conv2d(inputs, weight, spec), atol=1e-10
        )

    def test_strided_conv_matches_direct(self, rng):
        spec = Conv2dSpec(2, 3, 3, stride=2, padding=1)
        inputs = rng.normal(size=(1, 2, 7, 7))
        weight = rng.normal(size=(3, 2, 3, 3))
        np.testing.assert_allclose(
            conv2d_dense(inputs, weight, spec), reference_conv2d(inputs, weight, spec), atol=1e-10
        )

    def test_col2im_is_adjoint_of_im2col(self, rng):
        # <im2col(x), y> == <x, col2im(y)> for random x, y.
        spec = Conv2dSpec(2, 4, 3, stride=1, padding=1)
        x = rng.normal(size=(2, 2, 5, 5))
        cols = im2col(x, spec)
        y = rng.normal(size=cols.shape)
        lhs = np.sum(cols * y)
        rhs = np.sum(x * col2im(y, x.shape, spec))
        assert lhs == pytest.approx(rhs)

    def test_channel_mismatch_rejected(self, rng):
        spec = Conv2dSpec(3, 8, 3)
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 2, 6, 6)), spec)


class TestSparseConv:
    def test_vector_wise_sparse_conv_matches_dense(self, rng):
        spec = Conv2dSpec(2, 8, 3, padding=1)
        inputs = rng.normal(size=(2, 2, 6, 6))
        weight = rng.normal(size=(8, 2, 3, 3))
        gemm_weight = weight_to_gemm(weight)
        # Prune to vector-wise (V=4) and compare sparse conv vs dense conv of
        # the pruned weight.
        from repro.pruning.patterns import VectorwisePruner

        pruned = VectorwisePruner(vector_size=4).prune(gemm_weight, 0.5).weights
        sparse = VectorSparseMatrix.from_dense(pruned, 4)
        expected = conv2d_dense(inputs, pruned.reshape(weight.shape), spec)
        np.testing.assert_allclose(conv2d_sparse(inputs, sparse, spec), expected, atol=1e-10)

    def test_shflbw_sparse_conv_matches_dense(self, rng):
        spec = Conv2dSpec(2, 8, 3, padding=1)
        inputs = rng.normal(size=(1, 2, 6, 6))
        weight = rng.normal(size=(8, 2, 3, 3))
        gemm_weight = weight_to_gemm(weight)
        pruned, result = prune_shflbw(gemm_weight, sparsity=0.5, vector_size=4)
        sparse = ShflBWMatrix.from_dense(pruned, 4, result.row_indices)
        expected = conv2d_dense(inputs, pruned.reshape(weight.shape), spec)
        np.testing.assert_allclose(conv2d_sparse(inputs, sparse, spec), expected, atol=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        spec = Conv2dSpec(2, 8, 3, padding=1)
        sparse = VectorSparseMatrix.from_dense(np.zeros((8, 10)), 4)
        with pytest.raises(ValueError):
            conv2d_sparse(rng.normal(size=(1, 2, 6, 6)), sparse, spec)


class TestVectorizedUnfoldOracles:
    """The window-view im2col and the per-tap col2im must match the seed
    channel x kernel-position loop nest (kept in
    repro.sparse.spmm_reference) bit for bit — the unfolding is a pure copy
    and the scatter-add accumulates overlapping taps in the same (ki, kj)
    order."""

    conv_cases = st.tuples(
        st.integers(1, 3),   # batch
        st.integers(1, 4),   # channels
        st.integers(1, 5),   # kernel size
        st.integers(1, 3),   # stride
        st.integers(0, 2),   # padding
        st.integers(0, 6),   # extra input height beyond the minimum
        st.integers(0, 6),   # extra input width beyond the minimum
    )

    @staticmethod
    def _spec_and_shape(case):
        n, c, k, stride, padding, extra_h, extra_w = case
        spec = Conv2dSpec(
            in_channels=c, out_channels=3, kernel_size=k, stride=stride, padding=padding
        )
        h = max(1, k - 2 * padding) + extra_h
        w = max(1, k - 2 * padding) + extra_w
        return spec, (n, c, h, w)

    @settings(max_examples=60, deadline=None)
    @given(case=conv_cases, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_im2col_matches_loop_oracle(self, case, seed):
        spec, shape = self._spec_and_shape(case)
        inputs = np.random.default_rng(seed).normal(size=shape)
        assert np.array_equal(im2col(inputs, spec), ref.im2col_loop(inputs, spec))

    @settings(max_examples=60, deadline=None)
    @given(case=conv_cases, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_col2im_matches_loop_oracle(self, case, seed):
        spec, shape = self._spec_and_shape(case)
        n, c, h, w = shape
        oh, ow = spec.output_hw(h, w)
        kh = spec.kernel_size
        cols = np.random.default_rng(seed).normal(size=(c * kh * kh, n * oh * ow))
        assert np.array_equal(
            col2im(cols, shape, spec), ref.col2im_loop(cols, shape, spec)
        )

    def test_col2im_remains_the_im2col_adjoint(self, rng):
        """<col2im(C), X> == <C, im2col(X)> for random operands."""
        spec = Conv2dSpec(in_channels=3, out_channels=2, kernel_size=3, stride=2, padding=1)
        shape = (2, 3, 7, 9)
        x = rng.normal(size=shape)
        oh, ow = spec.output_hw(7, 9)
        cols = rng.normal(size=(3 * 9, 2 * oh * ow))
        lhs = np.sum(col2im(cols, shape, spec) * x)
        rhs = np.sum(cols * im2col(x, spec))
        assert lhs == pytest.approx(rhs, rel=1e-12)

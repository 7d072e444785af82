"""Functional correctness of every kernel: prepare + run must reproduce the
dense matmul of the (pattern-pruned) weight matrix."""

import numpy as np
import pytest

from repro.core.pruning import (
    balanced_mask,
    block_wise_mask,
    prune_shflbw,
    unstructured_mask,
    vector_wise_mask,
)
from repro.kernels.registry import make_kernel
from repro.sparse.spconv import Conv2dSpec, conv2d_dense


@pytest.fixture
def activations(rng):
    return rng.normal(size=(48, 12))


@pytest.fixture
def weight(rng):
    return rng.normal(size=(32, 48))


class TestDenseKernels:
    def test_dense_tensorcore(self, weight, activations):
        kernel = make_kernel("dense")
        np.testing.assert_allclose(kernel.matmul(weight, activations), weight @ activations)

    def test_dense_cudacore(self, weight, activations):
        kernel = make_kernel("dense-cudacore")
        np.testing.assert_allclose(kernel.matmul(weight, activations), weight @ activations)


class TestUnstructuredKernels:
    @pytest.mark.parametrize("name", ["sputnik", "cusparse-csr"])
    def test_matches_dense(self, name, weight, activations):
        pruned = weight * unstructured_mask(np.abs(weight), 0.3)
        kernel = make_kernel(name)
        np.testing.assert_allclose(
            kernel.matmul(pruned, activations), pruned @ activations, atol=1e-12
        )


class TestBlockwiseKernel:
    def test_matches_dense(self, weight, activations):
        pruned = weight * block_wise_mask(np.abs(weight), 0.5, 8)
        kernel = make_kernel("cusparse-bsr", block_size=8)
        np.testing.assert_allclose(
            kernel.matmul(pruned, activations), pruned @ activations, atol=1e-12
        )


class TestBalancedKernel:
    def test_matches_dense(self, weight, activations):
        pruned = weight * balanced_mask(np.abs(weight))
        kernel = make_kernel("cusparselt")
        np.testing.assert_allclose(
            kernel.matmul(pruned, activations), pruned @ activations, atol=1e-12
        )


class TestVectorWiseKernels:
    @pytest.mark.parametrize("name,v", [("vector-wise", 8), ("vectorsparse", 8), ("tilewise", 16)])
    def test_matches_dense(self, name, v, weight, activations):
        pruned = weight * vector_wise_mask(np.abs(weight), 0.25, v)
        kernel = make_kernel(name, vector_size=v)
        np.testing.assert_allclose(
            kernel.matmul(pruned, activations), pruned @ activations, atol=1e-12
        )


class TestShflBWKernel:
    def test_matches_dense_with_permutation(self, weight, activations):
        pruned, result = prune_shflbw(weight, sparsity=0.75, vector_size=8)
        kernel = make_kernel("shfl-bw", vector_size=8)
        out = kernel.matmul(pruned, activations, row_indices=result.row_indices)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-12)

    def test_matches_dense_without_permutation(self, weight, activations):
        pruned = weight * vector_wise_mask(np.abs(weight), 0.5, 8)
        kernel = make_kernel("shfl-bw", vector_size=8)
        np.testing.assert_allclose(
            kernel.matmul(pruned, activations), pruned @ activations, atol=1e-12
        )

    def test_conv_kernel_matches_dense_conv(self, rng):
        spec = Conv2dSpec(2, 8, 3, padding=1)
        inputs = rng.normal(size=(1, 2, 6, 6))
        conv_weight = rng.normal(size=(8, 2, 3, 3))
        gemm_weight = conv_weight.reshape(8, -1)
        pruned, result = prune_shflbw(gemm_weight, sparsity=0.5, vector_size=4)
        kernel = make_kernel("shfl-bw-conv", vector_size=4)
        out = kernel.conv_matmul(
            pruned.reshape(conv_weight.shape), inputs, spec, row_indices=result.row_indices
        )
        expected = conv2d_dense(inputs, pruned.reshape(conv_weight.shape), spec)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestEndToEndPruneThenRun:
    """The full paper pipeline: search the pattern, compress, execute."""

    def test_prune_compress_execute(self, rng, activations):
        weight = rng.normal(size=(64, 48))
        pruned, result = prune_shflbw(weight, sparsity=0.8, vector_size=16)
        kernel = make_kernel("shfl-bw", vector_size=16)
        prepared = kernel.prepare(pruned, row_indices=result.row_indices)
        out = kernel.run(prepared, activations)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-12)
        # The compressed format stores only the kept density.
        assert prepared.density == pytest.approx(1.0 - 0.8, abs=0.05)

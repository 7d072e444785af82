"""Tests for the structural pattern validators."""

import numpy as np
import pytest

from repro.core.pruning import balanced_mask, block_wise_mask, unstructured_mask, vector_wise_mask
from repro.sparse.validate import (
    density,
    is_balanced,
    is_blockwise,
    is_shflbw,
    is_vector_wise,
    sparsity,
)


class TestSparsityDensity:
    def test_complementary(self, rng):
        mat = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.3)
        assert sparsity(mat) + density(mat) == pytest.approx(1.0)

    def test_all_zero(self):
        assert sparsity(np.zeros((4, 4))) == 1.0

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            sparsity(np.zeros(5))


class TestBlockwiseValidator:
    def test_pruner_output_is_blockwise(self, rng):
        w = rng.normal(size=(32, 32))
        pruned = w * block_wise_mask(np.abs(w), 0.25, 8)
        assert is_blockwise(pruned, 8)

    def test_unstructured_is_not_blockwise(self, rng):
        w = rng.normal(size=(32, 32))
        pruned = w * unstructured_mask(np.abs(w), 0.25)
        assert not is_blockwise(pruned, 8)

    def test_indivisible_shape_is_false(self):
        assert not is_blockwise(np.ones((10, 8)), 4)


class TestVectorWiseValidator:
    def test_pruner_output_is_vector_wise(self, rng):
        w = rng.normal(size=(32, 48))
        pruned = w * vector_wise_mask(np.abs(w), 0.25, 8)
        assert is_vector_wise(pruned, 8)

    def test_blockwise_is_also_vector_wise(self, rng):
        w = rng.normal(size=(32, 32))
        pruned = w * block_wise_mask(np.abs(w), 0.5, 8)
        assert is_vector_wise(pruned, 8)

    def test_shuffled_matrix_is_not_vector_wise(self, shflbw_pruned):
        pruned, result = shflbw_pruned
        # With a non-trivial shuffle the matrix is (almost surely) not
        # vector-wise in its original row order but is after permutation.
        assert is_vector_wise(pruned[result.row_indices, :], 8)


class TestShflBWValidator:
    def test_pruner_output_is_shflbw(self, shflbw_pruned):
        pruned, result = shflbw_pruned
        assert is_shflbw(pruned, 8, result.row_indices)
        assert is_shflbw(pruned, 8)  # also verifiable without the witness

    def test_vector_wise_is_shflbw(self, rng):
        w = rng.normal(size=(32, 48))
        pruned = w * vector_wise_mask(np.abs(w), 0.25, 8)
        assert is_shflbw(pruned, 8)

    def test_unstructured_is_not_shflbw(self, rng):
        w = rng.normal(size=(32, 48))
        pruned = w * unstructured_mask(np.abs(w), 0.25)
        assert not is_shflbw(pruned, 8)

    def test_bad_witness_rejected(self, shflbw_pruned):
        pruned, _ = shflbw_pruned
        assert not is_shflbw(pruned, 8, np.zeros(pruned.shape[0], dtype=int))


class TestBalancedValidator:
    def test_pruner_output_is_balanced(self, rng):
        w = rng.normal(size=(16, 32))
        pruned = w * balanced_mask(np.abs(w))
        assert is_balanced(pruned)

    def test_dense_matrix_is_not_balanced(self):
        assert not is_balanced(np.ones((4, 8)))

    def test_indivisible_k_is_false(self):
        assert not is_balanced(np.zeros((4, 6)))

"""Single-shot magnitude pruning of a weight matrix to each pattern, checked
on the pruned weights (the weights times the pattern's mask of their
magnitudes) rather than on the mask alone."""

import numpy as np
import pytest

from repro.core.pruning import block_wise_mask, prune_shflbw, unstructured_mask, vector_wise_mask
from repro.sparse.validate import is_shflbw, is_vector_wise


@pytest.fixture
def weight(rng):
    return rng.normal(size=(64, 64))


class TestUnstructuredPruner:
    def test_invalid_sparsity(self, weight):
        for sparsity in (1.0, -0.1):
            with pytest.raises(ValueError):
                unstructured_mask(np.abs(weight), 1.0 - sparsity)


class TestVectorwisePruner:
    def test_output_is_vector_wise(self, weight):
        pruned = weight * vector_wise_mask(np.abs(weight), 0.25, 16)
        assert is_vector_wise(pruned, 16)


class TestShflBWPruner:
    def test_output_is_shflbw(self, weight):
        pruned, result = prune_shflbw(weight, 0.75, vector_size=16)
        assert is_shflbw(pruned, 16, result.row_indices)

    def test_retains_at_least_blockwise(self, weight):
        shfl, _ = prune_shflbw(weight, 0.8, vector_size=16)
        bw = weight * block_wise_mask(np.abs(weight), 1.0 - 0.8, 16)
        assert np.abs(shfl).sum() >= np.abs(bw).sum() * 0.999

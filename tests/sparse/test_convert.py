"""Tests for format conversions (including the kernel's offline steps)."""

import numpy as np
import pytest

from repro.core.pruning import prune_shflbw
from repro.sparse.convert import (
    dense_to_balanced,
    dense_to_block,
    dense_to_csr,
    dense_to_shflbw,
    dense_to_vector_wise,
    identity_row_indices,
    shflbw_to_vector_wise,
    stitched_panels,
    vector_wise_to_block,
)


class TestBasicConversions:
    def test_identity_row_indices(self):
        np.testing.assert_array_equal(identity_row_indices(5), np.arange(5))

    def test_dense_to_csr_round_trip(self, rng):
        dense = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.4)
        np.testing.assert_allclose(dense_to_csr(dense).to_dense(), dense)

    def test_dense_to_block_round_trip(self, rng):
        dense = np.zeros((8, 8))
        dense[0:4, 4:8] = rng.normal(size=(4, 4))
        np.testing.assert_allclose(dense_to_block(dense, 4).to_dense(), dense)

    def test_dense_to_shflbw_defaults_to_identity(self, rng):
        dense = np.zeros((8, 6))
        dense[0:4, 1] = 1.0
        matrix = dense_to_shflbw(dense, 4)
        np.testing.assert_array_equal(matrix.row_indices, np.arange(8))

    def test_dense_to_balanced_projects(self):
        dense = np.ones((2, 4))
        projected = dense_to_balanced(dense).to_dense()
        assert (projected != 0).sum() == 4


class TestKernelOfflineSteps:
    def test_shflbw_to_vector_wise_matches_permuted_dense(self, shflbw_pruned):
        pruned, result = shflbw_pruned
        matrix = dense_to_shflbw(pruned, 8, result.row_indices)
        vec, row_indices = shflbw_to_vector_wise(matrix)
        np.testing.assert_allclose(vec.to_dense(), pruned[row_indices, :])

    def test_vector_wise_to_block_reconstructs_group_panels(self, rng):
        dense = np.zeros((8, 16))
        dense[0:4, [0, 3, 7, 9, 12]] = rng.normal(size=(4, 5))
        vec = dense_to_vector_wise(dense, 4)
        panels = vector_wise_to_block(vec, tile_cols=2)
        # Group 0 has 5 kept columns -> 3 panels of width 2 (last padded);
        # group 1 is all-zero -> no panels.
        np.testing.assert_array_equal(panels.group_indptr, [0, 3, 3])
        assert panels.num_panels == 3
        assert panels.values.shape == (3, 4, 2)
        np.testing.assert_array_equal(panels.columns[0], [0, 3])
        np.testing.assert_array_equal(panels.values[0], dense[0:4, [0, 3]])
        # The tail panel is padded with -1 columns and zero values.
        assert panels.columns[-1][-1] == -1
        assert np.all(panels.values[-1][:, -1] == 0.0)
        # Padding lanes are clamped to a valid gather index.
        assert panels.gather_columns.min() >= 0

    def test_vector_wise_to_block_default_tile_is_square(self, rng):
        dense = np.zeros((4, 8))
        dense[:, [1, 2, 3, 4]] = 1.0
        panels = vector_wise_to_block(dense_to_vector_wise(dense, 4))
        assert panels.values.shape == (1, 4, 4)

    def test_to_group_lists_matches_stacked(self, rng):
        """The list-of-dicts view the Shfl-BW loop oracle walks."""
        dense = np.zeros((8, 16))
        dense[0:4, [0, 3, 7, 9, 12]] = rng.normal(size=(4, 5))
        dense[4:8, [2, 5]] = rng.normal(size=(4, 2))
        vec = dense_to_vector_wise(dense, 4)
        stacked = vector_wise_to_block(vec, tile_cols=2)
        lists = stacked.to_group_lists()
        assert len(lists) == stacked.num_groups
        for g, group in enumerate(lists):
            vals, cols = stacked.group_panels(g)
            assert len(group) == vals.shape[0]
            for p, panel in enumerate(group):
                np.testing.assert_array_equal(panel["columns"], cols[p])
                np.testing.assert_array_equal(panel["values"], vals[p])

    def test_stitched_panels_memoised_per_tile(self, rng):
        dense = np.zeros((8, 16))
        dense[0:4, [0, 3, 7]] = rng.normal(size=(4, 3))
        vec = dense_to_vector_wise(dense, 4)
        first = stitched_panels(vec, 2)
        assert stitched_panels(vec, 2) is first
        assert stitched_panels(vec, 4) is not first

    def test_invalid_tile_cols(self, rng):
        vec = dense_to_vector_wise(np.zeros((4, 8)), 4)
        with pytest.raises(ValueError):
            vector_wise_to_block(vec, tile_cols=0)


class TestPrunedMatrixConversions:
    def test_shflbw_pruned_matrix_round_trips(self, shflbw_pruned):
        pruned, result = shflbw_pruned
        matrix = dense_to_shflbw(pruned, 8, result.row_indices)
        np.testing.assert_allclose(matrix.to_dense(), pruned)
        assert matrix.density == pytest.approx(0.25, abs=0.05)

    def test_different_v_sizes(self, rng):
        weight = rng.normal(size=(64, 64))
        for v in (4, 8, 16, 32):
            pruned, result = prune_shflbw(weight, sparsity=0.5, vector_size=v)
            matrix = dense_to_shflbw(pruned, v, result.row_indices)
            np.testing.assert_allclose(matrix.to_dense(), pruned)

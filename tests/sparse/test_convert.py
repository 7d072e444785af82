"""Tests for format conversions (including the kernel's offline steps)."""

import numpy as np
import pytest

from repro.core.pruning import prune_shflbw
from repro.sparse.formats import (
    Balanced24Matrix,
    BlockSparseMatrix,
    CSRMatrix,
    ShflBWMatrix,
    VectorSparseMatrix,
)


class TestBasicConversions:
    def test_dense_to_csr_round_trip(self, rng):
        dense = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.4)
        np.testing.assert_allclose(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_dense_to_block_round_trip(self, rng):
        dense = np.zeros((8, 8))
        dense[0:4, 4:8] = rng.normal(size=(4, 4))
        np.testing.assert_allclose(BlockSparseMatrix.from_dense(dense, 4).to_dense(), dense)

    def test_dense_to_shflbw_defaults_to_identity(self, rng):
        dense = np.zeros((8, 6))
        dense[0:4, 1] = 1.0
        matrix = ShflBWMatrix.from_dense(dense, 4)
        np.testing.assert_array_equal(matrix.row_indices, np.arange(8))

    def test_dense_to_balanced_projects(self):
        dense = np.ones((2, 4))
        projected = Balanced24Matrix.from_dense(dense).to_dense()
        assert (projected != 0).sum() == 4


class TestKernelOfflineSteps:
    def test_shflbw_stores_the_permuted_vector_wise_matrix(self, shflbw_pruned):
        pruned, result = shflbw_pruned
        matrix = ShflBWMatrix.from_dense(pruned, 8, result.row_indices)
        np.testing.assert_array_equal(matrix.row_indices, result.row_indices)
        np.testing.assert_allclose(
            matrix.vector_matrix.to_dense(), pruned[result.row_indices, :]
        )

    def test_from_dense_stitches_group_panels(self, rng):
        dense = np.zeros((8, 16))
        dense[0:4, [0, 3, 7, 9, 12]] = rng.normal(size=(4, 5))
        vec = VectorSparseMatrix.from_dense(dense, 4, tile_cols=2)
        # Group 0 has 5 kept columns -> 3 panels of width 2 (last padded);
        # group 1 is all-zero -> no panels.
        np.testing.assert_array_equal(vec.group_indptr, [0, 3, 3])
        assert vec.num_panels == 3
        assert vec.values.shape == (3, 4, 2)
        np.testing.assert_array_equal(vec.columns, [[0, 3], [7, 9], [12, -1]])
        np.testing.assert_array_equal(vec.values[0], dense[0:4, [0, 3]])
        # The tail panel is padded with a -1 column and zero values.
        assert np.all(vec.values[-1][:, -1] == 0.0)
        assert vec.nnz == 4 * 5
        np.testing.assert_array_equal(vec.to_dense(), dense)

    def test_default_tile_fits_the_widest_group(self):
        dense = np.zeros((4, 8))
        dense[:, [1, 2, 3, 4]] = 1.0
        vec = VectorSparseMatrix.from_dense(dense, 4)
        assert vec.values.shape == (1, 4, 4)

    def test_group_views_match_the_panels(self, rng):
        """The per-group views the loop oracles read: kept columns in
        stitched order and their values, padding dropped."""
        dense = np.zeros((12, 16))
        dense[0:4, [0, 3, 7, 9, 12]] = rng.normal(size=(4, 5))
        dense[8:12, [2, 5]] = rng.normal(size=(4, 2))
        vec = VectorSparseMatrix.from_dense(dense, 4, tile_cols=2)
        expected = [[0, 3, 7, 9, 12], [], [2, 5]]
        for g, kept in enumerate(expected):
            columns, values = vec.group(g)
            np.testing.assert_array_equal(columns, kept)
            np.testing.assert_array_equal(values, dense[g * 4 : (g + 1) * 4, kept])

    def test_invalid_tile_cols(self):
        with pytest.raises(ValueError):
            VectorSparseMatrix.from_dense(np.zeros((4, 8)), 4, tile_cols=0)


class TestPrunedMatrixConversions:
    def test_shflbw_pruned_matrix_round_trips(self, shflbw_pruned):
        pruned, result = shflbw_pruned
        matrix = ShflBWMatrix.from_dense(pruned, 8, result.row_indices)
        np.testing.assert_allclose(matrix.to_dense(), pruned)
        assert matrix.density == pytest.approx(0.25, abs=0.05)

    def test_different_v_sizes(self, rng):
        weight = rng.normal(size=(64, 64))
        for v in (4, 8, 16, 32):
            pruned, result = prune_shflbw(weight, sparsity=0.5, vector_size=v)
            matrix = ShflBWMatrix.from_dense(pruned, v, result.row_indices)
            np.testing.assert_allclose(matrix.to_dense(), pruned)

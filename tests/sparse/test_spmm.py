"""Functional correctness of the reference SpMM kernels: every format must
reproduce the dense matmul exactly on matrices that satisfy its pattern."""

import numpy as np
import pytest

from repro.core.pruning import prune_shflbw
from repro.pruning.patterns import (
    BalancedPruner,
    BlockwisePruner,
    UnstructuredPruner,
    VectorwisePruner,
)
from repro.sparse import spmm_reference as ref
from repro.sparse.formats import (
    Balanced24Matrix,
    BlockSparseMatrix,
    CSRMatrix,
    ShflBWMatrix,
    VectorSparseMatrix,
)
from repro.sparse.spmm import (
    dense_gemm,
    spmm,
    spmm_balanced,
    spmm_block,
    spmm_csr,
    spmm_shflbw,
    spmm_vector_wise,
)


@pytest.fixture
def activations(rng):
    return rng.normal(size=(48, 10))


class TestDenseGEMM:
    def test_matches_numpy(self, rng, activations, small_weight):
        np.testing.assert_allclose(dense_gemm(small_weight, activations), small_weight @ activations)


class TestCSRSpMM:
    def test_matches_dense(self, rng, small_weight, activations):
        pruned = UnstructuredPruner().prune(small_weight, 0.7).weights
        out = spmm_csr(CSRMatrix.from_dense(pruned), activations)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-12)

    def test_empty_rows_produce_zeros(self, activations):
        weight = np.zeros((4, 48))
        weight[2, 5] = 3.0
        out = spmm_csr(CSRMatrix.from_dense(weight), activations)
        assert np.all(out[0] == 0) and np.all(out[1] == 0) and np.all(out[3] == 0)

    def test_dimension_mismatch_rejected(self, small_weight):
        with pytest.raises(ValueError):
            spmm_csr(CSRMatrix.from_dense(small_weight), np.zeros((5, 3)))


class TestBlockSpMM:
    def test_matches_dense(self, rng, activations, small_weight):
        pruned = BlockwisePruner(block_size=8).prune(small_weight, 0.5).weights
        out = spmm_block(BlockSparseMatrix.from_dense(pruned, 8), activations)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-12)


class TestVectorWiseSpMM:
    def test_matches_dense(self, rng, activations, small_weight):
        pruned = VectorwisePruner(vector_size=8).prune(small_weight, 0.75).weights
        out = spmm_vector_wise(VectorSparseMatrix.from_dense(pruned, 8), activations)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-12)

    def test_all_zero_group(self, activations):
        weight = np.zeros((16, 48))
        weight[8:16, :4] = 1.0
        out = spmm_vector_wise(VectorSparseMatrix.from_dense(weight, 8), activations)
        np.testing.assert_allclose(out, weight @ activations)


class TestShflBWSpMM:
    def test_matches_dense_with_shuffle(self, small_weight, activations):
        pruned, result = prune_shflbw(small_weight, sparsity=0.75, vector_size=8)
        matrix = ShflBWMatrix.from_dense(pruned, 8, result.row_indices)
        out = spmm_shflbw(matrix, activations)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-12)

    def test_various_stitch_tiles(self, small_weight, activations):
        pruned, result = prune_shflbw(small_weight, sparsity=0.5, vector_size=8)
        reference = pruned @ activations
        for tile_cols in (1, 2, 3, 8, 64):
            matrix = ShflBWMatrix.from_dense(pruned, 8, result.row_indices, tile_cols)
            assert matrix.vector_matrix.tile_cols == tile_cols
            out = spmm_shflbw(matrix, activations)
            np.testing.assert_allclose(out, reference, atol=1e-12)
            np.testing.assert_allclose(
                out, ref.spmm_shflbw_loop(matrix, activations), atol=1e-12
            )

    def test_identity_permutation_reduces_to_vector_wise(self, rng, activations):
        weight = VectorwisePruner(vector_size=8).prune(rng.normal(size=(32, 48)), 0.5).weights
        shfl = ShflBWMatrix.from_dense(weight, 8, np.arange(32))
        np.testing.assert_allclose(
            spmm_shflbw(shfl, activations),
            spmm_vector_wise(VectorSparseMatrix.from_dense(weight, 8), activations),
        )


class TestBalancedSpMM:
    def test_matches_dense(self, rng, activations, small_weight):
        pruned = BalancedPruner().prune(small_weight, 0.5).weights
        out = spmm_balanced(Balanced24Matrix.from_dense(pruned), activations)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-12)


class TestDispatch:
    def test_dispatch_matches_each_format(self, small_weight, activations):
        pruned, result = prune_shflbw(small_weight, sparsity=0.5, vector_size=8)
        cases = [
            CSRMatrix.from_dense(pruned),
            VectorSparseMatrix.from_dense(pruned, 8),
            ShflBWMatrix.from_dense(pruned, 8, result.row_indices),
        ]
        for matrix in cases:
            np.testing.assert_allclose(spmm(matrix, activations), pruned @ activations, atol=1e-12)

    def test_dense_array_dispatch(self, small_weight, activations):
        np.testing.assert_allclose(spmm(small_weight, activations), small_weight @ activations)

    def test_unknown_type_rejected(self, activations):
        with pytest.raises(TypeError):
            spmm("not a matrix", activations)

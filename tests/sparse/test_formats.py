"""Tests for the sparse-matrix containers (round trips and invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import spmm_reference as ref
from repro.sparse.formats import (
    Balanced24Matrix,
    BlockSparseMatrix,
    CSRMatrix,
    ShflBWMatrix,
    VectorSparseMatrix,
)


def random_sparse_dense(rng, shape, density):
    dense = rng.normal(size=shape)
    mask = rng.random(shape) < density
    return dense * mask


class TestCSR:
    def test_round_trip(self, rng):
        dense = random_sparse_dense(rng, (16, 24), 0.3)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.to_dense(), dense)

    def test_nnz_and_density(self, rng):
        dense = np.zeros((8, 8))
        dense[0, 0] = 1.0
        dense[5, 3] = -2.0
        csr = CSRMatrix.from_dense(dense)
        assert csr.nnz == 2
        assert csr.density == pytest.approx(2 / 64)

    def test_empty_matrix(self):
        csr = CSRMatrix.from_dense(np.zeros((4, 6)))
        assert csr.nnz == 0
        np.testing.assert_allclose(csr.to_dense(), np.zeros((4, 6)))

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(shape=(2, 2), data=np.ones(1), indices=np.zeros(1), indptr=np.array([0, 1]))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                shape=(2, 2),
                data=np.ones(1),
                indices=np.array([5]),
                indptr=np.array([0, 1, 1]),
            )


class TestBlockSparse:
    def test_round_trip(self, rng):
        dense = np.zeros((16, 16))
        dense[0:4, 4:8] = rng.normal(size=(4, 4))
        dense[8:12, 0:4] = rng.normal(size=(4, 4))
        bsr = BlockSparseMatrix.from_dense(dense, 4)
        np.testing.assert_allclose(bsr.to_dense(), dense)
        assert bsr.nnz_blocks == 2

    def test_partial_block_is_kept_whole(self, rng):
        dense = np.zeros((8, 8))
        dense[0, 0] = 1.0  # a single value keeps its whole 4x4 block
        bsr = BlockSparseMatrix.from_dense(dense, 4)
        assert bsr.nnz == 16
        np.testing.assert_allclose(bsr.to_dense(), dense)

    def test_indivisible_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            BlockSparseMatrix.from_dense(np.zeros((10, 8)), 4)

    def test_density(self, rng):
        dense = np.zeros((8, 8))
        dense[0:4, 0:4] = 1.0
        bsr = BlockSparseMatrix.from_dense(dense, 4)
        assert bsr.density == pytest.approx(0.25)


class TestVectorSparse:
    def test_round_trip(self, rng):
        dense = np.zeros((8, 12))
        dense[0:4, [1, 5]] = rng.normal(size=(4, 2))
        dense[4:8, [2, 7, 9]] = rng.normal(size=(4, 3))
        vsp = VectorSparseMatrix.from_dense(dense, 4)
        np.testing.assert_allclose(vsp.to_dense(), dense)
        assert vsp.num_groups == 2
        assert vsp.nnz == 4 * 2 + 4 * 3

    def test_m_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            VectorSparseMatrix.from_dense(np.zeros((10, 8)), 4)

    def test_duplicate_columns_rejected(self):
        """A column may repeat across groups, never within one, even when
        the group spans several panels."""
        layout = {"shape": (8, 8), "vector_size": 4, "values": np.ones((2, 4, 2))}
        VectorSparseMatrix(**layout, columns=[[1, 2], [1, 2]], group_indptr=[0, 1, 2])
        with pytest.raises(ValueError, match="duplicate"):
            VectorSparseMatrix(**layout, columns=[[1, 2], [3, 2]], group_indptr=[0, 2, 2])

    def test_wrong_panel_shape_rejected(self):
        with pytest.raises(ValueError):
            VectorSparseMatrix(
                shape=(4, 8),
                vector_size=4,
                values=np.ones((1, 3, 2)),
                columns=[[1, 2]],
                group_indptr=[0, 1],
            )

    @pytest.mark.parametrize(
        "columns, values, indptr",
        [
            ([[1, 8]], np.ones((1, 4, 2)), [0, 1]),  # column beyond K
            ([[1, -2]], np.ones((1, 4, 2)), [0, 1]),  # below the -1 padding
            ([[1, -1]], np.ones((1, 4, 2)), [0, 1]),  # padding with a value
            ([[1, 2]], np.ones((1, 4, 2)), [0, 2]),  # pointer past the panels
            ([[1, 2]], np.ones((1, 4, 2)), [1]),  # one pointer, no group
            ([[1]], np.ones((1, 4, 2)), [0, 1]),  # columns shorter than T
        ],
    )
    def test_invalid_layout_rejected(self, columns, values, indptr):
        with pytest.raises(ValueError):
            VectorSparseMatrix(
                shape=(4, 8),
                vector_size=4,
                values=values,
                columns=columns,
                group_indptr=indptr,
            )


class TestShflBW:
    def test_round_trip_with_permutation(self, rng):
        # Build a matrix that is vector-wise after a known permutation.
        perm = rng.permutation(12)
        permuted = np.zeros((12, 16))
        for g in range(3):
            cols = rng.choice(16, size=4, replace=False)
            permuted[g * 4 : (g + 1) * 4][:, cols] = rng.normal(size=(4, 4))
        dense = np.zeros_like(permuted)
        dense[perm, :] = permuted
        matrix = ShflBWMatrix.from_dense(dense, 4, perm)
        np.testing.assert_allclose(matrix.to_dense(), dense)
        assert matrix.num_groups == 3

    def test_row_groups_partition_rows(self, rng):
        perm = rng.permutation(8)
        matrix = ShflBWMatrix.from_dense(rng.normal(size=(8, 8)), 4, perm)
        assert sorted(matrix.row_indices.tolist()) == list(range(8))

    def test_invalid_permutation_rejected(self, rng):
        with pytest.raises(ValueError):
            ShflBWMatrix.from_dense(rng.normal(size=(8, 8)), 4, np.zeros(8, dtype=int))

    def test_identity_permutation_equals_vector_wise(self, rng):
        dense = np.zeros((8, 8))
        dense[0:4, 0:2] = 1.0
        matrix = ShflBWMatrix.from_dense(dense, 4, np.arange(8))
        np.testing.assert_allclose(matrix.to_dense(), matrix.vector_matrix.to_dense())


class TestBalanced:
    def test_round_trip_for_compliant_matrix(self, rng):
        dense = np.zeros((4, 8))
        dense[:, [0, 2, 5, 7]] = rng.normal(size=(4, 4))
        mat = Balanced24Matrix.from_dense(dense)
        np.testing.assert_allclose(mat.to_dense(), dense)
        assert mat.density == 0.5

    def test_projection_keeps_largest_two(self):
        dense = np.array([[4.0, -1.0, 3.0, 2.0]])
        mat = Balanced24Matrix.from_dense(dense)
        out = mat.to_dense()
        np.testing.assert_allclose(out, [[4.0, 0.0, 3.0, 0.0]])

    def test_k_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            Balanced24Matrix.from_dense(np.zeros((2, 6)))

    def test_nnz(self, rng):
        mat = Balanced24Matrix.from_dense(rng.normal(size=(4, 16)))
        assert mat.nnz == 4 * 8


class TestVectorizedConversionOracles:
    """The vectorized from_dense/to_dense must match the seed loop
    implementations (kept in repro.sparse.spmm_reference) exactly —
    identical index arrays, identical values, identical dtypes."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_csr_matches_loop_oracle(self, shape, density, seed):
        rng = np.random.default_rng(seed)
        dense = random_sparse_dense(rng, shape, density)
        vectorized = CSRMatrix.from_dense(dense)
        oracle = ref.csr_from_dense_loop(dense)
        assert np.array_equal(vectorized.data, oracle.data)
        assert np.array_equal(vectorized.indices, oracle.indices)
        assert np.array_equal(vectorized.indptr, oracle.indptr)
        assert np.array_equal(vectorized.to_dense(), ref.csr_to_dense_loop(oracle))

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        block_size=st.integers(min_value=1, max_value=5),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_block_matches_loop_oracle(self, blocks, block_size, density, seed):
        rng = np.random.default_rng(seed)
        shape = (blocks[0] * block_size, blocks[1] * block_size)
        dense = random_sparse_dense(rng, shape, density)
        vectorized = BlockSparseMatrix.from_dense(dense, block_size)
        oracle = ref.block_from_dense_loop(dense, block_size)
        assert np.array_equal(vectorized.data, oracle.data)
        assert np.array_equal(vectorized.block_indices, oracle.block_indices)
        assert np.array_equal(vectorized.block_indptr, oracle.block_indptr)
        assert np.array_equal(
            vectorized.to_dense(), ref.block_to_dense_loop(oracle)
        )


class TestStorageDtype:
    """The containers promise float64 value storage (the dtype every
    functional kernel computes in); float32 inputs must be upcast."""

    def test_all_containers_store_float64(self, rng):
        dense32 = random_sparse_dense(rng, (8, 16), 0.4).astype(np.float32)
        csr = CSRMatrix.from_dense(dense32)
        assert csr.data.dtype == np.float64
        assert csr.to_dense().dtype == np.float64
        bsr = BlockSparseMatrix.from_dense(dense32, 4)
        assert bsr.data.dtype == np.float64
        assert bsr.to_dense().dtype == np.float64
        vec = VectorSparseMatrix.from_dense(dense32, 4)
        assert vec.values.dtype == np.float64
        assert vec.to_dense().dtype == np.float64
        shfl = ShflBWMatrix.from_dense(dense32, 4, np.arange(8))
        assert shfl.vector_matrix.values.dtype == np.float64
        assert shfl.to_dense().dtype == np.float64
        balanced = Balanced24Matrix.from_dense(dense32)
        assert balanced.values.dtype == np.float64
        assert balanced.to_dense().dtype == np.float64

    def test_index_arrays_are_int64(self, rng):
        dense = random_sparse_dense(rng, (8, 16), 0.4)
        csr = CSRMatrix.from_dense(dense)
        assert csr.indices.dtype == np.int64
        assert csr.indptr.dtype == np.int64
        bsr = BlockSparseMatrix.from_dense(dense, 4)
        assert bsr.block_indices.dtype == np.int64
        assert bsr.block_indptr.dtype == np.int64
        vec = VectorSparseMatrix.from_dense(dense, 4)
        assert vec.columns.dtype == np.int64
        assert vec.group_indptr.dtype == np.int64

"""Property-based equivalence tests for the vectorized SpMM engine.

Every vectorized kernel in :mod:`repro.sparse.spmm` must match both

* the loop oracle kept in :mod:`repro.sparse.spmm_reference` (the seed
  implementation, preserved verbatim), and
* the dense reference ``pruned @ rhs``

to ``1e-10`` over random shapes, densities and stitch-tile widths (chosen
when the matrix is built), including tile widths that do not divide the
kept-column counts (padded tail panels) and tiles wider than any group.
"""

import numpy as np
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
from repro.sparse.spmm import (
    spmm_balanced,
    spmm_block,
    spmm_csr,
    spmm_shflbw,
    spmm_vector_wise,
)

ATOL = 1e-10

# Small-but-irregular problem sizes: enough groups/panels to hit every
# padding edge case while keeping each example fast.
dims = st.tuples(
    st.integers(min_value=1, max_value=6),   # vector size V
    st.integers(min_value=1, max_value=5),   # number of row groups
    st.integers(min_value=1, max_value=40),  # K
    st.integers(min_value=1, max_value=7),   # N
)
densities = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
tiles = st.one_of(st.none(), st.integers(min_value=1, max_value=50))


def _problem(v, groups, k, n, density, seed):
    rng = np.random.default_rng(seed)
    m = v * groups
    dense = rng.normal(size=(m, k))
    rhs = rng.normal(size=(k, n))
    return rng, m, dense, rhs


@settings(max_examples=60, deadline=None)
@given(dims=dims, density=densities, seed=seeds)
def test_csr_matches_oracle_and_dense(dims, density, seed):
    v, groups, k, n = dims
    rng, m, dense, rhs = _problem(v, groups, k, n, density, seed)
    pruned = dense * (rng.random((m, k)) < density)
    matrix = CSRMatrix.from_dense(pruned)
    out = spmm_csr(matrix, rhs)
    np.testing.assert_allclose(out, ref.spmm_csr_loop(matrix, rhs), atol=ATOL)
    np.testing.assert_allclose(out, pruned @ rhs, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(dims=dims, density=densities, seed=seeds, tile_cols=tiles)
def test_vector_wise_matches_oracle_and_dense(dims, density, seed, tile_cols):
    v, groups, k, n = dims
    rng, m, dense, rhs = _problem(v, groups, k, n, density, seed)
    # Vector-wise mask: whole (V x 1) column vectors of each group survive.
    mask = np.repeat(rng.random((groups, k)) < density, v, axis=0)
    pruned = dense * mask
    matrix = VectorSparseMatrix.from_dense(pruned, v, tile_cols)
    out = spmm_vector_wise(matrix, rhs)
    np.testing.assert_allclose(out, ref.spmm_vector_wise_loop(matrix, rhs), atol=ATOL)
    np.testing.assert_allclose(out, pruned @ rhs, atol=ATOL)


@settings(max_examples=80, deadline=None)
@given(dims=dims, density=densities, seed=seeds, tile_cols=tiles)
def test_shflbw_matches_oracle_and_dense(dims, density, seed, tile_cols):
    v, groups, k, n = dims
    rng, m, dense, rhs = _problem(v, groups, k, n, density, seed)
    # Vector-wise sparsity in the *permuted* space plus a random shuffle.
    mask = np.repeat(rng.random((groups, k)) < density, v, axis=0)
    permuted = dense * mask
    row_indices = rng.permutation(m)
    original = np.zeros_like(permuted)
    original[row_indices, :] = permuted
    matrix = ShflBWMatrix.from_dense(original, v, row_indices, tile_cols)
    out = spmm_shflbw(matrix, rhs)
    np.testing.assert_allclose(out, ref.spmm_shflbw_loop(matrix, rhs), atol=ATOL)
    np.testing.assert_allclose(out, original @ rhs, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(dims=dims, density=densities, seed=seeds)
def test_block_matches_oracle_and_dense(dims, density, seed):
    v, groups, k_groups, n = dims
    rng = np.random.default_rng(seed)
    m, k = v * groups, v * k_groups
    dense = rng.normal(size=(m, k))
    rhs = rng.normal(size=(k, n))
    mask = np.kron(rng.random((groups, k_groups)) < density, np.ones((v, v)))
    pruned = dense * mask
    matrix = BlockSparseMatrix.from_dense(pruned, v)
    out = spmm_block(matrix, rhs)
    np.testing.assert_allclose(out, ref.spmm_block_loop(matrix, rhs), atol=ATOL)
    np.testing.assert_allclose(out, pruned @ rhs, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12),
    k_groups=st.integers(min_value=1, max_value=10),
    n=st.integers(min_value=1, max_value=7),
    seed=seeds,
)
def test_balanced_matches_oracle_and_dense(rows, k_groups, n, seed):
    rng = np.random.default_rng(seed)
    k = 4 * k_groups
    dense = rng.normal(size=(rows, k))
    rhs = rng.normal(size=(k, n))
    matrix = Balanced24Matrix.from_dense(dense)  # projects onto 2:4
    out = spmm_balanced(matrix, rhs)
    np.testing.assert_allclose(out, ref.spmm_balanced_loop(matrix, rhs), atol=ATOL)
    np.testing.assert_allclose(out, matrix.to_dense() @ rhs, atol=ATOL)


class TestEdgeCases:
    def test_all_zero_matrix_every_format(self):
        rhs = np.ones((8, 3))
        zero = np.zeros((4, 8))
        np.testing.assert_array_equal(spmm_csr(CSRMatrix.from_dense(zero), rhs), np.zeros((4, 3)))
        np.testing.assert_array_equal(
            spmm_block(BlockSparseMatrix.from_dense(zero, 4), rhs), np.zeros((4, 3))
        )
        np.testing.assert_array_equal(
            spmm_vector_wise(VectorSparseMatrix.from_dense(zero, 4), rhs), np.zeros((4, 3))
        )
        np.testing.assert_array_equal(
            spmm_shflbw(ShflBWMatrix.from_dense(zero, 4), rhs), np.zeros((4, 3))
        )

    def test_shflbw_calls_leave_the_matrix_as_built(self, rng):
        """The SpMM reads the stored panels and memoises nothing on them."""
        dense = rng.normal(size=(8, 16)) * (rng.random((8, 16)) < 0.5)
        mask = np.repeat(np.any(dense[:4] != 0, axis=0)[None, :], 4, axis=0)
        pruned = np.vstack([dense[:4] * mask, dense[4:]])
        matrix = ShflBWMatrix.from_dense(pruned, 4, np.arange(8), tile_cols=3)
        attributes = set(vars(matrix.vector_matrix))
        rhs = rng.normal(size=(16, 3))
        first = spmm_shflbw(matrix, rhs)
        second = spmm_shflbw(matrix, rhs)
        np.testing.assert_array_equal(first, second)
        assert set(vars(matrix.vector_matrix)) == attributes

    def test_csr_scipy_handle_cached(self, rng):
        pruned = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.4)
        matrix = CSRMatrix.from_dense(pruned)
        rhs = rng.normal(size=(8, 2))
        spmm_csr(matrix, rhs)
        assert matrix.__dict__.get("_scipy_handle") is not None

"""Property-based tests (hypothesis) for the core data structures and
invariants: format round-trips, SpMM correctness, pattern validity of the
pruning masks, and the flexibility analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import (
    log_candidates_shflbw,
    log_candidates_vectorwise,
    log_row_shuffle_multiplier,
)
from repro.core.kmeans import balanced_kmeans
from repro.core.pruning import (
    block_wise_mask,
    prune_shflbw,
    search_shflbw_pattern,
    unstructured_mask,
    vector_wise_mask,
)
from repro.sparse.formats import CSRMatrix, ShflBWMatrix, VectorSparseMatrix
from repro.sparse.spmm import spmm_csr, spmm_shflbw, spmm_vector_wise
from repro.sparse.validate import is_blockwise, is_shflbw, is_vector_wise

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def matrix_and_v(draw):
    """A random dense matrix together with a vector size dividing its rows."""
    v = draw(st.sampled_from([2, 4, 8]))
    groups = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(v * groups, k)), v


@given(matrix_and_v(), st.floats(min_value=0.05, max_value=0.9))
@settings(**SETTINGS)
def test_csr_round_trip_and_spmm(data, density):
    matrix, _ = data
    mask = unstructured_mask(np.abs(matrix), density)
    pruned = matrix * mask
    csr = CSRMatrix.from_dense(pruned)
    np.testing.assert_allclose(csr.to_dense(), pruned)
    rhs = np.random.default_rng(0).normal(size=(matrix.shape[1], 3))
    np.testing.assert_allclose(spmm_csr(csr, rhs), pruned @ rhs, atol=1e-10)


@given(matrix_and_v(), st.floats(min_value=0.1, max_value=0.9))
@settings(**SETTINGS)
def test_shflbw_pruner_always_produces_valid_pattern(data, sparsity):
    matrix, v = data
    pruned, result = prune_shflbw(matrix, sparsity=sparsity, vector_size=v)
    assert is_shflbw(pruned != 0, v, result.row_indices) or pruned.size == 0
    # The mask in permuted order must be vector-wise.
    assert is_vector_wise(pruned[result.row_indices, :], v)
    # Density never exceeds the requested density by more than one column
    # per group worth of slack.
    assert result.density <= (1.0 - sparsity) + 1.0 / matrix.shape[1] + 1e-9


@given(matrix_and_v(), st.floats(min_value=0.1, max_value=0.9))
@settings(**SETTINGS)
def test_shflbw_spmm_matches_dense(data, sparsity):
    matrix, v = data
    pruned, result = prune_shflbw(matrix, sparsity=sparsity, vector_size=v)
    sparse = ShflBWMatrix.from_dense(pruned, v, result.row_indices)
    rhs = np.random.default_rng(1).normal(size=(matrix.shape[1], 4))
    np.testing.assert_allclose(spmm_shflbw(sparse, rhs), pruned @ rhs, atol=1e-10)


@given(matrix_and_v(), st.floats(min_value=0.1, max_value=0.9))
@settings(**SETTINGS)
def test_vector_wise_pruner_pattern_and_spmm(data, sparsity):
    matrix, v = data
    pruned = matrix * vector_wise_mask(np.abs(matrix), 1.0 - sparsity, v)
    assert is_vector_wise(pruned, v)
    sparse = VectorSparseMatrix.from_dense(pruned, v)
    rhs = np.random.default_rng(2).normal(size=(matrix.shape[1], 2))
    np.testing.assert_allclose(spmm_vector_wise(sparse, rhs), pruned @ rhs, atol=1e-10)


@given(st.integers(min_value=0, max_value=2**16), st.sampled_from([4, 8, 16]))
@settings(**SETTINGS)
def test_blockwise_pruner_pattern(seed, v):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(v * 4, v * 3))
    pruned = matrix * block_wise_mask(np.abs(matrix), 0.5, v)
    assert is_blockwise(pruned, v)


@given(st.integers(min_value=0, max_value=2**16), st.sampled_from([2, 4, 8]))
@settings(**SETTINGS)
def test_balanced_kmeans_is_a_balanced_partition(seed, group_size):
    rng = np.random.default_rng(seed)
    num_groups = int(rng.integers(1, 5))
    points = rng.random((group_size * num_groups, int(rng.integers(2, 12))))
    groups = balanced_kmeans(points, group_size, seed=seed)
    assert len(groups) == num_groups
    assert all(len(g) == group_size for g in groups)
    assert sorted(np.concatenate(groups).tolist()) == list(range(points.shape[0]))


@given(
    st.sampled_from([64, 128, 256]),
    st.sampled_from([64, 128]),
    st.sampled_from([16, 32, 64]),
    st.floats(min_value=0.05, max_value=0.9),
)
@settings(**SETTINGS)
def test_shflbw_flexibility_always_exceeds_vectorwise(m, k, v, density):
    if m % v:
        return
    gain = log_candidates_shflbw(m, k, v, density) - log_candidates_vectorwise(m, k, v, density)
    assert gain == pytest.approx(log_row_shuffle_multiplier(m, v), rel=1e-9)
    assert gain >= 0.0


@given(matrix_and_v(), st.floats(min_value=0.1, max_value=0.9))
@settings(**SETTINGS)
def test_search_retained_importance_properties(data, sparsity):
    """Invariants of the pattern search: the retained score is exactly the
    score covered by the mask, and because each group keeps its highest-sum
    columns, the retained fraction is never below the kept density."""
    matrix, v = data
    scores = np.abs(matrix)
    shfl = search_shflbw_pattern(scores, density=1.0 - sparsity, vector_size=v)
    assert shfl.retained_score == pytest.approx(scores[shfl.mask].sum())
    assert 0.0 < shfl.retained_fraction <= 1.0
    assert shfl.retained_fraction >= shfl.density * 0.999

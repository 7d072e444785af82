"""Property tests for the Shfl-BW pattern-search contract.

Whatever the scores, the mask returned by :func:`search_shflbw_pattern` must
(1) satisfy the Shfl-BW structural constraint with the returned
``row_indices`` as its witness, (2) keep exactly ``max(1, round(density *
K))`` columns in every row group, and (3) be a pure function of its inputs
(deterministic for a fixed seed).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pruning import search_shflbw_pattern
from repro.sparse.validate import is_shflbw, is_vector_wise

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def search_case(draw):
    v = draw(st.sampled_from([2, 3, 4, 8]))
    num_groups = draw(st.integers(min_value=1, max_value=4))
    k_dim = draw(st.integers(min_value=2, max_value=24))
    density = draw(st.floats(min_value=0.05, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    scores = np.abs(rng.normal(size=(v * num_groups, k_dim)))
    return scores, v, density, seed


@given(search_case())
@settings(**SETTINGS)
def test_mask_matches_pattern_with_witness(case):
    scores, v, density, seed = case
    result = search_shflbw_pattern(scores, density, v, seed=seed)
    assert is_shflbw(result.mask, v, result.row_indices)
    assert is_vector_wise(result.mask[result.row_indices, :], v)


@given(search_case())
@settings(**SETTINGS)
def test_every_group_keeps_exact_column_count(case):
    scores, v, density, seed = case
    result = search_shflbw_pattern(scores, density, v, seed=seed)
    keep_cols = max(1, round(density * scores.shape[1]))
    permuted = result.mask[result.row_indices, :]
    for g in range(scores.shape[0] // v):
        group = permuted[g * v : (g + 1) * v, :]
        # Every row of the group shares one support of exactly keep_cols
        # columns.
        support = group[0]
        assert int(support.sum()) == keep_cols
        assert np.all(group == support[None, :])
    # Achieved density is keep_cols worth of columns in every group.
    assert result.mask.sum() == keep_cols * scores.shape[0]


@given(search_case())
@settings(**SETTINGS)
def test_deterministic_for_fixed_seed(case):
    scores, v, density, seed = case
    a = search_shflbw_pattern(scores, density, v, seed=seed)
    b = search_shflbw_pattern(scores.copy(), density, v, seed=seed)
    np.testing.assert_array_equal(a.mask, b.mask)
    np.testing.assert_array_equal(a.row_indices, b.row_indices)
    assert a.groups == b.groups
    assert a.retained_score == b.retained_score


@given(search_case())
@settings(**SETTINGS)
def test_groups_partition_rows_and_witness_is_consistent(case):
    scores, v, density, seed = case
    result = search_shflbw_pattern(scores, density, v, seed=seed)
    rows = sorted(i for group in result.groups for i in group)
    assert rows == list(range(scores.shape[0]))
    assert all(len(group) == v for group in result.groups)
    # The witness permutation is the concatenation of the groups.
    flattened = [i for group in result.groups for i in group]
    np.testing.assert_array_equal(result.row_indices, flattened)

"""Tests for the row-grouping transforms."""

import numpy as np
import pytest

from repro.core.transforms import group_rows_by_support, groups_to_permutation


class TestPermutations:
    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            groups_to_permutation([np.array([0, 1, 1, 2])], 4)
        with pytest.raises(ValueError):
            groups_to_permutation([np.array([0, 1]), np.array([2])], 4)


class TestRowGrouping:
    def test_identical_supports_grouped_together(self):
        mask = np.zeros((8, 6), dtype=bool)
        mask[[0, 3, 5, 7], 0] = True   # support A
        mask[[1, 2, 4, 6], 1] = True   # support B
        groups = group_rows_by_support(mask, 4)
        as_sets = {frozenset(g.tolist()) for g in groups}
        assert frozenset({0, 3, 5, 7}) in as_sets
        assert frozenset({1, 2, 4, 6}) in as_sets

    def test_always_returns_full_groups(self, rng):
        mask = rng.random((16, 8)) < 0.3
        groups = group_rows_by_support(mask, 4)
        assert len(groups) == 4
        assert all(len(g) == 4 for g in groups)
        all_rows = np.concatenate(groups)
        assert sorted(all_rows.tolist()) == list(range(16))

    def test_invalid_group_size(self, rng):
        with pytest.raises(ValueError):
            group_rows_by_support(np.zeros((10, 4)), 4)

    def test_groups_to_permutation_validates(self):
        groups = [np.array([0, 1]), np.array([2, 3])]
        np.testing.assert_array_equal(groups_to_permutation(groups, 4), [0, 1, 2, 3])
        with pytest.raises(ValueError):
            groups_to_permutation([np.array([0, 1]), np.array([1, 2])], 4)

"""Tests for the magnitude masks of every pattern and the Shfl-BW
pattern-search algorithm (Figure 5)."""

import numpy as np
import pytest

import repro.core.pruning as pruning_module
from repro.core.pruning import (
    balanced_mask,
    block_keep_flags,
    block_wise_mask,
    prune_shflbw,
    search_shflbw_pattern,
    unstructured_mask,
    vector_wise_mask,
)
from repro.sparse.validate import is_balanced, is_blockwise, is_shflbw, is_vector_wise


class TestUnstructuredMask:
    def test_keeps_requested_fraction(self, rng):
        scores = rng.random((16, 16))
        mask = unstructured_mask(scores, 0.25)
        assert mask.sum() == 64

    def test_keeps_largest_scores(self):
        scores = np.arange(16, dtype=float).reshape(4, 4)
        mask = unstructured_mask(scores, 0.25)
        assert mask[3, 3] and mask[3, 2] and mask[3, 1] and mask[3, 0]
        assert not mask[0, 0]

    def test_keeps_largest_magnitudes(self, rng):
        weight = rng.normal(size=(64, 64))
        mask = unstructured_mask(np.abs(weight), 0.1)
        assert np.abs(weight[mask]).min() >= np.abs(weight[~mask]).max()

    def test_full_density_keeps_everything(self, rng):
        assert unstructured_mask(rng.random((4, 4)), 1.0).all()

    def test_negative_scores_rejected(self):
        scores = np.ones((4, 4))
        scores[0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            unstructured_mask(scores, 0.5)
        with pytest.raises(ValueError, match="non-negative"):
            vector_wise_mask(scores, 0.5, 2)
        with pytest.raises(ValueError, match="non-negative"):
            search_shflbw_pattern(scores, 0.5, 2)

    def test_one_dimensional_scores_rejected(self):
        scores = np.ones(16)
        with pytest.raises(ValueError, match="2-D"):
            unstructured_mask(scores, 0.5)
        with pytest.raises(ValueError, match="2-D"):
            vector_wise_mask(scores, 0.5, 2)
        with pytest.raises(ValueError, match="2-D"):
            search_shflbw_pattern(scores, 0.5, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # NaN compares False against 0, so it used to slip past the
        # negativity check and silently corrupt the argsort-based masks.
        scores = np.ones((4, 4))
        scores[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            unstructured_mask(scores, 0.5)
        with pytest.raises(ValueError, match="finite"):
            vector_wise_mask(scores, 0.5, 2)
        with pytest.raises(ValueError, match="finite"):
            search_shflbw_pattern(scores, 0.5, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_message_wins_over_negative(self, bad):
        scores = np.ones((4, 4))
        scores[0, 0] = -1.0
        scores[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            unstructured_mask(scores, 0.5)

    def test_negative_zero_accepted(self):
        scores = np.full((4, 4), -0.0)
        np.testing.assert_array_equal(
            unstructured_mask(scores, 0.25), unstructured_mask(np.zeros((4, 4)), 0.25)
        )

    def test_empty_matrix_accepted(self):
        assert pruning_module._check_scores(np.empty((0, 4))).shape == (0, 4)
        assert unstructured_mask(np.empty((0, 4)), 0.5).shape == (0, 4)

    def test_invalid_density(self, rng):
        with pytest.raises(ValueError):
            unstructured_mask(rng.random((4, 4)), 0.0)
        with pytest.raises(ValueError):
            unstructured_mask(rng.random((4, 4)), 1.1)


class TestVectorWiseMask:
    def test_mask_is_vector_wise(self, rng):
        scores = rng.random((32, 24))
        mask = vector_wise_mask(scores, 0.25, 8)
        assert is_vector_wise(mask, 8)

    def test_each_group_keeps_same_column_count(self, rng):
        scores = rng.random((16, 20))
        mask = vector_wise_mask(scores, 0.25, 4)
        kept_per_group = mask.reshape(4, 4, 20).any(axis=1).sum(axis=1)
        assert np.all(kept_per_group == 5)

    def test_keeps_highest_scoring_columns(self):
        scores = np.zeros((4, 8))
        scores[:, 2] = 10.0
        scores[:, 6] = 5.0
        mask = vector_wise_mask(scores, 0.25, 4)
        assert mask[:, 2].all() and mask[:, 6].all()
        assert mask.sum() == 8

    def test_indivisible_rows_rejected(self, rng):
        with pytest.raises(ValueError):
            vector_wise_mask(rng.random((10, 8)), 0.5, 4)

    def test_retains_at_least_blockwise_score(self, rng):
        scores = np.abs(rng.normal(size=(64, 64)))
        vw = vector_wise_mask(scores, 0.25, 16)
        bw = block_wise_mask(scores, 0.25, 16)
        assert scores[vw].sum() >= scores[bw].sum() * 0.999


class TestBlockWiseMask:
    def test_mask_is_blockwise(self, rng):
        assert is_blockwise(block_wise_mask(rng.random((64, 64)), 0.25, 16), 16)

    def test_density_close_to_target(self, rng):
        mask = block_wise_mask(rng.random((64, 64)), 0.25, 8)
        assert mask.mean() == pytest.approx(0.25, abs=0.05)

    def test_indivisible_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="not divisible"):
            block_wise_mask(rng.random((40, 64)), 0.5, 16)


class TestBalancedMask:
    def test_mask_is_balanced(self, rng):
        mask = balanced_mask(rng.random((64, 64)))
        assert is_balanced(mask)
        assert mask.mean() == 0.5

    def test_custom_n_m(self, rng):
        assert is_balanced(balanced_mask(rng.random((8, 16)), n=1, m=4), n=1, m=4)


class TestBlockKeepFlags:
    def test_row_slabs_give_the_whole_matrix_flags(self, rng):
        """Block sums are ranked over every slab at once, however the rows
        are split; :func:`block_wise_mask` expands the same flags."""
        scores = rng.random((96, 64))
        whole = block_keep_flags([scores], 0.3, 8)
        assert whole.shape == (12, 8)
        assert whole.sum() == round(0.3 * 96)
        expanded = block_wise_mask(scores, 0.3, 8)
        assert np.array_equal(expanded, whole.repeat(8, axis=0).repeat(8, axis=1))
        for rows in (8, 24, 64):
            slabs = (scores[start : start + rows] for start in range(0, 96, rows))
            assert np.array_equal(block_keep_flags(slabs, 0.3, 8), whole)

    def test_slab_of_partial_block_rows_rejected(self, rng):
        scores = rng.random((96, 64))
        with pytest.raises(ValueError, match=r"\(84, 64\) is not divisible by V=8"):
            block_keep_flags([scores[:84], scores[84:]], 0.3, 8)


class TestSearchShflBW:
    def test_mask_satisfies_pattern(self, rng):
        scores = rng.random((32, 48))
        result = search_shflbw_pattern(scores, density=0.25, vector_size=8)
        assert is_shflbw(result.mask, 8, result.row_indices)
        assert result.density == pytest.approx(0.25, abs=0.03)

    def test_groups_partition_rows(self, rng):
        scores = rng.random((24, 16))
        result = search_shflbw_pattern(scores, density=0.5, vector_size=8)
        rows = sorted(r for g in result.groups for r in g)
        assert rows == list(range(24))

    def test_retained_fraction_bounded(self, rng):
        scores = rng.random((32, 32))
        result = search_shflbw_pattern(scores, density=0.25, vector_size=8)
        assert 0.0 < result.retained_fraction <= 1.0
        assert result.retained_score <= result.total_score

    def test_shuffling_beats_plain_vector_wise_on_clusterable_scores(self, rng):
        # Construct scores where rows with similar supports are interleaved:
        # plain vector-wise (consecutive groups) is forced to mix supports,
        # while the shuffled search can group them.
        m, k, v = 32, 64, 8
        supports = [rng.choice(k, size=16, replace=False) for _ in range(4)]
        scores = np.full((m, k), 1.0e-3)
        for i in range(m):
            scores[i, supports[i % 4]] = 1.0 + rng.random(16)
        shfl = search_shflbw_pattern(scores, density=0.25, vector_size=v, seed=0)
        vw_mask = vector_wise_mask(scores, 0.25, v)
        assert scores[shfl.mask].sum() > scores[vw_mask].sum()

    @staticmethod
    def clustered_retained(beta_factor: float, seed: int) -> float:
        """Retained importance at 75 % sparsity on 128 x 256 scores whose
        rows fall into 8 interleaved column-support clusters."""
        rng = np.random.default_rng(seed)
        m, k = 128, 256
        supports = [rng.choice(k, size=k // 3, replace=False) for _ in range(8)]
        scores = rng.random((m, k)) * 0.05
        for i in range(m):
            scores[i, supports[i % 8]] += rng.random(k // 3)
        result = search_shflbw_pattern(
            scores, density=0.25, vector_size=16, beta_factor=beta_factor, seed=seed
        )
        return result.retained_score / scores.sum()

    def test_reduced_sparsity_mask_pays_off(self):
        # Section 5: clustering the mask of a reduced sparsity (beta = 2 alpha,
        # the paper's choice) keeps at least the importance of clustering the
        # final-sparsity mask directly (beta = alpha).
        averaged = {
            beta: np.mean([self.clustered_retained(beta, seed) for seed in range(3)])
            for beta in (1.0, 2.0)
        }
        assert averaged[2.0] >= averaged[1.0] * 0.995

    def test_retained_importance_reasonable_across_beta(self):
        for beta in (1.0, 1.5, 2.0, 3.0, 4.0):
            assert 0.25 < self.clustered_retained(beta, 0) <= 1.0

    def test_deterministic_given_seed(self, rng):
        scores = rng.random((16, 16))
        a = search_shflbw_pattern(scores, 0.5, 4, seed=7)
        b = search_shflbw_pattern(scores, 0.5, 4, seed=7)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)

    def test_accepts_read_only_scores(self, rng):
        # The search never writes to its input, so callers may share one
        # read-only score matrix across searches.
        scores = rng.random((32, 24))
        expected = search_shflbw_pattern(scores.copy(), 0.25, 8, seed=3)
        scores.flags.writeable = False
        actual = search_shflbw_pattern(scores, 0.25, 8, seed=3)
        np.testing.assert_array_equal(actual.mask, expected.mask)
        np.testing.assert_array_equal(actual.row_indices, expected.row_indices)
        assert actual.retained_score == expected.retained_score

    def test_beta_factor_validated(self, rng):
        with pytest.raises(ValueError):
            search_shflbw_pattern(rng.random((8, 8)), 0.5, 4, beta_factor=0.0)

    def test_indivisible_rows_rejected(self, rng):
        with pytest.raises(ValueError):
            search_shflbw_pattern(rng.random((10, 8)), 0.5, 4)

    def test_scores_validated_once(self, rng, monkeypatch):
        """Both search stages run on the scores validated at entry; the
        rejections are pinned in TestUnstructuredMask."""
        calls = []
        check = pruning_module._check_scores

        def counted(scores):
            calls.append(None)
            return check(scores)

        monkeypatch.setattr(pruning_module, "_check_scores", counted)
        search_shflbw_pattern(rng.random((32, 24)), 0.25, 8)
        assert len(calls) == 1


class TestPruneShflBW:
    def test_pruned_weights_match_mask(self, rng):
        weights = rng.normal(size=(32, 32))
        pruned, result = prune_shflbw(weights, sparsity=0.75, vector_size=8)
        np.testing.assert_allclose(pruned, weights * result.mask)

    def test_zero_sparsity_keeps_everything(self, rng):
        weights = rng.normal(size=(16, 16))
        pruned, result = prune_shflbw(weights, sparsity=0.0, vector_size=4)
        np.testing.assert_allclose(pruned, weights)

    def test_invalid_sparsity(self, rng):
        with pytest.raises(ValueError):
            prune_shflbw(rng.normal(size=(8, 8)), sparsity=1.0, vector_size=4)

    def test_retains_more_score_than_blockwise(self, rng):
        # The paper's motivation: Shfl-BW is more flexible than block-wise, so
        # it retains at least as much importance at the same sparsity.
        weights = rng.normal(size=(64, 64))
        _, shfl = prune_shflbw(weights, sparsity=0.75, vector_size=16)
        bw = block_wise_mask(np.abs(weights), 0.25, 16)
        assert shfl.retained_score >= np.abs(weights[bw]).sum() * 0.999

    def test_retains_at_least_vector_wise_score_on_structured_scores(self, rng):
        m, k, v = 32, 32, 8
        supports = [rng.choice(k, size=8, replace=False) for _ in range(4)]
        weights = np.full((m, k), 1.0e-3)
        for i in range(m):
            weights[i, supports[i % 4]] = 1.0 + rng.random(8)
        _, shfl = prune_shflbw(weights, sparsity=0.75, vector_size=v)
        vw = vector_wise_mask(np.abs(weights), 0.25, v)
        assert shfl.retained_score >= np.abs(weights[vw]).sum() * 0.999

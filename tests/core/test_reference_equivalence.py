"""Bit-for-bit equivalence of the vectorized pattern-search engine against
the seed loop oracles in :mod:`repro.core.reference`.

Every test asserts *exact* equality — identical assignments, masks, groups
and permutations down to the last bit — across random shapes, densities,
vector sizes (including non-powers-of-two, which exercise the chunked
fallback distance path) and seeds.  Scores are drawn tie-heavy as well as
continuous, because the engine's top-k selection and pair ordering resolve
ties differently from a stable sort and must still land on its answer.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.kmeans import (
    _balanced_assignment,
    _is_binary,
    _pair_order,
    _pairwise_sq_dists,
    balanced_kmeans,
    kmeans_plusplus_init,
)
from repro.core.pruning import search_shflbw_pattern, unstructured_mask, vector_wise_mask
from repro.core.reference import (
    balanced_assignment_loop,
    balanced_kmeans_loop,
    group_rows_by_support_loop,
    kmeans_plusplus_init_loop,
    search_shflbw_pattern_loop,
    unstructured_mask_loop,
    vector_wise_mask_loop,
)
from repro.core.transforms import group_rows_by_support

SETTINGS = dict(max_examples=30, deadline=None)

# Vector sizes cover both distance paths: powers of two take the exact
# Gram-matrix fast path on binary points, the rest the chunked broadcast.
VECTOR_SIZES = [1, 2, 3, 4, 5, 7, 8, 16]


@st.composite
def clustering_case(draw):
    """Random points (binary or float), centroids and a capacity."""
    v = draw(st.sampled_from(VECTOR_SIZES))
    num_groups = draw(st.integers(min_value=1, max_value=5))
    k_dim = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    binary = draw(st.booleans())
    rng = np.random.default_rng(seed)
    m = v * num_groups
    if binary:
        points = (rng.random((m, k_dim)) < rng.random()).astype(np.float64)
    else:
        points = rng.normal(size=(m, k_dim)) * (10.0 ** float(rng.integers(-3, 4)))
    # Centroids as either raw rows (the k-means++ case) or means of v rows
    # (the Lloyd-update case, dyadic on binary points).
    if draw(st.booleans()):
        centroids = points[rng.permutation(m)[:num_groups]].copy()
    else:
        centroids = np.stack(
            [points[rng.integers(0, m, size=v)].mean(axis=0) for _ in range(num_groups)]
        )
    return points, centroids, v


def _scores(rng: np.random.Generator, shape: tuple[int, int], kind: str) -> np.ndarray:
    """Non-negative scores: continuous, or tie-heavy in one of three ways."""
    if kind == "normal":
        return np.abs(rng.normal(size=shape))
    if kind == "constant":
        return np.full(shape, float(rng.integers(0, 3)))
    scores = rng.integers(0, 3, size=shape).astype(np.float64)
    if kind == "signed-zero":
        # -0.0 passes the non-negativity check and ties with +0.0.
        scores[(scores == 0) & (rng.random(shape) < 0.5)] = -0.0
    return scores


SCORE_KINDS = ["normal", "small-int", "signed-zero", "constant"]

# Densities near 0 keep a single entry; 1.0 keeps everything.
DENSITIES = st.one_of(
    st.floats(min_value=0.02, max_value=1.0), st.sampled_from([1e-9, 0.01, 1.0])
)


@st.composite
def scores_and_v(draw):
    """Random non-negative scores with a vector size dividing the rows."""
    v = draw(st.sampled_from(VECTOR_SIZES))
    num_groups = draw(st.integers(min_value=1, max_value=5))
    k_dim = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    kind = draw(st.sampled_from(SCORE_KINDS))
    rng = np.random.default_rng(seed)
    return _scores(rng, (v * num_groups, k_dim), kind), v


class TestBalancedAssignment:
    @given(clustering_case())
    @settings(**SETTINGS)
    def test_bitwise_equal_to_loop(self, case):
        points, centroids, v = case
        expected = balanced_assignment_loop(points, centroids, v)
        actual = _balanced_assignment(points, centroids, v)
        np.testing.assert_array_equal(actual, expected)

    @given(clustering_case())
    @settings(**SETTINGS)
    def test_distances_bitwise_equal_to_broadcast(self, case):
        points, centroids, v = case
        seed_dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        dists, _ = _pairwise_sq_dists(points, centroids, v, _is_binary(points))
        np.testing.assert_array_equal(dists, seed_dists)


class TestPairOrder:
    """The integer-key order against the stable float argsort it replaces."""

    @given(
        st.sampled_from(VECTOR_SIZES),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 2, 5, 64, 65]),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(**SETTINGS)
    def test_equals_stable_argsort(self, v, num_groups, k_dim, seed):
        rng = np.random.default_rng(seed)
        m = v * num_groups
        # Few distinct supports, so equal distances (ties) are common.
        points = (rng.random((m, k_dim)) < rng.random()).astype(np.float64)
        centroids = np.stack(
            [points[rng.integers(0, m, size=v)].mean(axis=0) for _ in range(num_groups)]
        )
        dists, denom = _pairwise_sq_dists(points, centroids, v, True)
        if v & (v - 1) == 0:
            assert denom is not None  # power-of-two capacity: the key path
        expected = np.argsort(dists, axis=None, kind="stable")
        np.testing.assert_array_equal(_pair_order(dists, denom, k_dim), expected)

    def test_keys_that_would_overflow_fall_back(self):
        rng = np.random.default_rng(3)
        dists = rng.integers(0, 3, size=(8, 4)).astype(np.float64)
        expected = np.argsort(dists, axis=None, kind="stable")
        # (dim * D**2 + 1) * n * k >= 2**63: the keys would not fit int64.
        np.testing.assert_array_equal(_pair_order(dists, 1, 1 << 59), expected)


class TestKMeansPlusPlus:
    @given(
        st.sampled_from([1, 63, 64, 65, 130]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(["binary", "zero-rows", "all-zero", "normal"]),
        st.data(),
    )
    @settings(**SETTINGS)
    def test_centroids_and_draws_identical_to_loop(self, k_dim, n, seed, kind, data):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            points = rng.normal(size=(n, k_dim))
        else:
            points = (rng.random((n, k_dim)) < rng.random()).astype(np.float64)
            if kind == "zero-rows":
                points[rng.random(n) < 0.5] = 0.0
            elif kind == "all-zero":
                points[:] = 0.0
        num_clusters = data.draw(st.integers(min_value=1, max_value=n))
        expected_rng = np.random.default_rng(seed + 1)
        actual_rng = np.random.default_rng(seed + 1)
        expected = kmeans_plusplus_init_loop(points, num_clusters, expected_rng)
        actual = kmeans_plusplus_init(points, num_clusters, actual_rng)
        np.testing.assert_array_equal(actual, expected)
        assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


class TestBalancedKMeans:
    @given(
        st.sampled_from(VECTOR_SIZES),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    @settings(**SETTINGS)
    def test_groups_identical_to_loop(self, v, num_groups, k_dim, iters, seed, binary):
        rng = np.random.default_rng(seed)
        m = v * num_groups
        if binary:
            points = (rng.random((m, k_dim)) < rng.random()).astype(np.float64)
        else:
            points = rng.normal(size=(m, k_dim))
        expected = balanced_kmeans_loop(points, v, num_iters=iters, seed=seed)
        actual = balanced_kmeans(points, v, num_iters=iters, seed=seed)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected, strict=True):
            np.testing.assert_array_equal(got, want)


class TestUnstructuredMask:
    @given(scores_and_v(), DENSITIES)
    @settings(**SETTINGS)
    def test_mask_identical_to_loop(self, case, density):
        scores, _ = case
        expected = unstructured_mask_loop(scores, density)
        actual = unstructured_mask(scores, density)
        np.testing.assert_array_equal(actual, expected)


class TestVectorWiseMask:
    @given(scores_and_v(), DENSITIES)
    @settings(**SETTINGS)
    def test_mask_identical_to_loop(self, case, density):
        scores, v = case
        expected = vector_wise_mask_loop(scores, density, v)
        actual = vector_wise_mask(scores, density, v)
        np.testing.assert_array_equal(actual, expected)


class TestGroupRowsBySupport:
    @given(
        st.sampled_from(VECTOR_SIZES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**16),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(**SETTINGS)
    def test_groups_identical_to_loop(self, v, num_groups, k_dim, seed, fill):
        rng = np.random.default_rng(seed)
        mask = rng.random((v * num_groups, k_dim)) < fill
        expected = group_rows_by_support_loop(mask, v)
        actual = group_rows_by_support(mask, v)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_repeated_supports_with_remainders(self):
        # Multiplicities that are not multiples of V exercise the leftover
        # pooling in both implementations.
        mask = np.zeros((12, 5), dtype=bool)
        mask[[0, 2, 4, 6, 8], 0] = True
        mask[[1, 3, 5], 1] = True
        mask[[7, 9], 2] = True
        # rows 10, 11 keep the empty support
        expected = group_rows_by_support_loop(mask, 4)
        actual = group_rows_by_support(mask, 4)
        assert len(actual) == len(expected) == 3
        for got, want in zip(actual, expected, strict=True):
            np.testing.assert_array_equal(got, want)


class TestSearchEquivalence:
    @given(
        scores_and_v(),
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_search_identical_to_loop(self, case, density, iters, seed):
        scores, v = case
        expected = search_shflbw_pattern_loop(
            scores, density, v, kmeans_iters=iters, seed=seed
        )
        actual = search_shflbw_pattern(
            scores, density, v, kmeans_iters=iters, seed=seed
        )
        np.testing.assert_array_equal(actual.mask, expected.mask)
        np.testing.assert_array_equal(actual.row_indices, expected.row_indices)
        assert actual.groups == expected.groups
        assert actual.retained_score == expected.retained_score
        assert actual.total_score == expected.total_score

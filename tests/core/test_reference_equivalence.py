"""Bit-for-bit equivalence of the vectorized pattern-search engine against
the seed loop oracles in :mod:`repro.core.reference`.

Every test asserts *exact* equality — identical assignments, masks, groups
and permutations down to the last bit — across random shapes, densities,
vector sizes (including non-powers-of-two, which exercise the chunked
fallback distance path) and seeds.  Scores are drawn tie-heavy as well as
continuous, because the engine's top-k selection and proposal greedy resolve
ties differently from a stable sort and must still land on its answer.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.kmeans import (
    _as_rows,
    _balanced_assignment,
    _balanced_centroids,
    _broadcast_sq_dists,
    _exact_denominator,
    _gemm_dtype,
    _greedy_assignment,
    _key_bits,
    _numerators,
    _sq_distances,
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
# integer path on binary points, the rest the chunked broadcast.
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
        rows = _as_rows(points)
        np.testing.assert_array_equal(_broadcast_sq_dists(rows, centroids), seed_dists)
        denom = _exact_denominator(centroids, v)
        if rows.dtype != bool or denom is None:
            return
        # The exact path: integer numerators over D**2 are the seed's floats.
        numerators = _numerators(rows, centroids, denom)
        np.testing.assert_array_equal(numerators / float(denom * denom), seed_dists)


def _seed_order(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The seed's visiting order: stable argsort of the broadcast distances."""
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(dists, axis=None, kind="stable")


def _greedy_follows_seed(rows: np.ndarray, centroids: np.ndarray, capacity: int):
    """Assert that the distances the greedy is given order the pairs as the
    seed's stable argsort does, and that it assigns as the seed's loop;
    return those distances and their bound."""
    points = rows.astype(np.float64)
    dists, bound = _sq_distances(rows, centroids, capacity)
    order = np.argsort(dists, axis=None, kind="stable")
    np.testing.assert_array_equal(order, _seed_order(points, centroids))
    np.testing.assert_array_equal(
        _greedy_assignment(dists, bound, capacity),
        balanced_assignment_loop(points, centroids, capacity),
    )
    return dists, bound


class TestPairOrder:
    """The greedy's distances (integer numerators, or the seed's floats it
    ranks) against the stable float argsort of the seed's pairs."""

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
        rows = rng.random((m, k_dim)) < rng.random()
        points = rows.astype(np.float64)
        centroids = np.stack(
            [points[rng.integers(0, m, size=v)].mean(axis=0) for _ in range(num_groups)]
        )
        dists, bound = _greedy_follows_seed(rows, centroids, v)
        if v & (v - 1) == 0:  # power-of-two capacity: the integer path
            assert _exact_denominator(centroids, v) is not None
            assert dists.dtype.kind == "i"
            assert _key_bits(m, num_groups, bound) is not None

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_float64_gemm_past_the_float32_bound(self, seed):
        rng = np.random.default_rng(seed)
        n, k, dim, denom = 48, 8, 512, 1 << 16
        rows = rng.random((n, dim)) < rng.uniform(0.6, 1.0)
        # Numerators near D: the dot products, about popcount * D, pass
        # 2**24, beyond what a float32 GEMM sums exactly.
        centroids = (denom - rng.integers(0, 3, size=(k, dim))) / denom
        assert _gemm_dtype(dim, denom) is np.float64
        assert _exact_denominator(centroids, denom) == denom
        dists, bound = _greedy_follows_seed(rows, centroids, denom)
        assert dists.dtype == np.int64
        assert _key_bits(n, k, bound) is not None

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_keys_that_would_overflow_fall_back(self, seed):
        rng = np.random.default_rng(seed)
        n, k, dim, denom = 64, 64, 15, 1 << 24
        # Against near-zero centroids d * D**2 is about popcount * 2**48:
        # below dim * D**2 < 2**52 (the seed's sums stay exact), but shifted
        # past the 12 pair-index bits it would not fit int64 for the rows
        # with 8 or more ones, so the greedy ranks the numerators.
        rows = rng.random((n, dim)) < 0.5
        centroids = rng.integers(0, 1 << 20, size=(k, dim)) / denom
        assert _exact_denominator(centroids, denom) == denom
        dists, bound = _greedy_follows_seed(rows, centroids, denom)
        assert dists.dtype == np.int64
        assert bound < 1 << 52
        assert _key_bits(n, k, bound) is None

    def test_centroids_outside_the_unit_interval_fall_back(self):
        rng = np.random.default_rng(11)
        rows = rng.random((16, 8)) < 0.5
        # Integral, but far past the dim * D**2 bound the numerators rely on.
        centroids = rng.integers(-(2**40), 2**40, size=(4, 8)).astype(np.float64)
        assert _exact_denominator(centroids, 4) is None
        dists, bound = _greedy_follows_seed(rows, centroids, 4)
        assert dists.dtype == np.float64
        assert bound is None


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


class TestBooleanRows:
    """``bool`` rows, as the search passes its coarse mask, against the
    oracles run on the same rows as float64."""

    @given(
        st.sampled_from([1, 63, 64, 65, 130]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(["binary", "zero-rows", "all-zero"]),
        st.data(),
    )
    @settings(**SETTINGS)
    def test_kmeans_plusplus_identical_to_loop(self, k_dim, n, seed, kind, data):
        rng = np.random.default_rng(seed)
        rows = rng.random((n, k_dim)) < rng.random()
        if kind == "zero-rows":
            rows[rng.random(n) < 0.5] = False
        elif kind == "all-zero":
            rows[:] = False
        num_clusters = data.draw(st.integers(min_value=1, max_value=n))
        expected_rng = np.random.default_rng(seed + 1)
        actual_rng = np.random.default_rng(seed + 1)
        expected = kmeans_plusplus_init_loop(
            rows.astype(np.float64), num_clusters, expected_rng
        )
        actual = kmeans_plusplus_init(rows, num_clusters, actual_rng)
        assert actual.dtype == np.float64
        np.testing.assert_array_equal(actual, expected)
        assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    @given(
        st.sampled_from(VECTOR_SIZES),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(**SETTINGS)
    def test_balanced_kmeans_identical_to_loop(self, v, num_groups, k_dim, iters, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((v * num_groups, k_dim)) < rng.random()
        expected = balanced_kmeans_loop(
            rows.astype(np.float64), v, num_iters=iters, seed=seed
        )
        actual = balanced_kmeans(rows, v, num_iters=iters, seed=seed)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    @given(
        st.sampled_from(VECTOR_SIZES),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(**SETTINGS)
    def test_centroids_bitwise_equal_to_float_mean(self, v, num_groups, k_dim, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((v * num_groups, k_dim)) < rng.random()
        assign = rng.permutation(np.repeat(np.arange(num_groups), v))
        members = rows.astype(np.float64)[np.argsort(assign, kind="stable")]
        expected = members.reshape(num_groups, v, k_dim).mean(axis=1)
        actual = _balanced_centroids(rows, assign, num_groups, v)
        assert actual.dtype == np.float64
        np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


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

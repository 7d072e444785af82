"""Bit-identity of the bounded-memory pattern-search paths against the
whole-array expressions they replace.

The search avoids every full-size temporary: the unstructured threshold is
selected from a band bracketed by a strided sample, the distance numerators
are built one block of rows at a time, the first Lloyd step's distances are
written while k-means++ measures them (in fixed row-block buffers, with the
seed's draws made inline), the balanced assignment follows each row's best
open cluster instead of sorting every pair, the later Lloyd steps keep only
each row's best cluster and rebuild the distance rows of the rows that
propose again, and the group sums (stage 2's and the centroids') gather the
rows of each group instead of a permuted copy.  Each path must return
exactly what the whole-array expression (or the seed loop) does, so these
properties compare with ``np.array_equal`` on tie-heavy, zero-heavy (with
``-0.0``) and constant draws.  A tracemalloc test bounds what a mid-size
search allocates.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.kmeans as kmeans
import repro.core.pruning as pruning
import repro.core.transforms as transforms
from repro.core.reference import (
    balanced_assignment_loop,
    balanced_kmeans_loop,
    kmeans_plusplus_init_loop,
    vector_wise_mask_loop,
)

SETTINGS = dict(max_examples=60, deadline=None)

SCORE_KINDS = ("mixed", "ties", "zeros", "constant")
ROW_KINDS = ("random", "ties", "zeros", "constant")

draws = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(SCORE_KINDS))


def _scores(rng: np.random.Generator, shape, kind: str) -> np.ndarray:
    """Non-negative scores: mixed magnitudes, few distinct values, mostly
    zeros (half of them ``-0.0``), or one constant."""
    if kind == "ties":
        return rng.choice([0.0, 0.5, 1.0, 3.0], size=shape)
    if kind == "constant":
        return np.full(shape, float(rng.integers(0, 3)))
    x = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.integers(-3, 4, size=shape)
    if kind == "zeros":
        x[rng.random(shape) < 0.8] = 0.0
        x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
    return x


def _rows(rng: np.random.Generator, n: int, dim: int, kind: str) -> np.ndarray:
    """Binary rows: random, drawn from three supports (tie-heavy), mostly
    empty, or all the same."""
    if kind == "ties":
        return (rng.random((3, dim)) < 0.5)[rng.integers(0, 3, size=n)]
    if kind == "zeros":
        return (rng.random((n, dim)) < 0.5) & (rng.random((n, 1)) < 0.2)
    if kind == "constant":
        return np.repeat(rng.random((1, dim)) < 0.5, n, axis=0)
    return rng.random((n, dim)) < rng.random()


class TestBandThreshold:
    """The band-selected unstructured threshold against ``np.partition``."""

    @settings(**SETTINGS)
    @given(
        sample=st.sampled_from([4, 16, 64]),
        multiple=st.integers(0, 4),
        offset=st.integers(-1, 1),
        draw=draws,
        data=st.data(),
    )
    def test_equals_partition_around_the_stride(self, sample, multiple, offset, draw, data):
        # Sizes next to multiples of the sample size step the stride.
        size = max(2, sample * multiple + offset)
        seed, kind = draw
        values = _scores(np.random.default_rng(seed), size, kind)
        keep = data.draw(
            st.one_of(st.just(1), st.just(size - 1), st.integers(1, size - 1))
        )
        with mock.patch.object(pruning, "_SAMPLE", sample):
            threshold = pruning._band_threshold(values, keep)
        assert threshold == np.partition(values, size - keep)[size - keep]

    @settings(**SETTINGS)
    @given(size=st.integers(1, 300), draw=draws, data=st.data())
    def test_mask_equals_stable_argsort(self, size, draw, data):
        seed, kind = draw
        values = _scores(np.random.default_rng(seed), size, kind)
        keep = data.draw(st.one_of(st.just(1), st.just(size), st.integers(1, size)))
        expected = np.zeros(size, dtype=bool)
        expected[np.argsort(-values, kind="stable")[:keep]] = True
        with mock.patch.object(pruning, "_SAMPLE", 16):
            mask = pruning._top_k_mask(values.reshape(1, -1), keep)
        assert np.array_equal(mask.reshape(-1), expected)

    @pytest.mark.parametrize("keep, threshold", [(64, 2.0), (65, 1.0), (128, 1.0), (129, 0.0)])
    def test_band_that_misses_is_widened(self, keep, threshold):
        # Period 3 under stride 3: the sample sees only the zeros, so the
        # first band is [0, 0], which misses every threshold but the last
        # (at keep = 128 exactly keep entries lie above it).
        values = np.tile([0.0, 1.0, 2.0], 64)
        with mock.patch.object(pruning, "_SAMPLE", 64):
            assert not values[:: (values.size // 64) | 1].any()
            assert pruning._band_threshold(values, keep) == threshold


def _exact_numerators(rows: np.ndarray, centroids: np.ndarray, denom: int) -> np.ndarray:
    """Whole-matrix ``d * D**2`` in exact int64 arithmetic, one term per entry."""
    scaled = rows.astype(np.int64) * denom
    numerators = (centroids * denom).astype(np.int64)
    return ((scaled[:, None, :] - numerators[None, :, :]) ** 2).sum(axis=2)


class TestBlockedKeys:
    """The greedy's integer keys, the numerators ``d * D**2``, built one
    block of rows at a time, against whole-matrix numerators."""

    @settings(**SETTINGS)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 6),
        dim=st.sampled_from([1, 3, 64, 65]),
        denom=st.sampled_from([1, 2, 8, 64]),
        block_rows=st.integers(1, 41),
        kind=st.sampled_from(ROW_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float32_regime(self, n, k, dim, denom, block_rows, kind, seed):
        rng = np.random.default_rng(seed)
        rows = _rows(rng, n, dim, kind)
        centroids = rng.integers(0, denom + 1, size=(k, dim)) / denom
        assert kmeans._gemm_dtype(dim, denom) is np.float32
        with mock.patch.object(kmeans, "_CHUNK_ELEMENTS", block_rows * dim):
            numerators = kmeans._numerators(rows, centroids, denom)
        # int16 or int32 here: narrow, but wide enough for 2 K D**2.
        assert numerators.dtype in (np.int16, np.int32)
        assert np.iinfo(numerators.dtype).max > 2 * dim * denom * denom
        assert np.array_equal(numerators, _exact_numerators(rows, centroids, denom))

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(1, 24),
        block_rows=st.integers(1, 25),
        kind=st.sampled_from(ROW_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float64_regime(self, n, block_rows, kind, seed):
        rng = np.random.default_rng(seed)
        k, dim, denom = 4, 512, 1 << 16
        rows = _rows(rng, n, dim, kind)
        # Numerators near D: the dot products pass 2**24, beyond float32,
        # and 2 K D**2 passes 2**31, beyond int32.
        centroids = (denom - rng.integers(0, 3, size=(k, dim))) / denom
        assert kmeans._gemm_dtype(dim, denom) is np.float64
        with mock.patch.object(kmeans, "_CHUNK_ELEMENTS", block_rows * dim):
            numerators = kmeans._numerators(rows, centroids, denom)
        assert numerators.dtype == np.int64
        assert np.array_equal(numerators, _exact_numerators(rows, centroids, denom))


class TestSeededKeys:
    """The first Lloyd step's distances, written during k-means++ seeding
    into the row-major ``(n, k)`` matrix the first assignment reads."""

    @settings(**SETTINGS)
    @given(
        n=st.integers(1, 60),
        dim=st.sampled_from([1, 5, 64, 130]),
        kind=st.sampled_from(ROW_KINDS),
        seed=st.integers(0, 2**32 - 1),
        staged=st.integers(1, 8),
        block_words=st.sampled_from([1, 3, 1 << 16]),
        data=st.data(),
    )
    def test_equal_pair_keys_on_the_seeds(
        self, n, dim, kind, seed, staged, block_words, data
    ):
        # Staging from one seed up, and XOR blocks down to one row.
        rows = _rows(np.random.default_rng(seed), n, dim, kind)
        k = data.draw(st.integers(1, n))
        dists = np.empty((n, k), dtype=kmeans._int_dtype(dim))
        assert dists.dtype == np.int16
        rng, plain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with (
            mock.patch.object(kmeans, "_STAGED_SEEDS", staged),
            mock.patch.object(kmeans, "_SEED_WORDS", block_words),
        ):
            seeds = kmeans.kmeans_plusplus_init(rows, k, rng, dists=dists)
        assert np.array_equal(seeds, kmeans.kmeans_plusplus_init(rows, k, plain_rng))
        assert rng.bit_generator.state == plain_rng.bit_generator.state
        assert kmeans._exact_denominator(seeds, 1) == 1
        assert np.array_equal(dists, kmeans._numerators(rows, seeds, 1))
        oracle_dists = np.empty_like(dists)
        kmeans_plusplus_init_loop(
            rows.astype(np.float64), k, np.random.default_rng(seed), dists=oracle_dists
        )
        assert np.array_equal(dists, oracle_dists)

    @settings(max_examples=30, deadline=None)
    @given(
        v=st.sampled_from([1, 2, 4, 8]),
        num_groups=st.integers(1, 5),
        dim=st.integers(1, 24),
        iters=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_fallback_when_seed_keys_do_not_fit(self, v, num_groups, dim, iters, seed):
        # Seed distances whose keys would not fit int64 are ranked first.
        m = v * num_groups
        rows = np.random.default_rng(seed).random((m, dim)) < 0.5
        expected = balanced_kmeans_loop(rows.astype(np.float64), v, num_iters=iters, seed=seed)
        real_bits = kmeans._key_bits
        bounds = []

        def no_seed_keys(n, k, bound):
            bounds.append(bound)
            return None if len(bounds) == 1 else real_bits(n, k, bound)

        with mock.patch.object(kmeans, "_key_bits", no_seed_keys):
            actual = kmeans.balanced_kmeans(rows, v, num_iters=iters, seed=seed)
        # The seeds' keys are refused, then their ranks (below m * k) key the
        # greedy; one group needs no seeding at all.
        assert bounds[:2] == ([] if num_groups == 1 else [dim, m * num_groups - 1])
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("iters, gemms", [(1, 0), (2, 1)])
    def test_first_step_runs_no_gemm(self, iters, gemms):
        # Each later step builds its numerators a block at a time, and no
        # step stores an (n, k) matrix but the seeds'.
        rows = np.random.default_rng(5).random((256, 64)) < 0.3
        builders = []

        class Counted(kmeans._NumeratorBlocks):
            def __init__(self, *args):
                builders.append(None)
                super().__init__(*args)

        whole = mock.Mock(side_effect=AssertionError("a stored (n, k) matrix"))
        with (
            mock.patch.object(kmeans, "_NumeratorBlocks", Counted),
            mock.patch.object(kmeans, "_sq_distances", whole),
        ):
            kmeans.balanced_kmeans(rows, 16, num_iters=iters, seed=0)
        assert len(builders) == gemms

    def test_keys_need_binary_points(self):
        points = np.random.default_rng(0).normal(size=(8, 4))
        with pytest.raises(ValueError, match="binary"):
            kmeans.kmeans_plusplus_init(
                points, 2, np.random.default_rng(0), dists=np.empty((8, 2), dtype=np.int16)
            )


def _choice_vector(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """Non-negative integer distances with a positive sum: mostly zeros, one
    non-zero entry, uint64 popcount sums, or entries near 2**40."""
    if kind == "zeros":
        closest = rng.integers(0, 5, size=n) * (rng.random(n) < 0.1)
    elif kind == "single":
        closest = np.zeros(n, dtype=np.int16)
        closest[rng.integers(n)] = rng.integers(1, 2**15)
    elif kind == "uint64":
        closest = rng.integers(0, 1025, size=n).astype(np.uint64)
    else:
        closest = rng.integers(2**39, 2**40, size=n)
    if not closest.any():
        closest[rng.integers(n)] = 1
    return closest


class TestInlineChoice:
    """k-means++'s draw without ``Generator.choice``'s validation passes."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.just(1), st.integers(1, 500)),
        kind=st.sampled_from(["zeros", "single", "uint64", "large"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_generator_choice(self, n, kind, seed):
        closest = _choice_vector(np.random.default_rng(seed), n, kind)
        total = closest.sum()
        rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        index = kmeans._choice(closest, total, rng)
        assert index == int(choice_rng.choice(n, p=closest / total))
        assert rng.bit_generator.state == choice_rng.bit_generator.state


@st.composite
def greedy_case(draw):
    """Tie-heavy binary rows, centroids and the ``(n, k)`` distances of one
    distance type, as the greedy receives them."""
    capacity = draw(st.one_of(st.just(1), st.sampled_from([1, 2, 4, 8, 16])))
    k = draw(st.one_of(st.just(1), st.integers(1, 8)))
    dim = draw(st.sampled_from([1, 3, 17, 64, 65]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = _rows(rng, k * capacity, dim, draw(st.sampled_from(ROW_KINDS)))
    points = rows.astype(np.float64)
    path = draw(st.sampled_from(["int16 seeds", "int32", "int64", "ranks"]))
    if path == "int16 seeds":
        dists = np.empty((rows.shape[0], k), dtype=np.int16)
        centroids = kmeans.kmeans_plusplus_init(rows, k, rng, dists=dists)
        return points, centroids, capacity, dists, dim
    if path == "ranks":
        points = rng.normal(size=points.shape).round(int(rng.integers(0, 2)))
        centroids = points[rng.permutation(points.shape[0])[:k]]
        return points, centroids, capacity, kmeans._broadcast_sq_dists(points, centroids), None
    denom = 64 if path == "int32" else 1 << 16
    centroids = rng.integers(0, denom + 1, size=(k, dim)) / denom
    numerators = kmeans._numerators(rows, centroids, denom)
    # Three columns or fewer fit int16 even at D = 64.
    narrow = np.int32 if dim > 3 else np.int16
    assert numerators.dtype == (np.int64 if path == "int64" else narrow)
    return points, centroids, capacity, numerators, dim * denom * denom


class TestProposalGreedy:
    """The proposal greedy against the seed's walk over every sorted pair."""

    @settings(max_examples=200, deadline=None)
    @given(case=greedy_case(), window=st.one_of(st.integers(1, 3), st.integers(1, 1024)))
    def test_equals_loop_on_every_distance_type(self, case, window):
        points, centroids, capacity, dists, bound = case
        expected = balanced_assignment_loop(points, centroids, capacity)
        twins = kmeans._twins(points != 0)
        with mock.patch.object(kmeans, "_WINDOW", window):
            assert np.array_equal(kmeans._greedy_assignment(dists, bound, capacity), expected)
            if bound is not None:  # equal binary rows have equal distances
                actual = kmeans._greedy_assignment(dists, bound, capacity, twins)
                assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("kind", ROW_KINDS)
    @pytest.mark.parametrize("capacity, k, window", [(1, 12, 5), (6, 1, 2), (8, 6, 3)])
    def test_small_capacities_and_narrow_windows(self, kind, capacity, k, window):
        rows = _rows(np.random.default_rng(capacity * k), capacity * k, 9, kind)
        centroids = rows[:: capacity][:k].astype(np.float64)
        expected = balanced_assignment_loop(rows.astype(np.float64), centroids, capacity)
        dists, bound = kmeans._sq_distances(rows, centroids, capacity)
        with mock.patch.object(kmeans, "_WINDOW", window):
            for twins in (None, kmeans._twins(rows)):
                actual = kmeans._greedy_assignment(dists, bound, capacity, twins)
                assert np.array_equal(actual, expected)

    def test_twins_are_first_equal_rows(self):
        rows = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=bool)
        assert kmeans._twins(rows).tolist() == [0, 1, 0, 1, 4]
        assert kmeans._twins(np.zeros((3, 0), dtype=bool)).tolist() == [0, 0, 0]


@st.composite
def lloyd_case(draw):
    """Tie-heavy binary rows and Lloyd centroids, the means of a random
    balanced partition into groups of a power-of-two ``V``."""
    capacity = draw(st.sampled_from([1, 2, 4, 8, 16]))
    k = draw(st.one_of(st.just(1), st.integers(1, 6)))
    dim = draw(st.sampled_from([1, 3, 17, 64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = _rows(rng, k * capacity, dim, draw(st.sampled_from(ROW_KINDS)))
    assign = rng.permutation(np.repeat(np.arange(k), capacity))
    return rows, kmeans._balanced_centroids(rows, assign, k, capacity), capacity


def _stored_assign(points, centroids, capacity, twins=None):
    """A Lloyd step's assignment over its whole stored distance matrix."""
    dists, bound = kmeans._sq_distances(points, centroids, capacity)
    return kmeans._greedy_assignment(dists, bound, capacity, twins)


class TestOnDemandLloyd:
    """Lloyd steps that keep each row's best cluster and rebuild only the
    distance rows of the rows that propose again, against the stored
    matrix's greedy and the seed loops."""

    @settings(max_examples=200, deadline=None)
    @given(
        case=lloyd_case(),
        window=st.one_of(st.integers(1, 3), st.integers(1, 1024)),
        block_rows=st.integers(1, 9),
    )
    def test_assignment_equals_stored_path(self, case, window, block_rows):
        # Blocks from one row up; no (n, k) matrix may be built.
        rows, centroids, capacity = case
        expected = balanced_assignment_loop(rows.astype(np.float64), centroids, capacity)
        twins = kmeans._twins(rows)
        assert np.array_equal(_stored_assign(rows, centroids, capacity, twins), expected)
        whole = mock.Mock(side_effect=AssertionError("a stored (n, k) matrix"))
        with (
            mock.patch.object(kmeans, "_WINDOW", window),
            mock.patch.object(kmeans, "_CHUNK_ELEMENTS", block_rows * rows.shape[1]),
            mock.patch.object(kmeans, "_sq_distances", whole),
        ):
            for pairs in (None, twins):
                actual = kmeans._assign(rows, centroids, capacity, pairs)
                assert np.array_equal(actual, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        v=st.sampled_from([1, 2, 4, 8, 16]),
        num_groups=st.integers(1, 5),
        dim=st.sampled_from([1, 3, 17, 64, 65]),
        kind=st.sampled_from(ROW_KINDS),
        iters=st.integers(1, 4),
        window=st.one_of(st.integers(1, 3), st.integers(1, 1024)),
        block_rows=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_kmeans_equals_stored_path_and_loop(
        self, v, num_groups, dim, kind, iters, window, block_rows, seed
    ):
        rows = _rows(np.random.default_rng(seed), v * num_groups, dim, kind)
        expected = balanced_kmeans_loop(rows.astype(np.float64), v, num_iters=iters, seed=seed)
        with mock.patch.object(kmeans, "_assign", _stored_assign):
            stored = kmeans.balanced_kmeans(rows, v, num_iters=iters, seed=seed)
        with (
            mock.patch.object(kmeans, "_WINDOW", window),
            mock.patch.object(kmeans, "_CHUNK_ELEMENTS", block_rows * dim),
        ):
            actual = kmeans.balanced_kmeans(rows, v, num_iters=iters, seed=seed)
        for groups in (stored, actual):
            assert len(groups) == len(expected)
            for got, want in zip(groups, expected, strict=True):
                assert np.array_equal(got, want)

    def test_equal_rows_share_one_rebuilt_row(self):
        # Every row proposes the first cluster; each time one fills, the
        # rest propose again over a single rebuilt distance row.
        rows = np.repeat(np.random.default_rng(3).random((1, 40)) < 0.5, 64, axis=0)
        centroids = kmeans._balanced_centroids(rows, np.repeat(np.arange(8), 8), 8, 8)
        rebuilt = []

        class Recorded(kmeans._NumeratorBlocks):
            def __call__(self, block_rows, out=None):
                if out is None:
                    rebuilt.append(block_rows.shape[0])
                return super().__call__(block_rows, out)

        expected = balanced_assignment_loop(rows.astype(np.float64), centroids, 8)
        with mock.patch.object(kmeans, "_NumeratorBlocks", Recorded):
            actual = kmeans._assign(rows, centroids, 8, kmeans._twins(rows))
        assert np.array_equal(actual, expected)
        assert rebuilt == [1] * 7


class TestGroupSums:
    """The gathered group sums (stage 2's and the centroids') against the
    permuted reshape sum."""

    @settings(**SETTINGS)
    @given(
        g=st.integers(1, 12),
        v=st.sampled_from([1, 2, 3, 8, 9, 64, 128, 130]),
        k=st.sampled_from([1, 2, 3, 7, 16]),
        draw=draws,
    )
    def test_equal_reshape_sum(self, g, v, k, draw):
        seed, kind = draw
        rng = np.random.default_rng(seed)
        scores = _scores(rng, (g * v, k), kind)
        groups = rng.permutation(g * v).reshape(g, v)
        expected = scores[groups.reshape(-1)].reshape(g, v, k).sum(axis=1)
        sums = transforms._group_sums(scores, groups)
        assert np.array_equal(sums, expected)
        assert np.array_equal(np.signbit(sums), np.signbit(expected))

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.integers(1, 3),
        v=st.sampled_from([1, 2, 255, 256, 300]),
        k=st.sampled_from([1, 2, 7]),
        fill=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bool_rows_add_exact_counts(self, g, v, k, fill, seed):
        # Full groups of 256 rows overflow a uint8 count.
        rng = np.random.default_rng(seed)
        rows = rng.random((g * v, k)) < fill
        groups = rng.permutation(g * v).reshape(g, v)
        counts = rows[groups.reshape(-1)].reshape(g, v, k).sum(axis=1)
        assert np.array_equal(transforms._group_sums(rows, groups), counts)

    @settings(**SETTINGS)
    @given(
        g=st.integers(1, 6),
        v=st.sampled_from([1, 2, 3, 8, 16]),
        k=st.integers(1, 24),
        density=st.floats(0.01, 1.0),
        draw=draws,
    )
    def test_mask_equals_permute_and_reverse(self, g, v, k, density, draw):
        seed, kind = draw
        rng = np.random.default_rng(seed)
        scores = _scores(rng, (g * v, k), kind)
        order = rng.permutation(g * v)
        expected = np.zeros(scores.shape, dtype=bool)
        expected[order] = vector_wise_mask_loop(scores[order], density, v)
        mask = pruning._vector_wise_mask(scores, density, order.reshape(g, v))
        assert np.array_equal(mask, expected)


def test_mid_size_search_allocates_less_than_its_scores():
    """Beyond its input, a search allocates well under the score matrix: no
    full-size copy of the scores, of their permutation, or of the coarse
    mask as floats.  The whole-array search allocated 1.48x here."""
    scores = np.abs(np.random.default_rng(0).normal(size=(4096, 1024)))
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        pruning.search_shflbw_pattern(scores, 0.1, 64, kmeans_iters=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 0.85 * scores.nbytes

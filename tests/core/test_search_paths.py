"""Bit-identity of the bounded-memory pattern-search paths against the
whole-array expressions they replace.

The search avoids every full-size temporary: the unstructured threshold is
selected from a band bracketed by a strided sample, the distance keys are
built one block of rows at a time, the first Lloyd step's keys are written
while k-means++ measures its distances, and the stage-2 group sums gather
the rows of each group instead of a permuted copy of the scores.  Each path
must return exactly what the whole-array expression does, so these
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
from repro.core.reference import (
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


def _exact_keys(rows: np.ndarray, centroids: np.ndarray, denom: int, bits: int) -> np.ndarray:
    """Whole-matrix keys in exact int64 arithmetic, one term per entry."""
    scaled = rows.astype(np.int64) * denom
    numerators = (centroids * denom).astype(np.int64)
    dists = ((scaled[:, None, :] - numerators[None, :, :]) ** 2).sum(axis=2)
    n, k = dists.shape
    return (dists << bits) | np.arange(n * k).reshape(n, k)


class TestBlockedKeys:
    """Keys built one block of rows at a time against whole-matrix keys."""

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
        bits = kmeans._key_bits(n, k, dim, denom)
        with mock.patch.object(kmeans, "_CHUNK_ELEMENTS", block_rows * dim):
            keys = kmeans._pair_keys(rows, centroids, denom, bits)
        assert np.array_equal(keys, _exact_keys(rows, centroids, denom, bits))

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
        # Numerators near D: the dot products pass 2**24, beyond float32.
        centroids = (denom - rng.integers(0, 3, size=(k, dim))) / denom
        assert kmeans._gemm_dtype(dim, denom) is np.float64
        bits = kmeans._key_bits(n, k, dim, denom)
        with mock.patch.object(kmeans, "_CHUNK_ELEMENTS", block_rows * dim):
            keys = kmeans._pair_keys(rows, centroids, denom, bits)
        assert np.array_equal(keys, _exact_keys(rows, centroids, denom, bits))


class TestSeededKeys:
    """The first Lloyd step's keys, written during k-means++ seeding."""

    @settings(**SETTINGS)
    @given(
        n=st.integers(1, 60),
        dim=st.sampled_from([1, 5, 64, 130]),
        kind=st.sampled_from(ROW_KINDS),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equal_pair_keys_on_the_seeds(self, n, dim, kind, seed, data):
        rows = _rows(np.random.default_rng(seed), n, dim, kind)
        k = data.draw(st.integers(1, n))
        bits = kmeans._key_bits(n, k, dim, 1)
        keys = np.empty((k, n), dtype=np.int64)
        rng, plain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        seeds = kmeans.kmeans_plusplus_init(rows, k, rng, keys=keys)
        assert np.array_equal(seeds, kmeans.kmeans_plusplus_init(rows, k, plain_rng))
        assert rng.bit_generator.state == plain_rng.bit_generator.state
        assert kmeans._exact_denominator(seeds, 1) == 1
        assert np.array_equal(keys.T, kmeans._pair_keys(rows, seeds, 1, bits))
        oracle_keys = np.empty_like(keys)
        kmeans_plusplus_init_loop(
            rows.astype(np.float64), k, np.random.default_rng(seed), keys=oracle_keys
        )
        assert np.array_equal(keys, oracle_keys)

    @settings(max_examples=30, deadline=None)
    @given(
        v=st.sampled_from([1, 2, 4, 8]),
        num_groups=st.integers(1, 5),
        dim=st.integers(1, 24),
        iters=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_fallback_when_seed_keys_do_not_fit(self, v, num_groups, dim, iters, seed):
        rows = np.random.default_rng(seed).random((v * num_groups, dim)) < 0.5
        expected = balanced_kmeans_loop(rows.astype(np.float64), v, num_iters=iters, seed=seed)
        real_bits, real_init = kmeans._key_bits, kmeans.kmeans_plusplus_init
        passed = []

        def init(*args, **kwargs):
            passed.append(kwargs.get("keys"))
            return real_init(*args, **kwargs)

        def no_seed_keys(n, k, width, denom):
            return None if denom == 1 else real_bits(n, k, width, denom)

        with (
            mock.patch.object(kmeans, "_key_bits", no_seed_keys),
            mock.patch.object(kmeans, "kmeans_plusplus_init", init),
        ):
            actual = kmeans.balanced_kmeans(rows, v, num_iters=iters, seed=seed)
        assert passed in ([], [None])  # one group needs no seeding at all
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("iters, gemms", [(1, 0), (2, 1)])
    def test_first_step_runs_no_gemm(self, iters, gemms):
        rows = np.random.default_rng(5).random((256, 64)) < 0.3
        real = kmeans._pair_keys
        calls = []

        def counted(*args):
            calls.append(None)
            return real(*args)

        with mock.patch.object(kmeans, "_pair_keys", counted):
            kmeans.balanced_kmeans(rows, 16, num_iters=iters, seed=0)
        assert len(calls) == gemms

    def test_keys_need_binary_points(self):
        points = np.random.default_rng(0).normal(size=(8, 4))
        with pytest.raises(ValueError, match="binary"):
            kmeans.kmeans_plusplus_init(
                points, 2, np.random.default_rng(0), keys=np.empty((2, 8), dtype=np.int64)
            )


class TestGroupSums:
    """Stage 2's gathered group sums against the permuted reshape sum."""

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
        sums = pruning._group_sums(scores, groups)
        assert np.array_equal(sums, expected)
        assert np.array_equal(np.signbit(sums), np.signbit(expected))

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

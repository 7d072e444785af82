"""Tests for the flexibility / computation-efficiency analysis (Section 3.2)."""

import math

import pytest

from repro.core.analysis import (
    analyze_pattern,
    compare_patterns,
    log_binomial,
    log_candidates,
    log_candidates_blockwise,
    log_candidates_shflbw,
    log_candidates_unstructured,
    log_candidates_vectorwise,
    log_factorial,
    log_row_shuffle_multiplier,
)
from repro.gpu.arch import V100


class TestCombinatorics:
    def test_log_factorial_small_values(self):
        assert log_factorial(0) == pytest.approx(0.0)
        assert log_factorial(5) == pytest.approx(math.log(120))

    def test_log_binomial(self):
        assert log_binomial(10, 3) == pytest.approx(math.log(120))
        assert log_binomial(10, 0) == pytest.approx(0.0)
        assert log_binomial(5, 9) == float("-inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


class TestRowShuffleMultiplier:
    def test_paper_example_exceeds_700(self):
        # Section 3.2.1: for M=512, V=128 the multiplier exceeds e^700.
        assert log_row_shuffle_multiplier(512, 128) > 700.0

    def test_trivial_when_single_group(self):
        # V == M: only one group, but rows can still be ordered within it,
        # which the paper's formula counts as V! orderings of one group = 0
        # extra freedom beyond the group itself.
        assert log_row_shuffle_multiplier(16, 16) == pytest.approx(0.0)

    def test_grows_with_group_count(self):
        assert log_row_shuffle_multiplier(256, 32) > log_row_shuffle_multiplier(128, 32)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log_row_shuffle_multiplier(100, 32)


class TestCandidateCounts:
    M, K, V, DENSITY = 512, 512, 32, 0.25

    def test_paper_ordering_unstructured_most_flexible(self):
        unstructured = log_candidates_unstructured(self.M, self.K, self.DENSITY)
        shfl = log_candidates_shflbw(self.M, self.K, self.V, self.DENSITY)
        vw = log_candidates_vectorwise(self.M, self.K, self.V, self.DENSITY)
        bw = log_candidates_blockwise(self.M, self.K, self.V, self.DENSITY)
        # Figure 3 ordering: unstructured > Shfl-BW > vector-wise > block-wise.
        assert unstructured > shfl > vw > bw

    def test_shflbw_gain_is_exactly_the_shuffle_multiplier(self):
        gain = log_candidates_shflbw(self.M, self.K, self.V, self.DENSITY) - log_candidates_vectorwise(
            self.M, self.K, self.V, self.DENSITY
        )
        assert gain == pytest.approx(log_row_shuffle_multiplier(self.M, self.V))

    def test_larger_v_less_flexible(self):
        small = log_candidates_shflbw(self.M, self.K, 32, self.DENSITY)
        large = log_candidates_shflbw(self.M, self.K, 128, self.DENSITY)
        assert small > large

    def test_dispatch_by_name(self):
        assert log_candidates("unstructured", 64, 64, 0.5) == pytest.approx(
            log_candidates_unstructured(64, 64, 0.5)
        )
        assert log_candidates("dense", 64, 64, 1.0) == 0.0

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            log_candidates_vectorwise(30, 64, 32, 0.5)
        with pytest.raises(ValueError):
            log_candidates_blockwise(64, 30, 32, 0.5)


class TestPatternAnalysis:
    def test_compare_patterns_returns_all(self):
        analyses = compare_patterns(V100, 512, 512, 0.1, 64)
        assert {a.pattern for a in analyses} == {
            "unstructured",
            "balanced",
            "vectorwise",
            "blockwise",
            "shflbw",
        }
        # At DNN sparsity Shfl-BW keeps more reuse than unstructured and more
        # flexibility than vector-wise.
        by_pattern = {a.pattern: a for a in analyses}
        shfl = by_pattern["shflbw"]
        assert shfl.max_reuse_flop_per_byte > by_pattern["unstructured"].max_reuse_flop_per_byte
        assert shfl.log_candidates > by_pattern["vectorwise"].log_candidates

    def test_shflbw_reuse_equals_blockwise_reuse(self):
        shfl = analyze_pattern("shflbw", V100, 512, 512, 0.1, 64)
        bw = analyze_pattern("blockwise", V100, 512, 512, 0.1, 64)
        assert shfl.max_reuse_flop_per_byte == pytest.approx(bw.max_reuse_flop_per_byte)

    def test_unstructured_reuse_degrades_with_sparsity(self):
        high = analyze_pattern("unstructured", V100, 512, 512, 0.5)
        low = analyze_pattern("unstructured", V100, 512, 512, 0.05)
        assert low.max_reuse_flop_per_byte < high.max_reuse_flop_per_byte

    def test_blockwise_reuse_density_independent(self):
        a = analyze_pattern("blockwise", V100, 512, 512, 0.5, 64)
        b = analyze_pattern("blockwise", V100, 512, 512, 0.05, 64)
        assert a.max_reuse_flop_per_byte == pytest.approx(b.max_reuse_flop_per_byte)

    def test_dense_reuse_ratio_is_one(self):
        dense = analyze_pattern("dense", V100, 512, 512, 1.0)
        assert dense.reuse_vs_dense == pytest.approx(1.0)

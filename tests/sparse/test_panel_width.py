"""The stitched-panel policy of the vector-wise / Shfl-BW SpMM.

Without an explicit ``tile_cols``, ``VectorSparseMatrix.from_dense``
stitches each row group into panels of the width
:func:`repro.sparse.formats._panel_width` picks: the widest
group or the ceil-mean width, whichever pads fewer lanes.  These tests pin
the choice, the one-panel-per-group shortcut (bit-identical to the segment
sum it skips) and the served regime that motivated it: near-dense groups
whose widths differ by a few columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.shflbw import ShflBWKernel
from repro.kernels.vector_wise import VectorWiseKernel
from repro.sparse import spmm_reference as ref
from repro.sparse.formats import VectorSparseMatrix, _panel_width
from repro.sparse.spmm import _segment_rows, spmm_shflbw, spmm_vector_wise

ATOL = 1e-10


def _padded_lanes(dense, v: int, tile: int) -> int:
    matrix = VectorSparseMatrix.from_dense(dense, v, tile_cols=tile)
    return int(np.count_nonzero(matrix.columns < 0))


def _with_group_widths(widths, v: int, k: int, seed: int):
    """A vector-wise ``(len(widths) * v, k)`` weight whose group ``g`` keeps
    ``widths[g]`` random columns, plus its compressed form."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((len(widths), k), dtype=bool)
    for g, width in enumerate(widths):
        mask[g, rng.choice(k, size=width, replace=False)] = True
    dense = rng.normal(size=(len(widths) * v, k)) * np.repeat(mask, v, axis=0)
    return dense, VectorSparseMatrix.from_dense(dense, v)


class TestOnePanelReturn:
    """A one-element ``reduceat`` segment is a copy, so returning the panel
    products unsummed keeps every bit, signed zeros and NaNs included."""

    @pytest.mark.parametrize("draw", ["mixed-magnitude", "signed-zero", "nan"])
    def test_products_equal_their_segment_sum(self, rng, draw):
        products = rng.normal(size=(7, 4, 5)) * 10.0 ** rng.integers(-300, 300, (7, 4, 5))
        if draw == "signed-zero":
            products[rng.random(products.shape) < 0.5] = -0.0
        elif draw == "nan":
            products[rng.random(products.shape) < 0.3] = np.nan
        summed = _segment_rows(products, np.arange(8), 7)
        assert np.array_equal(summed, products, equal_nan=True)
        assert np.array_equal(np.signbit(summed), np.signbit(products))

    @pytest.mark.parametrize("draw", ["mixed-magnitude", "signed-zero", "nan"])
    def test_spmm_equals_segment_summed_panels(self, rng, draw):
        _, matrix = _with_group_widths([9, 9, 8, 9], v=3, k=12, seed=1)
        rhs = rng.normal(size=(12, 6)) * 10.0 ** rng.integers(-150, 150, (12, 6))
        if draw == "signed-zero":
            rhs[:, ::2] = -0.0
        elif draw == "nan":
            rhs[rng.random(rhs.shape) < 0.2] = np.nan
        assert matrix.num_panels == matrix.num_groups
        products = np.matmul(matrix.values, rhs[np.maximum(matrix.columns, 0)])
        summed = _segment_rows(products, matrix.group_indptr, matrix.num_groups)
        out = spmm_vector_wise(matrix, rhs)
        expected = summed.reshape(out.shape)
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


@settings(max_examples=80, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
    v=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chosen_width_pads_no_more_than_either_candidate(widths, v, n, seed):
    k = 30
    dense, matrix = _with_group_widths(widths, v, k, seed)
    rhs = np.random.default_rng(seed).normal(size=(k, n))
    total = sum(widths)
    tile = matrix.tile_cols
    assert tile == _panel_width(np.array(widths))
    if total:
        widest, mean = max(widths), -(-total // len(widths))
        assert tile in (widest, mean)
        padded = _padded_lanes(dense, v, tile)
        assert padded <= _padded_lanes(dense, v, widest)
        assert padded <= _padded_lanes(dense, v, mean)
    out = spmm_vector_wise(matrix, rhs)
    np.testing.assert_allclose(out, ref.spmm_vector_wise_loop(matrix, rhs), atol=ATOL)
    np.testing.assert_allclose(out, dense @ rhs, atol=ATOL)


class TestServedRegime:
    def test_near_dense_groups_get_one_panel_each(self):
        """The near-dense case: a 3072x1024 weight under a 10% unstructured
        mask, compressed vector-wise.  At V=64 a group keeps a column if any
        of its rows does, so every group keeps ~1023 columns, and the
        ceil-mean width would spill the wider groups' last column into a
        padded second panel."""
        rng = np.random.default_rng([1, 0])
        weight = rng.normal(size=(3072, 1024))
        weight *= rng.random(size=(3072, 1024)) < 0.1
        x = np.random.default_rng(2).normal(size=(1024, 8))
        expected = weight @ x

        vector_wise = VectorWiseKernel(64)
        prepared = vector_wise.prepare(weight)
        widths = [len(prepared.group(g)[0]) for g in range(prepared.num_groups)]
        mean = -(-sum(widths) // len(widths))
        assert VectorSparseMatrix.from_dense(weight, 64, tile_cols=mean).num_panels > 48
        assert prepared.tile_cols == max(widths)
        assert prepared.num_panels == 48
        np.testing.assert_allclose(vector_wise.run(prepared, x), expected, atol=ATOL)

        shflbw = ShflBWKernel(64)
        shuffled = shflbw.prepare(weight)
        np.testing.assert_allclose(shflbw.run(shuffled, x), expected, atol=ATOL)
        np.testing.assert_allclose(spmm_shflbw(shuffled, x), expected, atol=ATOL)
        assert shuffled.vector_matrix.num_panels == 48

    def test_skewed_groups_keep_the_mean_width(self):
        """One full group among 10%-wide ones: one panel per group would pad
        every narrow group to the full width, so the mean width wins."""
        widths = [100] + [10] * 9
        dense, matrix = _with_group_widths(widths, v=4, k=100, seed=3)
        assert matrix.tile_cols == -(-sum(widths) // len(widths)) == 19
        rhs = np.random.default_rng(4).normal(size=(100, 3))
        np.testing.assert_allclose(spmm_vector_wise(matrix, rhs), dense @ rhs, atol=ATOL)

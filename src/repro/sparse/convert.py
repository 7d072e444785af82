"""Conversions between dense matrices and the sparse formats.

Two conversions correspond directly to steps of the paper's kernel pipeline
(Figure 4):

* :func:`shflbw_to_vector_wise` — the offline processing of step (a): store
  the permuted matrix contiguously in vector-wise form and remember the
  original row indices,
* :func:`vector_wise_to_block` — the column-stitching view of step (b): pack
  the kept columns of each ``V``-row group into dense ``V x tile`` panels
  (padding the last panel), which is exactly the shape handed to the
  tensor-core MMA loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .formats import (
    Balanced24Matrix,
    BlockSparseMatrix,
    CSRMatrix,
    ShflBWMatrix,
    VectorSparseMatrix,
)

__all__ = [
    "dense_to_csr",
    "dense_to_block",
    "dense_to_vector_wise",
    "dense_to_shflbw",
    "dense_to_balanced",
    "shflbw_to_vector_wise",
    "StitchedPanels",
    "vector_wise_to_block",
    "stitched_panels",
    "identity_row_indices",
]


def identity_row_indices(m: int) -> np.ndarray:
    """Row permutation that leaves the matrix untouched."""
    return np.arange(m, dtype=np.int64)


def dense_to_csr(dense: np.ndarray) -> CSRMatrix:
    """Compress an (already pruned) dense matrix into CSR."""
    return CSRMatrix.from_dense(dense)


def dense_to_block(dense: np.ndarray, block_size: int) -> BlockSparseMatrix:
    """Compress an (already pruned) dense matrix into ``V x V`` BSR."""
    return BlockSparseMatrix.from_dense(dense, block_size)


def dense_to_vector_wise(dense: np.ndarray, vector_size: int) -> VectorSparseMatrix:
    """Compress an (already pruned) dense matrix into vector-wise form."""
    return VectorSparseMatrix.from_dense(dense, vector_size)


def dense_to_shflbw(
    dense: np.ndarray, vector_size: int, row_indices: np.ndarray | None = None
) -> ShflBWMatrix:
    """Compress a dense matrix into Shfl-BW form.

    Parameters
    ----------
    dense:
        The pruned dense weight matrix (original row order).
    vector_size:
        Row-group height ``V``.
    row_indices:
        The row permutation discovered by the pattern search; identity if
        omitted (in which case Shfl-BW degenerates to vector-wise sparsity).
    """
    dense = np.asarray(dense, dtype=np.float64)
    if row_indices is None:
        row_indices = identity_row_indices(dense.shape[0])
    return ShflBWMatrix.from_dense(dense, vector_size, row_indices)


def dense_to_balanced(dense: np.ndarray, n: int = 2, m: int = 4) -> Balanced24Matrix:
    """Project a dense matrix onto the balanced ``n:m`` pattern."""
    return Balanced24Matrix.from_dense(dense, n=n, m=m)


def shflbw_to_vector_wise(matrix: ShflBWMatrix) -> tuple[VectorSparseMatrix, np.ndarray]:
    """Offline step (a) of Figure 4: return the permuted vector-wise matrix
    and the row-index array used by the reordered write-back."""
    return matrix.vector_matrix, matrix.row_indices.copy()


@dataclass
class StitchedPanels:
    """Stacked column-stitched panels of a vector-wise matrix.

    All panels of all row groups are stored in three flat arrays so the SpMM
    engine can consume them with batched gathers and ``matmul`` calls instead
    of Python loops:

    Attributes
    ----------
    vector_size:
        Row-group height ``V``.
    tile_cols:
        Stitched columns per panel (the kernel's ``T_K``).
    num_groups:
        Number of ``V``-row groups of the source matrix.
    values:
        ``(num_panels, V, tile_cols)`` dense panel values, zero padded.
    columns:
        ``(num_panels, tile_cols)`` source column index of each stitched
        column, ``-1`` for padding.
    group_indptr:
        ``(num_groups + 1,)`` pointer array; the panels of group ``g`` are
        ``values[group_indptr[g]:group_indptr[g + 1]]`` (groups with no kept
        column own zero panels).
    """

    vector_size: int
    tile_cols: int
    num_groups: int
    values: np.ndarray
    columns: np.ndarray
    group_indptr: np.ndarray
    _gather_columns: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_panels(self) -> int:
        return int(self.values.shape[0])

    @property
    def gather_columns(self) -> np.ndarray:
        """``columns`` with padding lanes clamped to a valid index.

        Padded lanes carry zero weight values, so gathering an arbitrary
        (valid) activation row for them contributes nothing; clamping lets
        the SpMM skip per-lane masking entirely.
        """
        if self._gather_columns is None:
            self._gather_columns = np.maximum(self.columns, 0)
        return self._gather_columns

    def group_panels(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Values and columns of the panels of group ``g`` (views)."""
        start, end = self.group_indptr[g], self.group_indptr[g + 1]
        return self.values[start:end], self.columns[start:end]

    def to_group_lists(self) -> list[list[dict]]:
        """List-of-dicts view walked by the loop oracle: ``out[g]`` lists
        group ``g``'s panels, each a dict of ``"values"`` (a zero-padded
        ``(V, tile_cols)`` array) and ``"columns"`` (the source column of each
        lane, ``-1`` for padding)."""
        out: list[list[dict]] = []
        for g in range(self.num_groups):
            vals, cols = self.group_panels(g)
            out.append(
                [
                    {"values": vals[p].copy(), "columns": cols[p].copy()}
                    for p in range(vals.shape[0])
                ]
            )
        return out


def vector_wise_to_block(
    matrix: VectorSparseMatrix, tile_cols: int | None = None
) -> StitchedPanels:
    """Column-stitch each row group of a vector-wise matrix into dense panels.

    Parameters
    ----------
    matrix:
        The vector-wise matrix.
    tile_cols:
        Number of stitched columns per panel (the kernel's ``T_K``); defaults
        to the vector size, which yields square ``V x V`` blocks as in
        Figure 3(d).

    Returns
    -------
    StitchedPanels
        All panels stacked into ``(num_panels, V, tile_cols)`` /
        ``(num_panels, tile_cols)`` arrays plus a per-group pointer array.
        Use :meth:`StitchedPanels.to_group_lists` for the list-of-dicts
        layout.
    """
    v = matrix.vector_size
    tile = tile_cols if tile_cols is not None else v
    if tile <= 0:
        raise ValueError("tile_cols must be positive")

    num_groups = matrix.num_groups
    widths = np.fromiter(
        (len(c) for c in matrix.group_columns), dtype=np.int64, count=num_groups
    )
    panels_per_group = -(-widths // tile)  # ceil(width / tile), 0 for empty
    group_indptr = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(panels_per_group, out=group_indptr[1:])
    num_panels = int(group_indptr[-1])

    values = np.zeros((num_panels, v, tile), dtype=np.float64)
    columns = np.full((num_panels, tile), -1, dtype=np.int64)
    total = int(widths.sum())
    if total:
        all_cols = np.concatenate(matrix.group_columns)
        all_vals = np.concatenate(matrix.group_values, axis=1)  # (V, total)
        # Intra-group position of every kept column, then its panel and lane.
        group_starts = np.cumsum(widths) - widths
        intra = np.arange(total, dtype=np.int64) - np.repeat(group_starts, widths)
        panel = np.repeat(group_indptr[:-1], widths) + intra // tile
        lane = intra % tile
        columns[panel, lane] = all_cols
        values[panel, :, lane] = all_vals.T
    return StitchedPanels(
        vector_size=v,
        tile_cols=tile,
        num_groups=num_groups,
        values=values,
        columns=columns,
        group_indptr=group_indptr,
    )


def stitched_panels(
    matrix: VectorSparseMatrix, tile_cols: int | None = None
) -> StitchedPanels:
    """Memoised :func:`vector_wise_to_block`.

    The stitched panels are a pure function of the (immutable-by-convention)
    matrix and the tile width, and building them is the expensive offline
    half of the vector-wise / Shfl-BW kernels — so they are cached on the
    matrix instance, keyed by ``tile_cols``.  Callers that mutate
    ``group_columns`` / ``group_values`` in place must drop the
    ``_panel_cache`` attribute (or rebuild the matrix).
    """
    tile = tile_cols if tile_cols is not None else matrix.vector_size
    cache: dict[int, StitchedPanels] = matrix.__dict__.setdefault("_panel_cache", {})
    panels = cache.get(tile)
    if panels is None:
        panels = vector_wise_to_block(matrix, tile_cols=tile)
        cache[tile] = panels
    return panels

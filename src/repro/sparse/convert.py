"""Conversions between dense matrices and the sparse formats.

:func:`dense_to_shflbw` is the offline processing of the paper's kernel
pipeline (Figure 4 step (a)): it stores the permuted matrix once, in
vector-wise form, together with the original row indices.  That form is
already column-stitched: each ``V``-row group's kept columns are packed into
dense ``V x T`` panels, the tiles the kernel stitches in shared memory at run
time (step (b)) and hands to the tensor-core MMA loop, so the SpMM reads the
stored panels directly and no second copy is built.
"""

from __future__ import annotations

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
]


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
        row_indices = np.arange(dense.shape[0], dtype=np.int64)
    return ShflBWMatrix.from_dense(dense, vector_size, row_indices)


def dense_to_balanced(dense: np.ndarray, n: int = 2, m: int = 4) -> Balanced24Matrix:
    """Project a dense matrix onto the balanced ``n:m`` pattern."""
    return Balanced24Matrix.from_dense(dense, n=n, m=m)

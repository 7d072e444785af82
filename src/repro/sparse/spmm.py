"""Functional (numpy) SpMM reference kernels for every sparse format.

These are the *correctness* halves of the kernels in :mod:`repro.kernels`:
each one computes ``C = A @ B`` where ``A`` is an ``(M, K)`` sparse weight
matrix and ``B`` a dense ``(K, N)`` activation matrix, following the data
movement of the corresponding GPU kernel closely enough that the structural
techniques of the paper (in-buffer stitching, reordered write-back) are
exercised rather than shortcut through ``to_dense()``.

The kernels are fully vectorized: batched gathers, ``matmul`` over stacked
panels and ``np.add.reduceat`` segment reductions replace the per-row and
per-group Python loops of the original implementations.  The originals live
on in :mod:`repro.sparse.spmm_reference` as the oracle the property-based
tests and ``benchmarks/bench_spmm_vectorized.py`` compare against.

Two caches keep repeated calls cheap:

* the stitched-panel view consumed by the vector-wise / Shfl-BW kernels is
  memoised per matrix and tile width (:func:`repro.sparse.convert.stitched_panels`),
* the CSR kernel memoises its ``scipy.sparse`` handle on the matrix.

``scipy.sparse`` is imported on the first :func:`spmm_csr` call, not at module
load: the timing experiments import this module through :mod:`repro.kernels`
but never run a CSR SpMM, so they never pay for scipy.
"""

from __future__ import annotations

import numpy as np

from .convert import stitched_panels
from .formats import (
    Balanced24Matrix,
    BlockSparseMatrix,
    CSRMatrix,
    ShflBWMatrix,
    VectorSparseMatrix,
)

__all__ = [
    "dense_gemm",
    "spmm_csr",
    "spmm_block",
    "spmm_vector_wise",
    "spmm_shflbw",
    "spmm_balanced",
    "spmm",
]


def _check_rhs(shape: tuple[int, int], rhs: np.ndarray) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2:
        raise ValueError(f"expected a 2-D dense matrix, got shape {rhs.shape}")
    if rhs.shape[0] != shape[1]:
        raise ValueError(
            f"dimension mismatch: sparse K={shape[1]} vs dense rows={rhs.shape[0]}"
        )
    return rhs


def _segment_rows(
    contributions: np.ndarray, indptr: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum ``contributions`` into ``num_segments`` row segments.

    ``contributions`` holds one stacked entry per stored element (any shape
    after the first axis); segment ``i`` owns entries
    ``indptr[i]:indptr[i + 1]``.  Empty segments sum to zero.  Implemented
    with ``np.add.reduceat`` restricted to non-empty segments, which sidesteps
    reduceat's surprising handling of empty slices.
    """
    out = np.zeros((num_segments,) + contributions.shape[1:], dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(indptr))
    if len(nonempty):
        out[nonempty] = np.add.reduceat(contributions, indptr[:-1][nonempty], axis=0)
    return out


def dense_gemm(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Plain dense GEMM reference (the cuBLAS stand-in)."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    return lhs @ rhs


def spmm_csr(matrix: CSRMatrix, rhs: np.ndarray) -> np.ndarray:
    """Row-wise CSR SpMM (the Sputnik-style unstructured kernel).

    Runs on a ``scipy.sparse`` handle (the fastest CSR row-gather engine on
    the host), memoised on the matrix.  ``scipy.sparse`` is imported here, on
    the first call, rather than at module load.
    """
    rhs = _check_rhs(matrix.shape, rhs)
    m, _ = matrix.shape
    if matrix.nnz == 0:
        return np.zeros((m, rhs.shape[1]), dtype=np.float64)
    handle = matrix.__dict__.get("_scipy_handle")
    if handle is None:
        import scipy.sparse

        handle = scipy.sparse.csr_matrix(
            (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
        )
        matrix.__dict__["_scipy_handle"] = handle
    return np.asarray(handle @ rhs)


def spmm_block(matrix: BlockSparseMatrix, rhs: np.ndarray) -> np.ndarray:
    """Block-wise SpMM: batched ``V x V`` GEMMs over all stored blocks."""
    rhs = _check_rhs(matrix.shape, rhs)
    m, k = matrix.shape
    v = matrix.block_size
    n = rhs.shape[1]
    if matrix.nnz_blocks == 0:
        return np.zeros((m, n), dtype=np.float64)
    rhs_blocks = rhs.reshape(k // v, v, n)[matrix.block_indices]
    products = np.matmul(matrix.data, rhs_blocks)  # (n_blocks, V, N)
    acc = _segment_rows(products, matrix.block_indptr, matrix.num_block_rows)
    return acc.reshape(m, n)


def _panel_width(matrix: VectorSparseMatrix) -> int:
    """Panel width when the caller names no ``tile_cols``: the widest group
    (one panel per group) or the ceil-mean width (padding bounded by one tile
    per group), whichever pads fewer lanes.  Ties go to the widest, so
    near-uniform groups never spill their last columns into a padded panel.
    """
    widths = np.fromiter(
        (len(c) for c in matrix.group_columns), dtype=np.int64, count=matrix.num_groups
    )
    widest = int(widths.max(initial=1))
    total = int(widths.sum())
    if total == 0:
        return widest
    mean = -(-total // len(widths))
    mean_lanes = int((-(-widths // mean)).sum()) * mean
    return widest if widest * np.count_nonzero(widths) <= mean_lanes else mean


def _spmm_stitched(
    matrix: VectorSparseMatrix, rhs: np.ndarray, tile_cols: int | None
) -> np.ndarray:
    """Shared stitched-panel SpMM over a vector-wise matrix.

    Mirrors the GPU kernel: gather the activation rows named by each panel's
    stitched columns (in-buffer stitching), run one batched panel GEMM over
    all panels (tensor-core MMA), and segment-sum the panels of each group
    (skipped when every group owns one panel: the products are the output).
    ``tile_cols=None`` picks the width with :func:`_panel_width`.  Returns
    the output in the matrix's own (group-contiguous) row order.
    """
    if tile_cols is None:
        tile_cols = _panel_width(matrix)
    panels = stitched_panels(matrix, tile_cols)
    n = rhs.shape[1]
    if panels.num_panels == 0:
        return np.zeros((matrix.shape[0], n), dtype=np.float64)
    # Padded lanes index row 0 but carry zero weights, so no masking needed.
    gathered = rhs[panels.gather_columns]  # (P, tile, N)
    products = np.matmul(panels.values, gathered)  # (P, V, N)
    if np.array_equal(panels.group_indptr, np.arange(panels.num_groups + 1)):
        return products.reshape(matrix.shape[0], n)
    acc = _segment_rows(products, panels.group_indptr, panels.num_groups)
    return acc.reshape(matrix.shape[0], n)


def spmm_vector_wise(matrix: VectorSparseMatrix, rhs: np.ndarray) -> np.ndarray:
    """Vector-wise SpMM: gather the kept activation rows of each group, then
    run one batched dense panel GEMM over all groups (our vector-wise kernel).

    Panels take the width :func:`_panel_width` picks: near-uniform matrices
    get one panel per group (one batched ``matmul``, no segment sum), while
    skewed matrices stay bounded — padding stays under one ceil-mean tile
    per group, unlike padding every group to the widest one.
    """
    return _spmm_stitched(matrix, _check_rhs(matrix.shape, rhs), None)


def spmm_shflbw(
    matrix: ShflBWMatrix, rhs: np.ndarray, *, tile_cols: int | None = None
) -> np.ndarray:
    """Shfl-BW SpMM following the GPU kernel structure (Figure 4).

    Steps mirrored from the kernel:

    1. the matrix is already stored in permuted vector-wise form (offline
       step (a)),
    2. each row group's kept columns are stitched into dense ``V x tile``
       panels (``tile_cols``, by default the width :func:`_panel_width`
       picks); the matching activation rows are gathered to form the other
       tile (in-buffer stitching, step (b)) — the stitched panels are
       memoised on the matrix, so repeated calls skip the offline step,
    3. one batched panel GEMM accumulates every group's output tile
       (tensor-core MMA, step (c)),
    4. the output tiles are written to the *original* row positions using the
       stored row indices (reordered write-back, step (e)).
    """
    rhs = _check_rhs(matrix.shape, rhs)
    permuted = _spmm_stitched(matrix.vector_matrix, rhs, tile_cols)
    out = np.zeros_like(permuted)
    # Reordered write-back: results land directly in the original rows.
    out[matrix.row_indices] = permuted
    return out


def spmm_balanced(matrix: Balanced24Matrix, rhs: np.ndarray) -> np.ndarray:
    """Balanced n:m SpMM: select operands by position metadata, then run one
    batched row-vector GEMM over the compacted values."""
    rhs = _check_rhs(matrix.shape, rhs)
    rows, k = matrix.shape
    n_out = rhs.shape[1]
    if matrix.nnz == 0:
        return np.zeros((rows, n_out), dtype=np.float64)
    kept = matrix.values.shape[1]
    group_base = np.repeat(
        np.arange(k // matrix.m, dtype=np.int64) * matrix.m, matrix.n
    )
    cols = matrix.positions + group_base[None, :]  # absolute column per value
    out = np.empty((rows, n_out), dtype=np.float64)
    # Chunk the batched gather so the (chunk, kept, N) intermediate stays
    # cache resident; the buffers are reused across chunks so the gather
    # never streams a large intermediate through DRAM.
    chunk = max(1, min(rows, int(2**17 // max(1, kept * n_out))))
    gathered = np.empty((chunk * kept, n_out), dtype=np.float64)
    products = np.empty((chunk, 1, n_out), dtype=np.float64)
    for r0 in range(0, rows, chunk):
        r1 = min(r0 + chunk, rows)
        c = r1 - r0
        np.take(rhs, cols[r0:r1].reshape(-1), axis=0, out=gathered[: c * kept])
        np.matmul(
            matrix.values[r0:r1, None, :],
            gathered[: c * kept].reshape(c, kept, n_out),
            out=products[:c],
        )
        out[r0:r1] = products[:c, 0, :]
    return out


def spmm(matrix, rhs: np.ndarray) -> np.ndarray:
    """Dispatch to the reference SpMM matching the matrix format."""
    if isinstance(matrix, CSRMatrix):
        return spmm_csr(matrix, rhs)
    if isinstance(matrix, BlockSparseMatrix):
        return spmm_block(matrix, rhs)
    if isinstance(matrix, ShflBWMatrix):
        return spmm_shflbw(matrix, rhs)
    if isinstance(matrix, VectorSparseMatrix):
        return spmm_vector_wise(matrix, rhs)
    if isinstance(matrix, Balanced24Matrix):
        return spmm_balanced(matrix, rhs)
    if isinstance(matrix, np.ndarray):
        return dense_gemm(matrix, rhs)
    raise TypeError(f"unsupported sparse matrix type {type(matrix).__name__}")

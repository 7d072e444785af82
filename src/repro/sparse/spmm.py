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

The vector-wise and Shfl-BW kernels read the column-stitched panels their
format stores (:class:`~repro.sparse.formats.VectorSparseMatrix`), so they
build nothing per call; the CSR kernel memoises its ``scipy.sparse`` handle
on the matrix.

``scipy.sparse`` is imported on the first :func:`spmm_csr` call, not at module
load: the timing experiments import this module through :mod:`repro.kernels`
but never run a CSR SpMM, so they never pay for scipy.
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


def _spmm_stitched(matrix: VectorSparseMatrix, rhs: np.ndarray) -> np.ndarray:
    """Shared stitched-panel SpMM over a vector-wise matrix.

    Mirrors the GPU kernel: gather the activation rows named by each panel's
    stitched columns (in-buffer stitching), run one batched panel GEMM over
    all panels (tensor-core MMA), and segment-sum the panels of each group
    (skipped when every group owns one panel: the products are the output).
    Returns the output in the matrix's own (group-contiguous) row order.
    """
    n = rhs.shape[1]
    if matrix.num_panels == 0:
        return np.zeros((matrix.shape[0], n), dtype=np.float64)
    # Padded lanes (-1) clip to row 0 but carry zero weights, so no masking
    # is needed.
    gathered = rhs.take(matrix.columns, axis=0, mode="clip")  # (P, T, N)
    products = np.matmul(matrix.values, gathered)  # (P, V, N)
    if np.array_equal(matrix.group_indptr, np.arange(matrix.num_groups + 1)):
        return products.reshape(matrix.shape[0], n)
    acc = _segment_rows(products, matrix.group_indptr, matrix.num_groups)
    return acc.reshape(matrix.shape[0], n)


def spmm_vector_wise(matrix: VectorSparseMatrix, rhs: np.ndarray) -> np.ndarray:
    """Vector-wise SpMM: gather the kept activation rows of each panel, then
    run one batched dense panel GEMM over all panels (our vector-wise
    kernel)."""
    return _spmm_stitched(matrix, _check_rhs(matrix.shape, rhs))


def spmm_shflbw(matrix: ShflBWMatrix, rhs: np.ndarray) -> np.ndarray:
    """Shfl-BW SpMM following the GPU kernel structure (Figure 4).

    Steps mirrored from the kernel:

    1. the matrix is already stored in permuted vector-wise form, its kept
       columns stitched into dense ``V x T`` panels (offline step (a)),
    2. the activation rows matching each panel's columns are gathered to
       form the other tile (in-buffer stitching, step (b)),
    3. one batched panel GEMM accumulates every group's output tile
       (tensor-core MMA, step (c)),
    4. the output tiles are written to the *original* row positions using the
       stored row indices (reordered write-back, step (e)).
    """
    rhs = _check_rhs(matrix.shape, rhs)
    permuted = _spmm_stitched(matrix.vector_matrix, rhs)
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

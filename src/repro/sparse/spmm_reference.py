"""Loop-based oracle implementations (the seed reference code paths).

These are the original per-row / per-group / per-block Python-loop
implementations that :mod:`repro.sparse.spmm`, the format conversions in
:mod:`repro.sparse.formats` and the im2col machinery in
:mod:`repro.sparse.spconv` shipped with before the engine was vectorized.
They are deliberately kept verbatim:

* the property-based test-suite uses them as the *oracle* the vectorized
  code must match (SpMM to ``1e-10``; conversions and im2col exactly),
* the benchmarks in ``benchmarks/`` time them against the vectorized
  engine to document (and gate) the speedups.

Nothing in the hot paths should import from this module; it exists purely as
a correctness yardstick.
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
from .spconv import Conv2dSpec

__all__ = [
    "spmm_csr_loop",
    "spmm_block_loop",
    "spmm_vector_wise_loop",
    "spmm_shflbw_loop",
    "spmm_balanced_loop",
    "csr_from_dense_loop",
    "csr_to_dense_loop",
    "block_from_dense_loop",
    "block_to_dense_loop",
    "im2col_loop",
    "col2im_loop",
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


def spmm_csr_loop(matrix: CSRMatrix, rhs: np.ndarray) -> np.ndarray:
    """Row-wise CSR SpMM (one gather + dot per row)."""
    rhs = _check_rhs(matrix.shape, rhs)
    m, _ = matrix.shape
    out = np.zeros((m, rhs.shape[1]), dtype=np.float64)
    for i in range(m):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        if start == end:
            continue
        cols = matrix.indices[start:end]
        vals = matrix.data[start:end]
        out[i] = vals @ rhs[cols, :]
    return out


def spmm_block_loop(matrix: BlockSparseMatrix, rhs: np.ndarray) -> np.ndarray:
    """Block-wise SpMM: one dense ``V x V`` GEMM per stored block."""
    rhs = _check_rhs(matrix.shape, rhs)
    m, _ = matrix.shape
    v = matrix.block_size
    out = np.zeros((m, rhs.shape[1]), dtype=np.float64)
    for bi in range(matrix.num_block_rows):
        start, end = matrix.block_indptr[bi], matrix.block_indptr[bi + 1]
        acc = np.zeros((v, rhs.shape[1]), dtype=np.float64)
        for pos in range(start, end):
            bj = matrix.block_indices[pos]
            acc += matrix.data[pos] @ rhs[bj * v : (bj + 1) * v, :]
        out[bi * v : (bi + 1) * v, :] = acc
    return out


def spmm_vector_wise_loop(matrix: VectorSparseMatrix, rhs: np.ndarray) -> np.ndarray:
    """Vector-wise SpMM: one dense panel GEMM per row group."""
    rhs = _check_rhs(matrix.shape, rhs)
    m, _ = matrix.shape
    v = matrix.vector_size
    out = np.zeros((m, rhs.shape[1]), dtype=np.float64)
    for g in range(matrix.num_groups):
        cols, values = matrix.group(g)
        if len(cols) == 0:
            continue
        gathered = rhs[cols, :]
        out[g * v : (g + 1) * v, :] = values @ gathered
    return out


def spmm_shflbw_loop(matrix: ShflBWMatrix, rhs: np.ndarray) -> np.ndarray:
    """Shfl-BW SpMM following the GPU kernel structure panel-by-panel."""
    rhs = _check_rhs(matrix.shape, rhs)
    n = rhs.shape[1]
    m = matrix.shape[0]
    v = matrix.vector_size
    out = np.zeros((m, n), dtype=np.float64)

    panels = matrix.vector_matrix
    for g in range(panels.num_groups):
        acc = np.zeros((v, n), dtype=np.float64)
        for p in range(panels.group_indptr[g], panels.group_indptr[g + 1]):
            cols = panels.columns[p]
            values = panels.values[p]
            valid = cols >= 0
            # In-buffer stitching: gather the activation rows named by the
            # column indices; padded lanes contribute zero.
            stitched = np.zeros((len(cols), n), dtype=np.float64)
            stitched[valid, :] = rhs[cols[valid], :]
            acc += values @ stitched
        original_rows = matrix.row_indices[g * v : (g + 1) * v]
        # Reordered write-back: results land directly in the original rows.
        out[original_rows, :] = acc
    return out


def spmm_balanced_loop(matrix: Balanced24Matrix, rhs: np.ndarray) -> np.ndarray:
    """Balanced n:m SpMM: select operands by position metadata, row by row."""
    rhs = _check_rhs(matrix.shape, rhs)
    rows, k = matrix.shape
    n_out = rhs.shape[1]
    out = np.zeros((rows, n_out), dtype=np.float64)
    values = matrix.values.reshape(rows, k // matrix.m, matrix.n)
    positions = matrix.positions.reshape(rows, k // matrix.m, matrix.n)
    group_base = (np.arange(k // matrix.m) * matrix.m)[None, :, None]
    cols = positions + group_base  # absolute column index per kept value
    for i in range(rows):
        flat_cols = cols[i].reshape(-1)
        flat_vals = values[i].reshape(-1)
        out[i] = flat_vals @ rhs[flat_cols, :]
    return out


# --------------------------------------------------------------------------- #
# Format-conversion oracles (the seed from_dense / to_dense loops)
# --------------------------------------------------------------------------- #
def _as_2d_float(dense: np.ndarray) -> np.ndarray:
    arr = np.asarray(dense, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def csr_from_dense_loop(dense: np.ndarray) -> CSRMatrix:
    """Per-row CSR compression (the seed ``CSRMatrix.from_dense``)."""
    dense = _as_2d_float(dense)
    m, k = dense.shape
    indptr = np.zeros(m + 1, dtype=np.int64)
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for i in range(m):
        cols = np.nonzero(dense[i])[0]
        indices.append(cols)
        data.append(dense[i, cols])
        indptr[i + 1] = indptr[i] + len(cols)
    return CSRMatrix(
        shape=(m, k),
        data=np.concatenate(data) if data else np.zeros(0),
        indices=np.concatenate(indices) if indices else np.zeros(0, dtype=np.int64),
        indptr=indptr,
    )


def csr_to_dense_loop(matrix: CSRMatrix) -> np.ndarray:
    """Per-row CSR reconstruction (the seed ``CSRMatrix.to_dense``)."""
    m, k = matrix.shape
    out = np.zeros((m, k), dtype=np.float64)
    for i in range(m):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        out[i, matrix.indices[start:end]] = matrix.data[start:end]
    return out


def block_from_dense_loop(dense: np.ndarray, block_size: int) -> BlockSparseMatrix:
    """Per-block BSR compression (the seed ``BlockSparseMatrix.from_dense``)."""
    dense = _as_2d_float(dense)
    m, k = dense.shape
    v = block_size
    if m % v or k % v:
        raise ValueError(f"shape {dense.shape} is not divisible by V={v}")
    blocks: list[np.ndarray] = []
    indices: list[int] = []
    indptr = np.zeros(m // v + 1, dtype=np.int64)
    for bi in range(m // v):
        count = 0
        for bj in range(k // v):
            block = dense[bi * v : (bi + 1) * v, bj * v : (bj + 1) * v]
            if np.any(block != 0.0):
                blocks.append(block.copy())
                indices.append(bj)
                count += 1
        indptr[bi + 1] = indptr[bi] + count
    data = np.stack(blocks) if blocks else np.zeros((0, v, v))
    return BlockSparseMatrix(
        shape=(m, k),
        block_size=v,
        data=data,
        block_indices=np.asarray(indices, dtype=np.int64),
        block_indptr=indptr,
    )


def block_to_dense_loop(matrix: BlockSparseMatrix) -> np.ndarray:
    """Per-block BSR reconstruction (the seed ``BlockSparseMatrix.to_dense``)."""
    m, k = matrix.shape
    v = matrix.block_size
    out = np.zeros((m, k), dtype=np.float64)
    for bi in range(matrix.num_block_rows):
        start, end = matrix.block_indptr[bi], matrix.block_indptr[bi + 1]
        for pos in range(start, end):
            bj = matrix.block_indices[pos]
            out[bi * v : (bi + 1) * v, bj * v : (bj + 1) * v] = matrix.data[pos]
    return out


# --------------------------------------------------------------------------- #
# im2col / col2im oracles (the seed channel x kernel-position loops)
# --------------------------------------------------------------------------- #
def im2col_loop(inputs: np.ndarray, spec: Conv2dSpec) -> np.ndarray:
    """Per-(channel, kernel-position) unfolding (the seed ``im2col``)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {inputs.shape}")
    n, c, h, w = inputs.shape
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.in_channels}")
    kh = spec.kernel_size
    oh, ow = spec.output_hw(h, w)

    padded = np.pad(
        inputs,
        ((0, 0), (0, 0), (spec.padding, spec.padding), (spec.padding, spec.padding)),
    )
    cols = np.zeros((c * kh * kh, n * oh * ow), dtype=np.float64)
    idx = 0
    for ci in range(c):
        for ki in range(kh):
            for kj in range(kh):
                patch = padded[
                    :,
                    ci,
                    ki : ki + spec.stride * oh : spec.stride,
                    kj : kj + spec.stride * ow : spec.stride,
                ]
                cols[idx, :] = patch.reshape(n * oh * ow)
                idx += 1
    return cols


def col2im_loop(
    cols: np.ndarray, input_shape: tuple[int, int, int, int], spec: Conv2dSpec
) -> np.ndarray:
    """Per-(channel, kernel-position) scatter-add (the seed ``col2im``)."""
    cols = np.asarray(cols, dtype=np.float64)
    n, c, h, w = input_shape
    kh = spec.kernel_size
    oh, ow = spec.output_hw(h, w)
    if cols.shape != (c * kh * kh, n * oh * ow):
        raise ValueError(
            f"cols shape {cols.shape} does not match ({c * kh * kh}, {n * oh * ow})"
        )
    padded = np.zeros(
        (n, c, h + 2 * spec.padding, w + 2 * spec.padding), dtype=np.float64
    )
    idx = 0
    for ci in range(c):
        for ki in range(kh):
            for kj in range(kh):
                patch = cols[idx, :].reshape(n, oh, ow)
                padded[
                    :,
                    ci,
                    ki : ki + spec.stride * oh : spec.stride,
                    kj : kj + spec.stride * ow : spec.stride,
                ] += patch
                idx += 1
    if spec.padding:
        return padded[:, :, spec.padding : spec.padding + h, spec.padding : spec.padding + w]
    return padded

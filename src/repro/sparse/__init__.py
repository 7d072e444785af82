"""Sparse matrix formats (each built from a pruned dense matrix by its
``from_dense``) and functional reference kernels."""

from .formats import (
    Balanced24Matrix,
    BlockSparseMatrix,
    CSRMatrix,
    ShflBWMatrix,
    VectorSparseMatrix,
)
from .spconv import Conv2dSpec, conv2d_dense, conv2d_sparse, im2col, weight_to_gemm
from .spmm import (
    dense_gemm,
    spmm,
    spmm_balanced,
    spmm_block,
    spmm_csr,
    spmm_shflbw,
    spmm_vector_wise,
)
from .validate import (
    density,
    is_balanced,
    is_blockwise,
    is_shflbw,
    is_vector_wise,
    sparsity,
)

__all__ = [
    "Balanced24Matrix",
    "BlockSparseMatrix",
    "CSRMatrix",
    "ShflBWMatrix",
    "VectorSparseMatrix",
    "Conv2dSpec",
    "conv2d_dense",
    "conv2d_sparse",
    "im2col",
    "weight_to_gemm",
    "dense_gemm",
    "spmm",
    "spmm_balanced",
    "spmm_block",
    "spmm_csr",
    "spmm_shflbw",
    "spmm_vector_wise",
    "density",
    "is_balanced",
    "is_blockwise",
    "is_shflbw",
    "is_vector_wise",
    "sparsity",
]

"""SpMM / convolution kernels: the paper's Shfl-BW kernels plus every baseline
measured in the evaluation, each with a functional (numpy) implementation and
a performance description for the GPU timing model."""

from .base import (
    GEMMShape,
    KernelCapabilities,
    KernelNotApplicableError,
    SpMMKernel,
    conv_to_gemm_shape,
)
from .cusparse_bsr import CusparseBSRKernel
from .cusparselt import CusparseLtKernel
from .dense_gemm import DenseCudaCoreGEMM, DenseTensorCoreGEMM
from .registry import (
    DENSE_BASELINE_LABEL,
    available_kernels,
    make_kernel,
    paper_baseline_specs,
    register_kernel,
)
from .shflbw import ShflBWConvKernel, ShflBWKernel
from .sputnik import CusparseCSRKernel, SputnikKernel, unstructured_union_fraction
from .tilewise import TileWiseKernel
from .vector_wise import VectorWiseKernel
from .vectorsparse import VectorSparseKernel

__all__ = [
    "GEMMShape",
    "KernelCapabilities",
    "KernelNotApplicableError",
    "SpMMKernel",
    "conv_to_gemm_shape",
    "CusparseBSRKernel",
    "CusparseLtKernel",
    "DenseCudaCoreGEMM",
    "DenseTensorCoreGEMM",
    "available_kernels",
    "make_kernel",
    "paper_baseline_specs",
    "DENSE_BASELINE_LABEL",
    "register_kernel",
    "ShflBWConvKernel",
    "ShflBWKernel",
    "CusparseCSRKernel",
    "SputnikKernel",
    "unstructured_union_fraction",
    "TileWiseKernel",
    "VectorWiseKernel",
    "VectorSparseKernel",
]

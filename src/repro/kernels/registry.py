"""Kernel registry: build any kernel (ours or baseline) by name.

The names follow the legend of Figure 6 so the evaluation harness and the
benchmarks can ask for exactly the bars the paper plots.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import SpMMKernel
from .cusparse_bsr import CusparseBSRKernel
from .cusparselt import CusparseLtKernel
from .dense_gemm import DenseCudaCoreGEMM, DenseTensorCoreGEMM
from .shflbw import ShflBWConvKernel, ShflBWKernel
from .sputnik import CusparseCSRKernel, SputnikKernel
from .tilewise import TileWiseKernel
from .vector_wise import VectorWiseKernel
from .vectorsparse import VectorSparseKernel

__all__ = [
    "available_kernels",
    "make_kernel",
    "register_kernel",
    "paper_baseline_specs",
    "DENSE_BASELINE_LABEL",
]

#: Figure 6 legend label of the dense reference every speedup is against.
DENSE_BASELINE_LABEL = "Dense (tensor-core)"


_FACTORIES: dict[str, Callable[..., SpMMKernel]] = {
    "dense": DenseTensorCoreGEMM,
    "dense-tensorcore": DenseTensorCoreGEMM,
    "dense-cudacore": DenseCudaCoreGEMM,
    "sputnik": SputnikKernel,
    "unstructured": SputnikKernel,
    "cusparse-csr": CusparseCSRKernel,
    "cusparse-bsr": CusparseBSRKernel,
    "blockwise": CusparseBSRKernel,
    "cusparselt": CusparseLtKernel,
    "balanced-2in4": CusparseLtKernel,
    "vectorsparse": VectorSparseKernel,
    "tilewise": TileWiseKernel,
    "vector-wise": VectorWiseKernel,
    "shfl-bw": ShflBWKernel,
    "shfl-bw-conv": ShflBWConvKernel,
}


def available_kernels() -> list[str]:
    """Names accepted by :func:`make_kernel`."""
    return sorted(_FACTORIES)


def make_kernel(name: str, **kwargs) -> SpMMKernel:
    """Construct a kernel by name, forwarding keyword arguments
    (``vector_size``, ``block_size``, ...) to its constructor."""
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(available_kernels())}"
        )
    return _FACTORIES[key](**kwargs)


def register_kernel(name: str, factory: Callable[..., SpMMKernel], *, overwrite: bool = False) -> None:
    """Register a custom kernel factory under ``name``."""
    key = name.strip().lower()
    if key in _FACTORIES and not overwrite:
        raise ValueError(f"kernel {name!r} is already registered")
    _FACTORIES[key] = factory


def paper_baseline_specs(
    vector_sizes: tuple[int, ...] = (32, 64),
) -> dict[str, tuple[str, dict]]:
    """The Figure 6 kernel line-up as declarative ``(name, kwargs)`` specs.

    Keyed by the figure's legend labels; this is the form the sweep runner
    consumes (a registry name plus constructor kwargs is hashable and
    picklable, a kernel instance is neither canonically).
    """
    specs: dict[str, tuple[str, dict]] = {
        DENSE_BASELINE_LABEL: ("dense", {}),
        "Unstructured cuSPARSE": ("cusparse-csr", {}),
        "Unstructured (Sputnik)": ("sputnik", {}),
        "VectorSparse (VW,V=8)": ("vectorsparse", {}),
        "TileWise (VW,V=128)": ("tilewise", {}),
        "Balanced 2in4": ("cusparselt", {}),
    }
    for v in vector_sizes:
        specs[f"BW,V={v}"] = ("cusparse-bsr", {"block_size": v})
        specs[f"VW,V={v}"] = ("vector-wise", {"vector_size": v})
        specs[f"Shfl-BW,V={v}"] = ("shfl-bw", {"vector_size": v})
    return specs

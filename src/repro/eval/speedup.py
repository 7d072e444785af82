"""Kernel-speedup experiments (Figure 1, Figure 6 and the Section 6.2
headline numbers).

Everything here runs on the GPU timing model with the real layer shapes of
the three workloads; no model training is involved.  Each experiment is a
``*_spec`` grid run by :class:`~repro.eval.runner.SweepRunner` and folded by
its ``collate_*``; :func:`layer_times_grid` prices the per-layer times the
autotuner scores its candidates on.
"""

from __future__ import annotations

import numpy as np

from ..gpu.arch import GPUArch
from ..gpu.simulator import simulate_batch
from ..kernels.base import SpMMKernel
from ..kernels.registry import (
    DENSE_BASELINE_LABEL,
    paper_baseline_specs,
)
from ..models.shapes import LayerShape
from .runner import KernelSpec, SweepResult, SweepSpec

__all__ = [
    "layer_times_grid",
    "figure6_spec",
    "collate_figure6",
    "figure1_spec",
    "collate_figure1",
    "headline_spec",
    "collate_headline",
    "PAPER_SPARSITIES",
    "PAPER_GPUS",
    "FIGURE1_DENSITIES",
]

#: The sparsity grid of Figure 6.
PAPER_SPARSITIES = (0.50, 0.75, 0.85, 0.95)
#: The GPUs of the evaluation (Section 6.1).
PAPER_GPUS = ("V100", "T4", "A100")
#: The density grid of Figure 1.
FIGURE1_DENSITIES = (0.02, 0.05, 0.10, 0.15, 0.25, 0.35, 0.50)


def layer_times_grid(
    kernel: SpMMKernel, arch: GPUArch, layers: list[LayerShape], density: float
) -> tuple[np.ndarray, tuple[Exception | None, ...]]:
    """Per-occurrence time of every layer at one density, in one batched call
    (the autotuner's candidate-scoring path), plus per layer the exception
    that rejects it (``None`` when the kernel runs it; its time is then
    meaningless)."""
    cells = kernel.build_layer_cells(
        arch,
        [layer.gemm for layer in layers],
        np.full(len(layers), density, dtype=np.float64),
        kernel_sizes=[layer.conv_kernel_size for layer in layers],
    )
    totals = simulate_batch(arch, cells.batch).total_time_s
    return totals + cells.unfold_time(totals), cells.errors


def figure1_spec(
    gpu: str = "V100",
    *,
    m: int = 2048,
    n: int = 128,
    k: int = 2048,
    densities: tuple[float, ...] = FIGURE1_DENSITIES,
    vector_size: int = 64,
) -> SweepSpec:
    """The Figure 1 grid: four curves over one GEMM shape on one GPU."""
    kernels = (
        KernelSpec("dense-cudacore", label="Cuda-Core", sparsities=(0.0,)),
        KernelSpec("sputnik", label="Cuda-Core Sparse"),
        KernelSpec(
            "shfl-bw",
            kwargs={"vector_size": vector_size},
            label="Tensor-Core Sparse (Ours)",
        ),
    )
    return SweepSpec(
        kernels=kernels,
        gpus=(gpu,),
        sparsities=tuple(1.0 - d for d in densities),
        gemm=(m, n, k),
    )


def collate_figure1(
    result: SweepResult, densities: tuple[float, ...]
) -> dict[str, dict[float, float]]:
    """Fold Figure 1 records back into ``{curve: {density: throughput}}``:
    SpMM throughput normalised to CUDA-core dense for the figure's four
    curves (tensor-core dense, CUDA-core dense, CUDA-core sparse (Sputnik)
    and tensor-core sparse (Shfl-BW, ours))."""
    spec = result.spec
    lookup = result.by_config()
    (gpu,) = spec.gpus
    cc_spec, sputnik_spec, shflbw_spec = spec.kernels
    cc_time = lookup[spec.config(cc_spec, None, gpu, 0.0)].time_s
    tc_time = lookup[spec.dense_config(None, gpu)].time_s
    curves: dict[str, dict[float, float]] = {
        "Cuda-Core": {d: 1.0 for d in densities},
        "Tensor-Core": {d: cc_time / tc_time for d in densities},
        "Cuda-Core Sparse": {},
        "Tensor-Core Sparse (Ours)": {},
    }
    for density in densities:
        sparsity = 1.0 - density
        cc_sparse = lookup[spec.config(sputnik_spec, None, gpu, sparsity)]
        tc_sparse = lookup[spec.config(shflbw_spec, None, gpu, sparsity)]
        curves["Cuda-Core Sparse"][density] = cc_time / cc_sparse.time_s
        curves["Tensor-Core Sparse (Ours)"][density] = cc_time / tc_sparse.time_s
    return curves


def figure6_spec(
    models: tuple[str, ...] = ("transformer", "gnmt", "resnet50"),
    gpus: tuple[str, ...] = PAPER_GPUS,
    sparsities: tuple[float, ...] = PAPER_SPARSITIES,
    vector_sizes: tuple[int, ...] = (32, 64),
) -> SweepSpec:
    """The Figure 6 grid: the paper's kernel line-up over models x GPUs x
    sparsities, plus one dense-baseline cell per (model, GPU)."""
    kernels = tuple(
        KernelSpec(name=name, kwargs=kwargs, label=label)
        for label, (name, kwargs) in paper_baseline_specs(tuple(vector_sizes)).items()
        if label != DENSE_BASELINE_LABEL
    )
    return SweepSpec(
        kernels=kernels,
        gpus=tuple(gpus),
        sparsities=tuple(sparsities),
        models=tuple(models),
    )


def collate_figure6(
    result: SweepResult,
) -> dict[tuple[str, str], dict[str, dict[float, float | None]]]:
    """Fold Figure 6 records back into
    ``{(model, gpu): {kernel_label: {sparsity: speedup_or_None}}}``.

    Kernels that are not applicable (wrong GPU, fixed-density patterns,
    missing convolution support) report ``None``, matching the bars missing
    from the paper's figure.
    """
    spec = result.spec
    lookup = result.by_config()
    results: dict[tuple[str, str], dict[str, dict[float, float | None]]] = {}
    for model in spec.models:
        for gpu in spec.gpus:
            dense_time = lookup[spec.dense_config(model, gpu)].time_s
            per_kernel: dict[str, dict[float, float | None]] = {}
            for kernel in spec.kernels:
                by_sparsity: dict[float, float | None] = {}
                for sparsity in spec.sparsities:
                    record = lookup[spec.config(kernel, model, gpu, sparsity)]
                    by_sparsity[sparsity] = (
                        dense_time / record.time_s if record.ok else None
                    )
                per_kernel[kernel.display_label] = by_sparsity
            results[(model, gpu)] = per_kernel
    return results


def headline_spec(
    sparsity: float = 0.75, vector_size: int = 64, model: str = "transformer"
) -> SweepSpec:
    """The Section 6.2 headline grid: Shfl-BW on one model across the GPUs."""
    return SweepSpec(
        kernels=(
            KernelSpec(
                "shfl-bw",
                kwargs={"vector_size": vector_size},
                label=f"Shfl-BW,V={vector_size}",
            ),
        ),
        gpus=PAPER_GPUS,
        sparsities=(sparsity,),
        models=(model,),
    )


def collate_headline(result: SweepResult) -> dict[str, float]:
    """Fold headline records into ``{gpu: speedup}`` (paper, Transformer at
    75 % sparsity: 1.81x / 4.18x / 1.90x on V100 / T4 / A100)."""
    spec = result.spec
    lookup = result.by_config()
    (model,) = spec.models
    (kernel,) = spec.kernels
    (sparsity,) = spec.sparsities
    out: dict[str, float] = {}
    for gpu in spec.gpus:
        dense_time = lookup[spec.dense_config(model, gpu)].time_s
        record = lookup[spec.config(kernel, model, gpu, sparsity)]
        out[gpu] = dense_time / record.time_s if record.ok else float("nan")
    return out

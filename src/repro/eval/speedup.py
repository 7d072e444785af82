"""Kernel-speedup experiments (Figure 1, Figure 6 and the Section 6.2
headline numbers).

Everything here runs on the GPU timing model with the real layer shapes of
the three workloads; no model training is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.arch import GPUArch
from ..gpu.simulator import simulate_batch
from ..kernels.base import (
    GEMMShape,
    KernelNotApplicableError,
    LaunchCells,
    SpMMKernel,
    simulate_cells,
)
from ..kernels.registry import (
    DENSE_BASELINE_LABEL,
    paper_baseline_specs,
)
from ..models.shapes import LayerShape
from .runner import KernelSpec, SweepResult, SweepRunner, SweepSpec

__all__ = [
    "SpeedupPoint",
    "kernel_time",
    "layer_time",
    "layer_times_grid",
    "model_time",
    "model_time_grid",
    "model_speedup",
    "spmm_throughput_sweep",
    "figure6_sweep",
    "figure6_spec",
    "collate_figure6",
    "figure1_spec",
    "collate_figure1",
    "headline_speedups",
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


@dataclass(frozen=True)
class SpeedupPoint:
    """One kernel at one operating point, relative to the dense baseline."""

    kernel: str
    arch: str
    sparsity: float
    time_s: float
    dense_time_s: float

    @property
    def speedup(self) -> float:
        if self.time_s <= 0:
            return float("inf")
        return self.dense_time_s / self.time_s


def kernel_time(kernel: SpMMKernel, arch: GPUArch, shape: GEMMShape, density: float) -> float:
    """Estimated execution time of one kernel on one GEMM shape."""
    return kernel.estimate(arch, shape, density).total_time_s


def layer_time(kernel: SpMMKernel, arch: GPUArch, layer: LayerShape, density: float) -> float:
    """Estimated execution time of one kernel on one layer occurrence.

    Convolution layers are routed through the kernel's ``estimate_conv``
    (implicit GEMM plus the unfolding overhead); a kernel without a
    convolution implementation raises :class:`KernelNotApplicableError`.
    """
    if layer.kind == "conv":
        timing = kernel.estimate_conv(
            arch,
            layer.conv,
            density,
            batch=layer.batch,
            height=layer.height,
            width=layer.width,
        )
        return timing.total_time_s
    return kernel_time(kernel, arch, layer.gemm, density)


def model_time(
    kernel: SpMMKernel, arch: GPUArch, layers: list[LayerShape], density: float
) -> float:
    """Total time over all (weighted) layers of a workload.

    Raises the rejection of the first layer the kernel cannot run (e.g.
    balanced 2:4 at a density other than 0.5, or a baseline without a
    convolution implementation on a conv layer).
    """
    return float(model_time_grid(kernel, arch, layers, np.array([density]))[0])


def _layer_cells(
    kernel: SpMMKernel, arch: GPUArch, layers: list[LayerShape], densities: np.ndarray
) -> LaunchCells:
    """The ``densities x layers`` grid of layer cells (density-major)."""
    densities = np.asarray(densities, dtype=np.float64)
    return kernel.build_layer_cells(
        arch,
        [layer.gemm for layer in layers] * len(densities),
        np.repeat(densities, len(layers)),
        kernel_sizes=[layer.conv_kernel_size for layer in layers] * len(densities),
    )


def layer_times_grid(
    kernel: SpMMKernel, arch: GPUArch, layers: list[LayerShape], density: float
) -> tuple[np.ndarray, tuple[Exception | None, ...]]:
    """Per-occurrence time of every layer at one density, in one batched call
    (the autotuner's candidate-scoring path), plus per layer the exception
    that rejects it (``None`` when the kernel runs it; its time is then
    meaningless)."""
    cells = _layer_cells(kernel, arch, layers, np.array([density]))
    totals = simulate_batch(arch, cells.batch).total_time_s
    return totals + cells.unfold_time(totals), cells.errors


def model_time_grid(
    kernel: SpMMKernel, arch: GPUArch, layers: list[LayerShape], densities: np.ndarray
) -> np.ndarray:
    """Whole-workload time at every density in one batched call.

    The per-layer ``time * count`` terms accumulate in layer order.  Raises
    the rejection of the first rejected ``(density, layer)`` cell.
    """
    densities = np.asarray(densities, dtype=np.float64)
    timing = simulate_cells(arch, _layer_cells(kernel, arch, layers, densities))
    times = timing.total_time_s.reshape(len(densities), len(layers))
    totals = np.zeros(len(densities))
    for column, layer in enumerate(layers):
        totals += times[:, column] * layer.count
    return totals


def model_speedup(
    kernel: SpMMKernel,
    dense_kernel: SpMMKernel,
    arch: GPUArch,
    layers: list[LayerShape],
    sparsity: float,
    *,
    dense_time: float | None = None,
) -> SpeedupPoint | None:
    """Speedup of a sparse kernel over the dense baseline on a workload.

    Returns ``None`` when the kernel is not applicable at this operating
    point (mirroring the missing bars in Figure 6).  ``dense_time`` lets
    sweeps pass the dense baseline computed once per (model, GPU) pair
    instead of re-simulating it for every kernel x sparsity cell.
    """
    density = 1.0 - sparsity
    try:
        sparse_time = model_time(kernel, arch, layers, density)
    except (KernelNotApplicableError, ValueError):
        return None
    if dense_time is None:
        dense_time = model_time(dense_kernel, arch, layers, 1.0)
    return SpeedupPoint(
        kernel=kernel.name,
        arch=arch.name,
        sparsity=sparsity,
        time_s=sparse_time,
        dense_time_s=dense_time,
    )


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
    """Fold Figure 1 records back into ``{curve: {density: throughput}}``."""
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


def spmm_throughput_sweep(
    gpu: str = "V100",
    *,
    m: int = 2048,
    n: int = 128,
    k: int = 2048,
    densities: tuple[float, ...] = FIGURE1_DENSITIES,
    vector_size: int = 64,
    runner: SweepRunner | None = None,
) -> dict[str, dict[float, float]]:
    """Figure 1: SpMM throughput vs density, normalised to CUDA-core dense.

    Returns ``{curve_name: {density: normalised_throughput}}`` with the four
    curves of the figure: tensor-core dense, CUDA-core dense, CUDA-core
    sparse (Sputnik) and tensor-core sparse (Shfl-BW, ours).
    """
    spec = figure1_spec(
        gpu, m=m, n=n, k=k, densities=densities, vector_size=vector_size
    )
    result = (runner or SweepRunner()).run(spec)
    return collate_figure1(result, tuple(densities))


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
    """Fold Figure 6 records back into the nested speedup dict."""
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


def figure6_sweep(
    models: tuple[str, ...] = ("transformer", "gnmt", "resnet50"),
    gpus: tuple[str, ...] = PAPER_GPUS,
    sparsities: tuple[float, ...] = PAPER_SPARSITIES,
    vector_sizes: tuple[int, ...] = (32, 64),
    *,
    runner: SweepRunner | None = None,
) -> dict[tuple[str, str], dict[str, dict[float, float | None]]]:
    """Figure 6: speedup over the dense baseline for every kernel line-up.

    Returns ``{(model, gpu): {kernel_label: {sparsity: speedup_or_None}}}``.
    Kernels that are not applicable (wrong GPU, fixed-density patterns,
    missing convolution support) report ``None``, matching the bars missing
    from the paper's figure.
    """
    spec = figure6_spec(models, gpus, sparsities, vector_sizes)
    result = (runner or SweepRunner()).run(spec)
    return collate_figure6(result)


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
    """Fold headline records into ``{gpu: speedup}``."""
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


def headline_speedups(
    sparsity: float = 0.75,
    vector_size: int = 64,
    model: str = "transformer",
    *,
    runner: SweepRunner | None = None,
) -> dict[str, float]:
    """Section 6.2 headline: Shfl-BW speedup on the Transformer GEMM layers at
    75 % sparsity on each GPU (paper: 1.81x / 4.18x / 1.90x)."""
    spec = headline_spec(sparsity, vector_size, model)
    result = (runner or SweepRunner()).run(spec)
    return collate_headline(result)

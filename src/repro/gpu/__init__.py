"""GPU architecture models and the analytical kernel-timing simulator.

This package stands in for the V100 / T4 / A100 hardware used in the paper's
evaluation.  See :mod:`repro.gpu.arch` for the architecture descriptions and
:mod:`repro.gpu.simulator` for the batched timing model that every kernel in
:mod:`repro.kernels` is scored against.
"""

from .arch import A100, T4, V100, GPUArch, MMAShape, available_gpus, get_gpu
from .memory import BYTES_FP16, BYTES_FP32, BYTES_INDEX, TrafficBatch
from .roofline import (
    dense_tile_reuse,
    max_reuse_blockwise,
    max_reuse_dense,
    max_reuse_unstructured,
)
from .simulator import ComputeUnit, KernelTiming, LaunchBatch, TimingBatch, simulate_batch
from .tiling import optimal_tile_extent

__all__ = [
    "A100",
    "T4",
    "V100",
    "GPUArch",
    "MMAShape",
    "available_gpus",
    "get_gpu",
    "BYTES_FP16",
    "BYTES_FP32",
    "BYTES_INDEX",
    "TrafficBatch",
    "dense_tile_reuse",
    "max_reuse_blockwise",
    "max_reuse_dense",
    "max_reuse_unstructured",
    "ComputeUnit",
    "KernelTiming",
    "LaunchBatch",
    "TimingBatch",
    "simulate_batch",
    "optimal_tile_extent",
]

"""Compute-throughput model for tensor-core and CUDA-core execution.

Tensor cores consume work in fixed ``m x n x k`` MMA granules (Section 2.1 of
the paper).  A threadblock tile whose dimensions are not multiples of the MMA
shape still has to issue whole instructions, so small or ragged tiles waste
throughput.  This module converts each launch's logical FLOPs into issued-MMA
FLOPs, and provides the analogous (much simpler) model for CUDA-core FMA
execution used by unstructured-sparsity baselines such as Sputnik.  Inputs
are arrays with one entry per launch (see
:func:`repro.gpu.simulator.simulate_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import GPUArch, MMAShape
from .vectorize import anytrue


def ceil_div_array(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Element-wise integer ceiling division for positive operands."""
    if anytrue(b <= 0):
        raise ValueError("divisor must be positive")
    return -(-a // b)


@dataclass(frozen=True)
class ComputeBatch:
    """Per-launch compute estimates.

    ``time_s`` is the execution time at the modelled efficiency,
    ``issued_flops`` the FLOPs actually issued (padding waste included) and
    ``useful_flops`` those that contribute to the result.
    """

    time_s: np.ndarray
    issued_flops: np.ndarray
    useful_flops: np.ndarray

    @property
    def utilization(self) -> np.ndarray:
        """``useful_flops / issued_flops`` (1.0 means no quantisation waste)."""
        issued = self.issued_flops
        safe = np.where(issued > 0, issued, 1.0)
        return np.where(issued > 0, self.useful_flops / safe, 0.0)


def mma_instructions_grid(
    tile_m: np.ndarray, tile_n: np.ndarray, tile_k: np.ndarray, mma: MMAShape
) -> np.ndarray:
    """MMA instructions needed to cover each ``tile_m x tile_n x tile_k``
    fragment, padding every dimension up to the MMA granule."""
    if anytrue(tile_m <= 0) or anytrue(tile_n <= 0) or anytrue(tile_k <= 0):
        raise ValueError("tile dimensions must be positive")
    return (
        ceil_div_array(tile_m, mma.m)
        * ceil_div_array(tile_n, mma.n)
        * ceil_div_array(tile_k, mma.k)
    )


def _check_efficiency_array(efficiency: np.ndarray) -> np.ndarray:
    efficiency = np.asarray(efficiency, dtype=np.float64)
    if anytrue((efficiency <= 0.0) | (efficiency > 1.0)):
        raise ValueError("efficiency must be in (0, 1]")
    return efficiency


def tensor_core_time_grid(
    arch: GPUArch,
    useful_flops: np.ndarray,
    *,
    tile_m: np.ndarray,
    tile_n: np.ndarray,
    tile_k: np.ndarray,
    num_tiles: np.ndarray,
    efficiency: np.ndarray,
) -> ComputeBatch:
    """Tensor-core compute time of ``num_tiles`` fragments per launch.

    ``tile_*`` is the per-MMA-loop fragment shape (quantisation waste is
    charged when it is not a multiple of the MMA granule), ``num_tiles`` the
    number of fragments issued over the whole kernel and ``efficiency`` the
    fraction of peak tensor throughput the kernel's inner loop sustains
    (instruction mix, bank conflicts, etc.).
    """
    efficiency = _check_efficiency_array(efficiency)
    useful_flops = np.asarray(useful_flops, dtype=np.float64)
    tile_flops = (mma_instructions_grid(tile_m, tile_n, tile_k, arch.mma) * arch.mma.flops)
    issued = tile_flops.astype(np.float64) * np.asarray(num_tiles, dtype=np.float64)
    issued = np.maximum(issued, useful_flops)
    time = issued / (arch.tensor_flops * efficiency)
    return ComputeBatch(time_s=time, issued_flops=issued, useful_flops=useful_flops)


def cuda_core_time_grid(
    arch: GPUArch,
    useful_flops: np.ndarray,
    *,
    efficiency: np.ndarray,
) -> ComputeBatch:
    """CUDA-core (FMA pipeline) compute time per launch.

    Unstructured sparse kernels execute scalar FMAs: there is no
    instruction-shape quantisation, but irregular control flow reduces the
    achieved throughput, captured by ``efficiency``.
    """
    efficiency = _check_efficiency_array(efficiency)
    useful_flops = np.asarray(useful_flops, dtype=np.float64)
    achieved = arch.cuda_core_flops * efficiency
    time = useful_flops / achieved
    return ComputeBatch(
        time_s=time, issued_flops=useful_flops, useful_flops=useful_flops
    )

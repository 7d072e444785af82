"""Analytical kernel-timing simulator.

This is the substitute for running the paper's CUDA kernels on real V100 / T4
/ A100 hardware.  Every kernel in :mod:`repro.kernels` describes its launches
as a :class:`LaunchBatch` — per launch, how many useful FLOPs it performs, how
many bytes it moves (per operand, after format-specific compression), how it
tiles the problem and which execution unit it uses — and
:func:`simulate_batch` turns the whole batch into time estimates in a handful
of numpy broadcasts by combining:

* the tensor-core / CUDA-core compute model (:mod:`repro.gpu.tensorcore`),
* the DRAM traffic + L2 model (:mod:`repro.gpu.memory`),
* occupancy and wave quantisation (:mod:`repro.gpu.tiling`),
* the software-pipeline / metadata-prefetch model (:mod:`repro.gpu.pipeline`).

The model is element-wise: a launch's numbers never depend on its batch
mates, so the sweep executor may concatenate batches freely.  The absolute
numbers are approximations; what the model is designed to get right are the
*relationships* the paper's evaluation hinges on — dense vs sparse crossover
points, tensor-core vs CUDA-core gaps, the effect of block size ``V`` on data
reuse, and the near-zero cost of the Shfl-BW row shuffle.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .arch import GPUArch
from .memory import TrafficBatch
from .pipeline import pipeline_time_grid
from .tensorcore import cuda_core_time_grid, tensor_core_time_grid
from .tiling import concurrent_tiles_grid, wave_count_grid
from .vectorize import anytrue, stack_parts


class ComputeUnit(enum.Enum):
    """Execution unit a kernel maps its inner product onto."""

    TENSOR_CORE = "tensor_core"
    CUDA_CORE = "cuda_core"
    SPARSE_TENSOR_CORE = "sparse_tensor_core"


@dataclass(frozen=True)
class KernelTiming:
    """One launch's timing estimate (a cell of :class:`TimingBatch`)."""

    kernel: str
    arch: str
    total_time_s: float
    compute_time_s: float
    memory_time_s: float
    meta_time_s: float
    overhead_s: float
    waves: int
    bound: str
    useful_flops: float
    dram_bytes: float
    compute_utilization: float

    def speedup_over(self, other: "KernelTiming") -> float:
        """Speedup of this kernel relative to ``other`` (>1 means faster)."""
        if self.total_time_s <= 0:
            return float("inf")
        return other.total_time_s / self.total_time_s


_UNIT_CODES: dict[ComputeUnit, int] = {
    ComputeUnit.TENSOR_CORE: 0,
    ComputeUnit.CUDA_CORE: 1,
    ComputeUnit.SPARSE_TENSOR_CORE: 2,
}


def _unit_codes(compute_unit, size: int) -> np.ndarray:
    """Coerce a ComputeUnit (or an array of unit codes) to int8 codes."""
    if isinstance(compute_unit, ComputeUnit):
        return np.int8(_UNIT_CODES[compute_unit])
    arr = np.asarray(compute_unit, dtype=np.int8)
    if arr.ndim and arr.shape != (size,):
        raise ValueError(f"expected {size} compute units, got shape {arr.shape}")
    if not np.all(np.isin(arr, list(_UNIT_CODES.values()))):
        raise ValueError("unknown compute-unit code")
    return arr


@dataclass
class LaunchBatch:
    """Structure-of-arrays description of many kernel launches on one arch.

    Every per-launch field is a length-``n`` array, or a scalar shared by
    the whole batch.  ``useful_flops`` (the FLOPs that contribute to the
    result) defines the batch length.  ``traffic`` holds the DRAM streams of
    the data operands and ``meta_traffic`` those of the sparse metadata, kept
    apart so the metadata-prefetch pipeline model can act on them.
    ``tile_*``, ``threads``, ``pipeline_stages`` and ``accumulator_bytes``
    describe the threadblock tile; ``num_tiles`` is the grid size and
    ``k_steps`` the main-loop iterations per threadblock.  ``compute_unit``
    stores one small-int code per launch (see :data:`ComputeUnit`), so one
    batch may mix tensor-core, CUDA-core and sparse-tensor-core launches.
    ``prefetch_metadata`` / ``meta_prefetch_steps`` select the bulk metadata
    prefetch of Algorithm 1; ``extra_overhead_s`` adds fixed costs such as
    multi-stream synchronisation, and ``launches`` counts the device kernel
    launches one logical operation needs.
    """

    names: list[str]
    useful_flops: np.ndarray
    traffic: TrafficBatch
    tile_m: np.ndarray
    tile_n: np.ndarray
    tile_k: np.ndarray
    num_tiles: np.ndarray
    k_steps: np.ndarray
    compute_unit: np.ndarray | ComputeUnit = ComputeUnit.TENSOR_CORE
    meta_traffic: TrafficBatch | None = None
    threads: np.ndarray | int = 128
    pipeline_stages: np.ndarray | int = 2
    accumulator_bytes: np.ndarray | int = 4
    compute_efficiency: np.ndarray | float = 0.85
    bandwidth_efficiency: np.ndarray | float = 0.85
    prefetch_metadata: np.ndarray | bool = True
    meta_prefetch_steps: np.ndarray | int = 4
    extra_overhead_s: np.ndarray | float = 0.0
    launches: np.ndarray | int = 1
    #: Skip the range validations for batches whose fields are valid by
    #: construction (the kernel grid builders validate their own inputs).
    validate: bool = True

    def __post_init__(self) -> None:
        self.useful_flops = np.asarray(self.useful_flops, dtype=np.float64)
        if self.useful_flops.ndim != 1:
            raise ValueError(
                "useful_flops must be a 1-D array with one entry per launch "
                "(it defines the batch length; the other per-launch scalars "
                "broadcast)"
            )
        size = len(self)

        # Per-launch scalars stay 0-d (numpy broadcasts them inside every
        # expression); only genuinely per-launch fields carry full arrays.
        def _ints(value) -> np.ndarray:
            return np.asarray(value, dtype=np.int64)

        def _floats(value) -> np.ndarray:
            return np.asarray(value, dtype=np.float64)

        self.names = list(self.names)
        if len(self.names) == 1 and size != 1:
            self.names = self.names * size
        self.tile_m = _ints(self.tile_m)
        self.tile_n = _ints(self.tile_n)
        self.tile_k = _ints(self.tile_k)
        self.threads = _ints(self.threads)
        self.pipeline_stages = _ints(self.pipeline_stages)
        self.accumulator_bytes = _ints(self.accumulator_bytes)
        self.num_tiles = _ints(self.num_tiles)
        self.k_steps = _ints(self.k_steps)
        self.launches = _ints(self.launches)
        self.meta_prefetch_steps = _ints(self.meta_prefetch_steps)
        self.compute_efficiency = _floats(self.compute_efficiency)
        self.bandwidth_efficiency = _floats(self.bandwidth_efficiency)
        self.extra_overhead_s = _floats(self.extra_overhead_s)
        self.prefetch_metadata = np.asarray(self.prefetch_metadata, dtype=bool)
        self.compute_unit = _unit_codes(self.compute_unit, size)
        if self.meta_traffic is None:
            self.meta_traffic = TrafficBatch(size)
        if len(self.names) != size:
            raise ValueError("one name per launch required")
        if self.traffic.size != size or self.meta_traffic.size != size:
            raise ValueError("traffic batches must match the launch count")
        if not self.validate:
            return

        if anytrue(self.useful_flops < 0):
            raise ValueError("useful_flops must be non-negative")
        if anytrue(self.num_tiles < 1):
            raise ValueError("num_tiles must be >= 1")
        if anytrue(self.k_steps < 1):
            raise ValueError("k_steps must be >= 1")
        if anytrue(self.launches < 1):
            raise ValueError("launches must be >= 1")
        if anytrue((self.compute_efficiency <= 0.0) | (self.compute_efficiency > 1.0)):
            raise ValueError("compute_efficiency must be in (0, 1]")
        if anytrue(
            (self.bandwidth_efficiency <= 0.0) | (self.bandwidth_efficiency > 1.0)
        ):
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        if anytrue(self.tile_m <= 0) or anytrue(self.tile_n <= 0) or anytrue(self.tile_k <= 0):
            raise ValueError("tile dimensions must be positive")
        if anytrue(self.threads <= 0) or anytrue(self.threads % 32 != 0):
            raise ValueError("threads must be a positive multiple of 32")
        if anytrue(self.pipeline_stages < 1):
            raise ValueError("pipeline_stages must be >= 1")

    def __len__(self) -> int:
        return int(self.useful_flops.shape[0])

    @classmethod
    def concat(cls, batches: "Sequence[LaunchBatch]") -> "LaunchBatch":
        """Stack several launch batches (for one arch) end to end.

        The sweep executor builds one batch per kernel group and then
        simulates every group of a GPU in a single :func:`simulate_batch`
        call; since the model is element-wise, concatenation cannot change
        any launch's numbers.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("cannot concatenate zero batches")
        if len(batches) == 1:
            return batches[0]
        sizes = [len(batch) for batch in batches]

        def _field(name: str, dtype) -> np.ndarray:
            return stack_parts(
                [getattr(batch, name) for batch in batches], sizes, dtype=dtype
            )

        return cls(
            names=[name for batch in batches for name in batch.names],
            useful_flops=_field("useful_flops", np.float64),
            traffic=TrafficBatch.concat([batch.traffic for batch in batches]),
            meta_traffic=TrafficBatch.concat(
                [batch.meta_traffic for batch in batches]
            ),
            tile_m=_field("tile_m", np.int64),
            tile_n=_field("tile_n", np.int64),
            tile_k=_field("tile_k", np.int64),
            threads=_field("threads", np.int64),
            pipeline_stages=_field("pipeline_stages", np.int64),
            accumulator_bytes=_field("accumulator_bytes", np.int64),
            num_tiles=_field("num_tiles", np.int64),
            k_steps=_field("k_steps", np.int64),
            compute_unit=_field("compute_unit", np.int8),
            compute_efficiency=_field("compute_efficiency", np.float64),
            bandwidth_efficiency=_field("bandwidth_efficiency", np.float64),
            prefetch_metadata=_field("prefetch_metadata", bool),
            meta_prefetch_steps=_field("meta_prefetch_steps", np.int64),
            extra_overhead_s=_field("extra_overhead_s", np.float64),
            launches=_field("launches", np.int64),
            validate=False,
        )


@dataclass(frozen=True)
class TimingBatch:
    """Per-launch timing estimates returned by :func:`simulate_batch`."""

    kernel: tuple[str, ...]
    arch: str
    total_time_s: np.ndarray
    compute_time_s: np.ndarray
    memory_time_s: np.ndarray
    meta_time_s: np.ndarray
    overhead_s: np.ndarray
    waves: np.ndarray
    bound: tuple[str, ...]
    useful_flops: np.ndarray
    dram_bytes: np.ndarray
    compute_utilization: np.ndarray

    def __len__(self) -> int:
        return int(self.total_time_s.shape[0])

    def timing(self, index: int) -> KernelTiming:
        """Materialise one launch's estimate as a :class:`KernelTiming`."""
        return KernelTiming(
            kernel=self.kernel[index],
            arch=self.arch,
            total_time_s=float(self.total_time_s[index]),
            compute_time_s=float(self.compute_time_s[index]),
            memory_time_s=float(self.memory_time_s[index]),
            meta_time_s=float(self.meta_time_s[index]),
            overhead_s=float(self.overhead_s[index]),
            waves=int(self.waves[index]),
            bound=str(self.bound[index]),
            useful_flops=float(self.useful_flops[index]),
            dram_bytes=float(self.dram_bytes[index]),
            compute_utilization=float(self.compute_utilization[index]),
        )


def simulate_batch(arch: GPUArch, batch: LaunchBatch) -> TimingBatch:
    """Estimate the execution time of every launch in ``batch`` on ``arch``.

    The whole-kernel compute time (peak-throughput model, de-rated by grid
    under-utilisation and wave quantisation) and the whole-kernel DRAM /
    metadata traffic times feed the software-pipeline model, which decides
    how much of the memory latency hides behind compute; fixed launch
    overheads are added on top.
    """
    total_fragments = batch.num_tiles * batch.k_steps
    is_cuda = batch.compute_unit == _UNIT_CODES[ComputeUnit.CUDA_CORE]
    is_sparse = batch.compute_unit == _UNIT_CODES[ComputeUnit.SPARSE_TENSOR_CORE]
    any_cuda = anytrue(is_cuda)
    all_cuda = not anytrue(batch.compute_unit != _UNIT_CODES[ComputeUnit.CUDA_CORE])
    # The tensor-core estimate doubles as the sparse-tensor-core one: the
    # A100's 2:4 sparse tensor cores halve it, while parts without them fall
    # back to the dense rate (cuSPARSELt's behaviour before Ampere).  Only
    # batches that actually mix in CUDA-core launches pay for a second grid.
    if all_cuda:
        cuda = cuda_core_time_grid(
            arch, batch.useful_flops, efficiency=batch.compute_efficiency
        )
        compute_time = cuda.time_s
        compute_utilization = cuda.utilization
    else:
        tensor = tensor_core_time_grid(
            arch,
            batch.useful_flops,
            tile_m=batch.tile_m,
            tile_n=batch.tile_n,
            tile_k=batch.tile_k,
            num_tiles=total_fragments,
            efficiency=batch.compute_efficiency,
        )
        sparse_time = tensor.time_s
        if anytrue(is_sparse) and arch.supports_sparse_tensor_core:
            sparse_time = tensor.time_s / 2.0
        compute_time = np.where(is_sparse, sparse_time, tensor.time_s)
        compute_utilization = tensor.utilization
        if any_cuda:
            cuda = cuda_core_time_grid(
                arch, batch.useful_flops, efficiency=batch.compute_efficiency
            )
            compute_time = np.where(is_cuda, cuda.time_s, compute_time)
            compute_utilization = np.where(
                is_cuda, cuda.utilization, compute_utilization
            )

    data_bytes = batch.traffic.total_dram_bytes(arch)
    meta_bytes = batch.meta_traffic.total_dram_bytes(arch)
    total_bytes = data_bytes + meta_bytes

    memory_time = batch.traffic.memory_time(
        arch, bandwidth_efficiency=batch.bandwidth_efficiency, dram_bytes=data_bytes
    )
    meta_time = batch.meta_traffic.memory_time(
        arch, bandwidth_efficiency=batch.bandwidth_efficiency, dram_bytes=meta_bytes
    )

    concurrent = concurrent_tiles_grid(
        arch,
        tile_m=batch.tile_m,
        tile_n=batch.tile_n,
        tile_k=batch.tile_k,
        threads=batch.threads,
        pipeline_stages=batch.pipeline_stages,
        accumulator_bytes=batch.accumulator_bytes,
    )
    waves = wave_count_grid(batch.num_tiles, concurrent)
    # Fraction of the chip's compute resources the grid can actually keep
    # busy: an SM's execution units are saturated once one threadblock is
    # resident (extra occupancy only hides latency), so what matters is how
    # many SMs receive work in the average wave.  Small grids (fewer tiles
    # than SMs) and ragged final waves both lower it.  The peak-throughput
    # compute estimate is stretched by the inverse of this factor.
    tiles_per_wave = batch.num_tiles / waves
    grid_utilization = np.minimum(1.0, tiles_per_wave / arch.sm_count)
    effective_compute_time = compute_time / grid_utilization

    pipe = pipeline_time_grid(
        compute_time=effective_compute_time / batch.k_steps,
        load_time=memory_time / batch.k_steps,
        meta_time=meta_time / batch.k_steps,
        k_steps=batch.k_steps,
        pipeline_stages=batch.pipeline_stages,
        meta_prefetch_steps=batch.meta_prefetch_steps,
        prefetch_metadata=batch.prefetch_metadata,
        validate=False,
    )

    overhead = arch.kernel_launch_overhead_s * batch.launches + batch.extra_overhead_s
    # The pipeline prologue (filling the first buffers) is paid per resident
    # threadblock, not once per whole-kernel "step": dividing by the number
    # of concurrently resident tiles scales the whole-kernel-granularity
    # estimate back to a per-tile warm-up.
    resident = np.maximum(1, np.minimum(batch.num_tiles, concurrent))
    total = pipe.steady_state_time + pipe.prologue_time / resident + overhead

    # Per-launch scalars may have stayed 0-d through the expressions above;
    # materialise every output at full batch length so TimingBatch cells
    # index cleanly.
    def _full(values) -> np.ndarray:
        values = np.asarray(values)
        if values.shape == total.shape:
            return values
        return np.broadcast_to(values, total.shape)

    return TimingBatch(
        kernel=tuple(batch.names),
        arch=arch.name,
        total_time_s=total,
        compute_time_s=_full(effective_compute_time),
        memory_time_s=_full(memory_time),
        meta_time_s=_full(meta_time),
        overhead_s=_full(overhead),
        waves=_full(waves),
        bound=tuple(_full(pipe.bound).tolist()),
        useful_flops=_full(batch.useful_flops),
        dram_bytes=_full(total_bytes),
        compute_utilization=_full(compute_utilization),
    )

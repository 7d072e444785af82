"""GPU architecture descriptions used by the kernel timing model.

The paper evaluates on NVIDIA V100, T4 and A100.  Real hardware is not
available in this environment, so every kernel in :mod:`repro.kernels` is
timed against an analytical model parameterised by the published
specifications captured here.  The specs deliberately stick to the handful of
quantities that govern the paper's arguments (Section 2.1 and 3.2):

* tensor-core and CUDA-core peak throughput (FP16),
* DRAM and L2 bandwidth,
* the SM count and per-SM shared memory / register file capacity,
* tensor-core MMA instruction granularity.

All throughputs are stored in floating point operations per second (FLOP/s,
counting a multiply-accumulate as two operations) and bandwidths in bytes per
second, so the timing model never has to juggle units.
"""

from __future__ import annotations

from dataclasses import dataclass, field


TERA = 1.0e12
GIGA = 1.0e9
MEGA = 1.0e6
KILO = 1.0e3


@dataclass(frozen=True)
class MMAShape:
    """Granularity of one tensor-core matrix-multiply-accumulate instruction.

    The paper quotes ``m16n8k16`` as the granularity of the latest NVIDIA
    tensor cores (Section 2.1); Volta exposes ``m16n16k4`` HMMA steps through
    the WMMA API but the effective fragment is 16x16x16, which is what we
    model.
    """

    m: int
    n: int
    k: int

    @property
    def flops(self) -> int:
        """FLOPs performed by one MMA instruction (MAC = 2 ops)."""
        return 2 * self.m * self.n * self.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"m{self.m}n{self.n}k{self.k}"


@dataclass(frozen=True)
class GPUArch:
    """A single GPU architecture as seen by the performance model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"V100"``.
    sm_count:
        Number of streaming multiprocessors.
    sm_clock_hz:
        Boost clock used for peak-throughput calculations.
    tensor_flops:
        Peak FP16 tensor-core throughput of the whole chip, FLOP/s.
    cuda_core_flops:
        Peak FP16 CUDA-core (non tensor-core) throughput, FLOP/s.
    dram_bandwidth:
        Peak DRAM bandwidth, bytes/s.
    l2_bandwidth:
        Aggregate L2 cache bandwidth, bytes/s.
    l2_capacity:
        L2 cache capacity in bytes.
    shared_mem_per_sm:
        Maximum shared memory usable by threadblocks on one SM, bytes.
    register_file_per_sm:
        Register file size per SM, bytes.
    max_threads_per_sm:
        Thread-occupancy limit per SM.
    mma:
        Tensor-core instruction granularity.
    supports_sparse_tensor_core:
        Whether the architecture has native 2:4 structured-sparsity support
        (A100 only among the three GPUs in the paper).
    kernel_launch_overhead_s:
        Fixed host-side + scheduling latency added to every kernel launch.
    """

    name: str
    sm_count: int
    sm_clock_hz: float
    tensor_flops: float
    cuda_core_flops: float
    dram_bandwidth: float
    l2_bandwidth: float
    l2_capacity: int
    shared_mem_per_sm: int
    register_file_per_sm: int
    max_threads_per_sm: int
    mma: MMAShape = field(default_factory=lambda: MMAShape(16, 8, 16))
    supports_sparse_tensor_core: bool = False
    kernel_launch_overhead_s: float = 4.0e-6


# --------------------------------------------------------------------------- #
# The three GPUs used in the paper's evaluation (Section 6.1).
#
# Sources: NVIDIA V100 / T4 / A100 whitepapers & datasheets.  FP16 CUDA-core
# throughput is 2x FP32.  Bandwidths are the published peak values.
# --------------------------------------------------------------------------- #

V100 = GPUArch(
    name="V100",
    sm_count=80,
    sm_clock_hz=1530 * MEGA,
    tensor_flops=125 * TERA,
    cuda_core_flops=31.4 * TERA,
    dram_bandwidth=900 * GIGA,
    l2_bandwidth=2150 * GIGA,
    l2_capacity=6 * 1024 * 1024,
    shared_mem_per_sm=96 * 1024,
    register_file_per_sm=256 * 1024,
    max_threads_per_sm=2048,
    mma=MMAShape(16, 16, 16),
    supports_sparse_tensor_core=False,
)

T4 = GPUArch(
    name="T4",
    sm_count=40,
    sm_clock_hz=1590 * MEGA,
    tensor_flops=65 * TERA,
    cuda_core_flops=16.2 * TERA,
    dram_bandwidth=320 * GIGA,
    l2_bandwidth=1280 * GIGA,
    l2_capacity=4 * 1024 * 1024,
    shared_mem_per_sm=64 * 1024,
    register_file_per_sm=256 * 1024,
    max_threads_per_sm=1024,
    mma=MMAShape(16, 8, 16),
    supports_sparse_tensor_core=False,
)

A100 = GPUArch(
    name="A100",
    sm_count=108,
    sm_clock_hz=1410 * MEGA,
    tensor_flops=312 * TERA,
    cuda_core_flops=78 * TERA,
    dram_bandwidth=1555 * GIGA,
    l2_bandwidth=4830 * GIGA,
    l2_capacity=40 * 1024 * 1024,
    shared_mem_per_sm=164 * 1024,
    register_file_per_sm=256 * 1024,
    max_threads_per_sm=2048,
    mma=MMAShape(16, 8, 16),
    supports_sparse_tensor_core=True,
)


_REGISTRY: dict[str, GPUArch] = {
    "V100": V100,
    "T4": T4,
    "A100": A100,
}


def available_gpus() -> list[str]:
    """Names of the GPU architectures known to the model."""
    return sorted(_REGISTRY)


def get_gpu(name: str) -> GPUArch:
    """Look up a GPU architecture by (case-insensitive) name.

    Raises
    ------
    KeyError
        If the name is not one of :func:`available_gpus`.
    """
    key = name.upper()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown GPU {name!r}; available: {', '.join(available_gpus())}"
        )
    return _REGISTRY[key]

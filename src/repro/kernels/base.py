"""Kernel interface shared by every SpMM / convolution implementation.

Each kernel pairs a *functional* implementation (numpy, bit-exact against a
dense reference) with a *performance* description that the GPU timing model
(:mod:`repro.gpu.simulator`) turns into an execution-time estimate.  The two
halves share the same structural assumptions — storage format, tile shapes,
metadata layout — so the timing story cannot drift away from what the kernel
actually computes.

The reduction convention follows the paper: the weight matrix ``A`` has shape
``(M, K)`` and is the (possibly sparse) left operand, the activation matrix
``B`` has shape ``(K, N)`` where ``N`` is the batch (token) dimension, and the
output ``C`` is ``(M, N)``.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.pattern import PatternKind
from ..gpu.arch import GPUArch
from ..gpu.memory import BYTES_FP16, TrafficBatch
from ..gpu.simulator import KernelTiming, LaunchBatch, TimingBatch, simulate_batch
from ..gpu.tensorcore import ceil_div_array
from ..gpu.vectorize import anytrue
from ..sparse.spconv import Conv2dSpec

__all__ = [
    "GEMMShape",
    "KernelCapabilities",
    "KernelNotApplicableError",
    "LaunchCells",
    "SpMMKernel",
    "conv_to_gemm_shape",
    "conv_unfold_factor",
    "no_conv_support_detail",
    "screen_cells",
    "traffic_density_checks",
    "simulate_cells",
    "shape_arrays",
    "weight_traffic_grid",
    "activation_traffic_grid",
    "output_traffic_grid",
    "merge_traffic_grid",
]

#: One per-cell rejection rule of :func:`screen_cells`: a mask over the grid
#: cells and a factory for the exception a masked cell raises (given the
#: cell's index).
CellCheck = tuple["np.ndarray | bool", Callable[[int], Exception]]


class KernelNotApplicableError(RuntimeError):
    """Raised when a kernel cannot run a given problem (unsupported density,
    architecture or pattern)."""


@dataclass(frozen=True)
class GEMMShape:
    """Shape of one (Sp)GEMM problem: ``C[M, N] = A[M, K] @ B[K, N]``."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ValueError("GEMM dimensions must be positive")

    @property
    def flops(self) -> float:
        """Dense FLOP count (MAC = 2 ops)."""
        return 2.0 * self.m * self.n * self.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"M{self.m}/N{self.n}/K{self.k}"


#: The GEMM shapes of a grid of cells: :class:`GEMMShape` objects, or a
#: pre-split ``(ms, ns, ks)`` array triple (see :func:`shape_arrays`).
Shapes = Sequence[GEMMShape] | tuple[np.ndarray, np.ndarray, np.ndarray]


def conv_to_gemm_shape(spec: Conv2dSpec, batch: int, height: int, width: int) -> GEMMShape:
    """Implicit-GEMM shape of a convolution layer (Section 4.1)."""
    if batch <= 0 or height <= 0 or width <= 0:
        raise ValueError("batch and spatial dimensions must be positive")
    oh, ow = spec.output_hw(height, width)
    return GEMMShape(m=spec.gemm_m, n=batch * oh * ow, k=spec.gemm_k)


def no_conv_support_detail(name: str) -> str:
    """The single source of the 'no convolution implementation' message.

    Raised for convolution cells by :meth:`SpMMKernel.build_layer_cells` and
    reported by :meth:`KernelCapabilities.infeasible_reason`.
    """
    return f"kernel {name!r} has no convolution implementation"


def conv_unfold_factor(kernel_size: np.ndarray | int) -> np.ndarray:
    """Replicated share ``1 - 1 / (KH * KW)`` of the im2col unfolding.

    Element-wise over kernel sizes; a 1x1 convolution (im2col is a pure
    reshape) and the ``0`` that marks a linear layer's GEMM return 0.0.
    """
    replication = np.asarray(kernel_size, dtype=np.int64) ** 2
    return np.where(replication > 1, 1.0 - 1.0 / np.maximum(replication, 1), 0.0)


# --------------------------------------------------------------------------- #
# Per-cell applicability
# --------------------------------------------------------------------------- #
def screen_cells(
    densities: np.ndarray, checks: Sequence[CellCheck]
) -> tuple[np.ndarray, tuple[Exception | None, ...]]:
    """Apply per-cell rejection rules, first match wins.

    Returns the densities with every rejected cell's replaced by 1.0 — so a
    kernel can still describe a finite launch for it and its launch batch
    stays aligned with the requested cells — and, per cell, the exception of
    the first rule that rejects it (``None`` for accepted cells).
    """
    size = len(densities)
    errors: list[Exception | None] = [None] * size
    rejected = np.zeros(size, dtype=bool)
    for mask, make_error in checks:
        if not anytrue(mask):
            continue
        fresh = np.broadcast_to(mask, (size,)) & ~rejected
        for index in np.flatnonzero(fresh).tolist():
            errors[index] = make_error(index)
        rejected |= fresh
    if anytrue(rejected):
        densities = np.where(rejected, 1.0, densities)
    return densities, tuple(errors)


def traffic_density_checks(densities: np.ndarray) -> list[CellCheck]:
    """The density rules of a kernel whose weight stream scales with the
    density and whose activation stream keeps that fraction of the rows.

    A negative density gives the weight stream negative bytes; any other
    density outside ``(0, 1]`` — NaN included — is not a kept fraction.
    """
    return [
        (densities < 0, lambda _: ValueError("operand 'weight' has negative bytes")),
        (
            ~((densities > 0.0) & (densities <= 1.0)),
            lambda _: ValueError("kept_fraction must be in (0, 1]"),
        ),
    ]


@dataclass(frozen=True)
class LaunchCells:
    """One kernel's launches for a grid of ``(shape, density)`` cells.

    ``batch`` describes one launch per requested cell, in cell order; a
    rejected cell is described at density 1.0 (see :func:`screen_cells`) and
    its numbers are never reported.  ``errors[i]`` is the exception cell
    ``i`` raises from :meth:`SpMMKernel.estimate`, or ``None`` when the
    kernel runs it.  Cells built by :meth:`SpMMKernel.build_layer_cells`
    also carry each convolution cell's unfold factor (0.0 elsewhere) and the
    kernel's :attr:`~SpMMKernel.conv_unfold_overhead`.
    """

    batch: LaunchBatch
    errors: tuple[Exception | None, ...]
    unfold_factors: np.ndarray | float = 0.0
    unfold_overhead: float = 0.0

    def first_error(self) -> Exception | None:
        """The exception of the first rejected cell, or ``None``."""
        return next((error for error in self.errors if error is not None), None)

    def unfold_time(self, kernel_time: np.ndarray) -> np.ndarray:
        """Im2col unfolding time each cell adds to its kernel time.

        The unfolding re-reads each input value ``KH * KW`` times across
        output positions, largely caught on chip, which we approximate with
        a fixed share of the kernel time: :attr:`unfold_overhead` at full
        replication, scaled by :func:`conv_unfold_factor`.  Linear and 1x1
        cells add an exact 0.0.
        """
        return kernel_time * self.unfold_overhead * self.unfold_factors


def simulate_cells(arch: GPUArch, cells: LaunchCells) -> TimingBatch:
    """Time every cell of ``cells`` on ``arch``, unfolding overhead included.

    Raises the first rejected cell's exception instead of timing the grid;
    convolution cells add their :meth:`LaunchCells.unfold_time` to both the
    total and the overhead time.
    """
    error = cells.first_error()
    if error is not None:
        raise error
    timing = simulate_batch(arch, cells.batch)
    unfold = cells.unfold_time(timing.total_time_s)
    return dataclasses.replace(
        timing,
        total_time_s=timing.total_time_s + unfold,
        overhead_s=timing.overhead_s + unfold,
    )


# --------------------------------------------------------------------------- #
# Shared traffic builders, consumed by the kernels' build_launch_batch.
# ``ms``/``ns``/``ks``/``densities`` carry one entry per grid cell.
# --------------------------------------------------------------------------- #
def shape_arrays(
    shapes: Shapes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a list of GEMM shapes into ``(ms, ns, ks)`` int64 arrays.

    Callers on the hot path may pass a pre-built ``(ms, ns, ks)`` array
    triple instead of shape objects (the sweep executor caches these per
    workload); it is returned as-is.
    """
    if isinstance(shapes, tuple) and len(shapes) == 3 and isinstance(shapes[0], np.ndarray):
        return shapes
    ms = np.array([shape.m for shape in shapes], dtype=np.int64)
    ns = np.array([shape.n for shape in shapes], dtype=np.int64)
    ks = np.array([shape.k for shape in shapes], dtype=np.int64)
    return ms, ns, ks


def weight_traffic_grid(
    ms: np.ndarray,
    ks: np.ndarray,
    densities: np.ndarray,
    *,
    column_tiles: np.ndarray | float = 1.0,
    value_bytes: int = BYTES_FP16,
    access_efficiency: float = 1.0,
) -> TrafficBatch:
    """Traffic of the (compressed) weight values.

    ``column_tiles`` is how many times the weight stream is replayed because
    the output is processed in separate N-tiles (usually 1: the weight either
    fits in L2 or the kernel keeps it resident across the N dimension).
    """
    traffic = TrafficBatch(len(ms))
    traffic.add(
        "weight",
        ms * ks * densities * value_bytes,
        reads=np.asarray(column_tiles, dtype=np.float64),
        access_efficiency=access_efficiency,
        validate=False,
    )
    return traffic


def activation_traffic_grid(
    ms: np.ndarray,
    ns: np.ndarray,
    ks: np.ndarray,
    *,
    row_tile: np.ndarray | int,
    kept_fraction: np.ndarray | float = 1.0,
    value_bytes: int = BYTES_FP16,
    access_efficiency: float = 1.0,
    row_tiles: np.ndarray | None = None,
) -> TrafficBatch:
    """Traffic of the dense activation matrix ``B``.

    Each tile of ``row_tile`` weight rows streams the activation rows it
    needs (``kept_fraction`` of the K dimension), so the full activation
    footprint is re-read ``ceil(M / row_tile) * kept_fraction`` times before
    cache filtering.  Larger ``row_tile`` (larger ``V``) means more reuse —
    this is where the pattern's computation-efficiency advantage
    materialises.  The compulsory traffic, ``kept_fraction`` of the
    footprint, is the lower bound (``ceil >= 1`` already respects it; the
    clamp documents the invariant).  ``row_tiles`` optionally passes a
    precomputed ``ceil(ms / row_tile)`` (kernels that also need the quotient
    for their grid reuse it here).
    """
    row_tile = np.asarray(row_tile)
    if anytrue(row_tile <= 0):
        raise ValueError("row_tile must be positive")
    kept_fraction = np.asarray(kept_fraction, dtype=np.float64)
    if anytrue((kept_fraction <= 0.0) | (kept_fraction > 1.0)):
        raise ValueError("kept_fraction must be in (0, 1]")
    if row_tiles is None:
        row_tiles = ceil_div_array(ms, row_tile)
    reads = row_tiles * kept_fraction
    traffic = TrafficBatch(len(ms))
    traffic.add(
        "activation",
        ks * ns * value_bytes,
        reads=np.maximum(kept_fraction, reads),
        access_efficiency=access_efficiency,
        validate=False,
    )
    return traffic


def output_traffic_grid(
    ms: np.ndarray, ns: np.ndarray, *, value_bytes: int = BYTES_FP16
) -> TrafficBatch:
    """Traffic of the output matrix ``C`` (written once)."""
    traffic = TrafficBatch(len(ms))
    traffic.add("output", ms * ns * value_bytes, is_write=True, validate=False)
    return traffic


def merge_traffic_grid(*parts: TrafficBatch) -> TrafficBatch:
    """Combine several traffic batches into one (slot order preserved)."""
    merged = TrafficBatch(parts[0].size if parts else 0)
    for part in parts:
        if part.size != merged.size:
            raise ValueError("cannot merge traffic batches of different sizes")
        merged.slots.extend(part.slots)
    return merged


# --------------------------------------------------------------------------- #
# Prepare cache helpers
# --------------------------------------------------------------------------- #
def _freeze_prepare_arg(value):
    """Hashable cache-key token for one ``prepare`` argument."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        digest = hashlib.blake2b(arr.tobytes(), digest_size=16).hexdigest()
        return ("ndarray", arr.shape, str(arr.dtype), digest)
    return value


def prepare_cache_key(weight: np.ndarray, **kwargs) -> tuple:
    """Cache key identifying one (weight, prepare-kwargs) combination."""
    return (
        _freeze_prepare_arg(weight),
        tuple(sorted((k, _freeze_prepare_arg(v)) for k, v in kwargs.items())),
    )


# --------------------------------------------------------------------------- #
# Capability metadata
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelCapabilities:
    """Declarative constraint metadata of one kernel.

    This is the *static* half of applicability: everything a kernel can rule
    out from its class attributes alone, before the timing model runs.  The
    autotuner (:mod:`repro.tune`) uses it to prune infeasible candidates
    cheaply; the dynamic half (shape- and density-dependent rejections) is
    reported per cell by :meth:`SpMMKernel.build_launch_batch`.
    """

    name: str
    pattern: str
    supports_conv: bool
    supported_archs: tuple[str, ...] | None
    fixed_density: float | None
    requires_sparse_tensor_core: bool

    @property
    def is_dense(self) -> bool:
        """Dense kernels ignore weight sparsity and always time the full GEMM."""
        return self.pattern == PatternKind.DENSE.value

    def unsupported_arch(self, arch: GPUArch) -> str | None:
        """Why the kernel does not run on ``arch`` at all, or ``None``."""
        if self.supported_archs is None or arch.name in self.supported_archs:
            return None
        return f"kernel {self.name!r} only runs on {', '.join(self.supported_archs)}"

    def infeasible_reason(
        self, arch: GPUArch, *, kind: str = "linear", density: float = 1.0
    ) -> str | None:
        """Why this kernel cannot run the given cell, or ``None`` if it can.

        ``kind`` is the layer kind (``"linear"`` / ``"conv"``) and ``density``
        the weight non-zero fraction; dense kernels accept any density (they
        simply do not exploit the zeros).
        """
        unsupported = self.unsupported_arch(arch)
        if unsupported is not None:
            return unsupported
        if self.requires_sparse_tensor_core and not arch.supports_sparse_tensor_core:
            return f"{arch.name} has no sparse tensor cores"
        if kind == "conv" and not self.supports_conv:
            return no_conv_support_detail(self.name)
        if (
            not self.is_dense
            and self.fixed_density is not None
            and abs(density - self.fixed_density) > 1e-9
        ):
            return (
                f"kernel {self.name!r} only supports density "
                f"{self.fixed_density}, got {density}"
            )
        return None


# --------------------------------------------------------------------------- #
# Kernel interface
# --------------------------------------------------------------------------- #
class SpMMKernel(abc.ABC):
    """A weight-sparse (or dense) matrix-multiplication kernel.

    Concrete kernels provide three things:

    * :meth:`prepare` — compress a dense (pruned) weight matrix into the
      kernel's storage format,
    * :meth:`run` — functional execution ``C = A @ B`` on numpy arrays,
    * :meth:`build_launch_batch` — the performance description of a grid of
      launches, consumed by the GPU timing model.
    """

    #: Human-readable kernel name used in benchmark tables.
    name: str = "abstract"
    #: Sparsity pattern the kernel consumes.
    pattern: PatternKind = PatternKind.DENSE
    #: Whether the kernel has an implicit-GEMM convolution variant
    #: (the paper's baselines all lack one; ours and the dense library have it).
    supports_conv: bool = False
    #: Architectures the kernel runs on (``None`` means every modelled GPU).
    supported_archs: tuple[str, ...] | None = None
    #: The single weight density the format supports (``None`` means any);
    #: e.g. balanced 2:4 is pinned to 0.5.
    fixed_density: float | None = None
    #: Whether the kernel needs A100-style sparse tensor cores.
    requires_sparse_tensor_core: bool = False
    #: How many compressed weights :meth:`prepare_cached` keeps per kernel.
    prepare_cache_size: int = 8
    #: Whether :meth:`build_launch_batch` ignores the target architecture
    #: entirely (no split-K heuristics, efficiency tables or capability
    #: gates inside the launch construction).  The sweep executor reuses
    #: such kernels' launch batches across GPUs instead of rebuilding them
    #: per architecture.
    launch_arch_agnostic: bool = False
    #: Fractional time overhead of the on-the-fly im2col unfolding at full
    #: ``KH x KW`` replication (1x1 convolutions unfold for free).
    conv_unfold_overhead: float = 0.05

    # -------------------------- functional side -------------------------- #
    @abc.abstractmethod
    def prepare(self, weight: np.ndarray, **kwargs):
        """Compress a pruned dense weight matrix into the kernel's format."""

    @abc.abstractmethod
    def run(self, prepared, activations: np.ndarray) -> np.ndarray:
        """Execute the kernel functionally: return ``A @ B``."""

    def prepare_cached(self, weight: np.ndarray, **kwargs):
        """Memoised :meth:`prepare`.

        Compressing a weight matrix is the expensive offline half of every
        kernel; inference-style workloads run the same weights against many
        activation batches, so the compressed format is cached per kernel
        instance (LRU, :attr:`prepare_cache_size` entries) keyed by the
        weight bytes and the prepare arguments.
        """
        cache: OrderedDict = self.__dict__.setdefault("_prepare_cache", OrderedDict())
        key = prepare_cache_key(weight, **kwargs)
        prepared = cache.get(key)
        if prepared is not None:
            cache.move_to_end(key)
            return prepared
        prepared = self.prepare(weight, **kwargs)
        cache[key] = prepared
        while len(cache) > self.prepare_cache_size:
            cache.popitem(last=False)
        return prepared

    def matmul(self, weight: np.ndarray, activations: np.ndarray, **kwargs) -> np.ndarray:
        """Convenience: cached ``prepare`` + ``run`` in one call."""
        return self.run(self.prepare_cached(weight, **kwargs), activations)

    # -------------------------- performance side ------------------------- #
    @abc.abstractmethod
    def build_launch_batch(
        self,
        arch: GPUArch,
        shapes: Shapes,
        densities: np.ndarray,
        **kwargs,
    ) -> LaunchCells:
        """Describe one launch per ``(shape, density)`` cell for the timing
        model.

        ``shapes`` and ``densities`` are parallel (``shapes`` may also be a
        pre-split ``(ms, ns, ks)`` triple, see :func:`shape_arrays`).  A cell
        the kernel cannot run does not fail the grid: it is reported in
        :attr:`LaunchCells.errors`.
        """

    def build_layer_cells(
        self,
        arch: GPUArch,
        shapes: Shapes,
        densities: np.ndarray,
        *,
        kernel_sizes: Sequence[int] | np.ndarray,
        **kwargs,
    ) -> LaunchCells:
        """:meth:`build_launch_batch` over model-layer cells.

        ``kernel_sizes`` gives each convolution cell's ``KH`` (``0`` for a
        linear layer's GEMM).  This is where both convolution rules live: a
        kernel without a convolution implementation rejects conv cells ahead
        of any other reason, and the accepted ones pay the im2col unfolding
        overhead (:meth:`LaunchCells.unfold_time`).
        """
        cells = self.build_launch_batch(arch, shapes, densities, **kwargs)
        kernel_sizes = np.asarray(kernel_sizes)
        errors = cells.errors
        if not self.supports_conv and anytrue(kernel_sizes > 0):
            rejection = KernelNotApplicableError(no_conv_support_detail(self.name))
            errors = tuple(
                rejection if size else error
                for size, error in zip(kernel_sizes.tolist(), errors, strict=True)
            )
        return LaunchCells(
            cells.batch,
            errors,
            unfold_factors=conv_unfold_factor(kernel_sizes),
            unfold_overhead=self.conv_unfold_overhead,
        )

    def estimate_grid(
        self,
        arch: GPUArch,
        shapes: Shapes,
        densities: Sequence[float] | np.ndarray,
        **kwargs,
    ) -> TimingBatch:
        """Estimate every ``(shape, density)`` cell of a grid in one batch.

        ``shapes`` and ``densities`` are parallel sequences (one entry per
        cell — callers expand their own cross products).  If any cell is
        rejected, raises the first rejected cell's exception instead.
        """
        cells = self.build_launch_batch(
            arch, shapes, np.asarray(densities, dtype=np.float64), **kwargs
        )
        return simulate_cells(arch, cells)

    def estimate(
        self, arch: GPUArch, shape: GEMMShape, density: float, **kwargs
    ) -> KernelTiming:
        """Estimate the execution time of the kernel on ``arch`` (a grid of
        one cell)."""
        return self.estimate_grid(arch, [shape], [density], **kwargs).timing(0)

    def estimate_conv(
        self,
        arch: GPUArch,
        spec: Conv2dSpec,
        density: float,
        *,
        batch: int,
        height: int,
        width: int,
        **kwargs,
    ) -> KernelTiming:
        """Estimate an implicit-GEMM convolution with this kernel: the GEMM
        estimate plus the unfolding overhead (see :meth:`build_layer_cells`).
        """
        shape = conv_to_gemm_shape(spec, batch, height, width)
        cells = self.build_layer_cells(
            arch,
            [shape],
            np.array([density], dtype=np.float64),
            kernel_sizes=[spec.kernel_size],
            **kwargs,
        )
        return simulate_cells(arch, cells).timing(0)

    def metadata_bytes_grid(
        self, ms: np.ndarray, ks: np.ndarray, densities: np.ndarray, **kwargs
    ) -> np.ndarray:
        """Bytes of sparse metadata the format needs per cell (0 for dense
        kernels)."""
        return np.zeros(len(ms))

    # ------------------------------ misc -------------------------------- #
    def capabilities(self) -> KernelCapabilities:
        """The kernel's declarative constraint metadata (for candidate
        pruning in :mod:`repro.tune`)."""
        return KernelCapabilities(
            name=self.name,
            pattern=self.pattern.value,
            supports_conv=self.supports_conv,
            supported_archs=self.supported_archs,
            fixed_density=self.fixed_density,
            requires_sparse_tensor_core=self.requires_sparse_tensor_core,
        )

    def metadata_bytes(self, shape: GEMMShape, density: float = 1.0, **kwargs) -> float:
        """Bytes of sparse metadata the format needs (0 for dense kernels)."""
        ms, _, ks = shape_arrays([shape])
        densities = np.array([density], dtype=np.float64)
        return float(self.metadata_bytes_grid(ms, ks, densities, **kwargs)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} pattern={self.pattern.value}>"

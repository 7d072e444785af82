"""Memory-traffic model for the GPU kernel simulator.

The model follows the paper's framing (Section 3.2.2): kernel performance on
tensor-core GPUs is dominated by how many bytes have to cross the DRAM
interface per floating point operation.  We therefore describe a batch of
launches' memory behaviour as a :class:`TrafficBatch` of DRAM bytes by
operand, plus an *access efficiency* per operand that captures how well the
access pattern uses the memory system (coalescing, transaction granularity).

A light-weight L2 model is included: operand streams whose per-wave working
set fits in the L2 cache are only charged DRAM traffic once per wave, which is
what makes small-N GEMMs (the shapes of real DNN layers, Figure 6) memory
bound on the weight matrix rather than on the activation re-reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arch import GPUArch
from .vectorize import anytrue, stack_parts

#: Bytes per FP16 value; the paper evaluates half precision throughout.
BYTES_FP16 = 2
#: Bytes per FP32 value (accumulators, some metadata).
BYTES_FP32 = 4
#: Bytes per column-index / row-index metadata entry.
BYTES_INDEX = 4


@dataclass
class OperandBatch:
    """One operand *slot* across a batch of launches.

    ``bytes`` is the unique footprint of the operand each launch touches and
    ``reads`` how many times that footprint is streamed before any cache
    filtering (e.g. an activation tile re-read once per row-tile).
    ``access_efficiency`` is the fraction of each memory transaction that
    carries useful data — 1.0 for coalesced streaming, lower for gather-style
    access such as unstructured SpMM loading scattered activation rows.
    ``is_write`` marks store streams, which are not L2-filtered.  Every field
    holds one entry per launch, or a scalar shared by the batch.
    """

    name: str
    bytes: np.ndarray
    reads: np.ndarray
    access_efficiency: np.ndarray
    is_write: np.ndarray

    def raw_bytes(self) -> np.ndarray:
        """Per-launch bytes requested before cache filtering."""
        return self.bytes * self.reads

    def dram_bytes(self, arch: GPUArch) -> np.ndarray:
        """Per-launch DRAM bytes after L2 filtering / efficiency penalties.

        Re-reads of an operand whose footprint fits within half of the L2
        capacity hit in L2 and cost no extra DRAM traffic; larger footprints
        degrade smoothly (the fraction of the footprint resident in L2 is
        filtered, the rest spills to DRAM on every re-read).  Stores always
        go to DRAM (write-through approximation).
        """
        reads = self.reads
        # Single-read streams (outputs, metadata, weights) never hit the L2
        # re-read filter; skip its arithmetic when the slot cannot qualify.
        if reads.ndim == 0 and reads <= 1.0:
            return (self.bytes * reads) / self.access_efficiency
        usable_l2 = arch.l2_capacity / 2
        safe_bytes = np.where(self.bytes > 0, self.bytes, 1.0)
        # Denormal footprints overflow the ratio to inf; the min() clamps it
        # to 1.0.
        with np.errstate(over="ignore"):
            hit_fraction = np.minimum(1.0, usable_l2 / safe_bytes)
        adjusted = (~self.is_write) & (reads > 1.0) & (self.bytes > 0)
        effective_reads = np.where(
            adjusted, 1.0 + (reads - 1.0) * (1.0 - hit_fraction), reads
        )
        return (self.bytes * effective_reads) / self.access_efficiency


@dataclass
class TrafficBatch:
    """Operand traffic streams of a whole batch of launches.

    ``size`` is the batch length; each :meth:`add` appends one operand slot
    shared by every launch (scalars broadcast).  Launches with fewer operands
    than their batch-mates pad the missing slots with zero-byte streams,
    which contribute exactly ``0.0`` to every aggregate.
    """

    size: int
    slots: list[OperandBatch] = field(default_factory=list)

    def _as_array(self, value, dtype=np.float64) -> np.ndarray:
        arr = np.asarray(value, dtype=dtype)
        if arr.ndim and arr.shape != (self.size,):
            raise ValueError(
                f"expected a scalar or a length-{self.size} array, got shape {arr.shape}"
            )
        return arr

    def add(
        self,
        name: str,
        bytes: np.ndarray | float,
        *,
        reads: np.ndarray | float = 1.0,
        access_efficiency: np.ndarray | float = 1.0,
        is_write: np.ndarray | bool = False,
        validate: bool = True,
    ) -> "TrafficBatch":
        """Append one operand slot and return ``self`` for chaining.

        Scalar fields stay 0-d (numpy broadcasts them in every aggregate);
        per-launch arrays must have length ``size``.  ``validate`` may be
        switched off by callers whose inputs are non-negative / in-range by
        construction (the kernel grid builders validate their own inputs
        before deriving the traffic).
        """
        bytes_ = self._as_array(bytes)
        reads_ = self._as_array(reads)
        efficiency = self._as_array(access_efficiency)
        write = self._as_array(is_write, dtype=bool)
        if validate:
            if anytrue(bytes_ < 0):
                raise ValueError(f"operand {name!r} has negative bytes")
            if anytrue(reads_ < 0):
                raise ValueError(f"operand {name!r} has negative read count")
            if anytrue((efficiency <= 0.0) | (efficiency > 1.0)):
                raise ValueError(
                    f"operand {name!r} access efficiency must be in (0, 1]"
                )
        self.slots.append(OperandBatch(name, bytes_, reads_, efficiency, write))
        return self

    @classmethod
    def concat(cls, parts: "list[TrafficBatch]") -> "TrafficBatch":
        """Stack several traffic batches end to end.

        Slot ``j`` of the result concatenates slot ``j`` of every part;
        parts with fewer slots pad with zero-byte streams, which contribute
        an exact ``0.0`` to every aggregate.
        """
        sizes = [part.size for part in parts]
        merged = cls(sum(sizes))
        max_slots = max((len(part.slots) for part in parts), default=0)
        for slot in range(max_slots):
            ops = [
                part.slots[slot] if slot < len(part.slots) else None for part in parts
            ]
            merged.slots.append(
                OperandBatch(
                    name=next((op.name for op in ops if op is not None), f"slot{slot}"),
                    bytes=stack_parts(
                        [op.bytes if op else None for op in ops], sizes, 0.0
                    ),
                    reads=stack_parts(
                        [op.reads if op else None for op in ops], sizes, 0.0
                    ),
                    access_efficiency=stack_parts(
                        [op.access_efficiency if op else None for op in ops], sizes, 1.0
                    ),
                    is_write=stack_parts(
                        [op.is_write if op else None for op in ops],
                        sizes,
                        False,
                        dtype=bool,
                    ),
                )
            )
        return merged

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_raw_bytes(self) -> np.ndarray:
        """Per-launch bytes requested before any cache filtering."""
        total = np.zeros(self.size)
        for slot in self.slots:
            total += slot.raw_bytes()
        return total

    def total_dram_bytes(self, arch: GPUArch) -> np.ndarray:
        """Per-launch DRAM bytes after L2 filtering / efficiency penalties."""
        total = np.zeros(self.size)
        for slot in self.slots:
            total += slot.dram_bytes(arch)
        return total

    def _check_bandwidth_efficiency(self, bandwidth_efficiency) -> np.ndarray:
        efficiency = self._as_array(bandwidth_efficiency)
        if anytrue((efficiency <= 0.0) | (efficiency > 1.0)):
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        return efficiency

    def dram_time(
        self,
        arch: GPUArch,
        *,
        bandwidth_efficiency: np.ndarray | float = 1.0,
        dram_bytes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-launch DRAM delivery time (``dram_bytes`` may be precomputed)."""
        efficiency = self._check_bandwidth_efficiency(bandwidth_efficiency)
        if dram_bytes is None:
            dram_bytes = self.total_dram_bytes(arch)
        return dram_bytes / (arch.dram_bandwidth * efficiency)

    def l2_time(
        self, arch: GPUArch, *, bandwidth_efficiency: np.ndarray | float = 1.0
    ) -> np.ndarray:
        """Per-launch raw-traffic delivery time through the L2.

        Re-reads filtered out of DRAM still consume last-level-cache
        bandwidth; kernels with poor reuse (small tiles / small ``V``) become
        L2-bandwidth bound even when their DRAM footprint is small — this is
        the "63 MACs per loaded value" argument of Section 2.1.
        """
        efficiency = self._check_bandwidth_efficiency(bandwidth_efficiency)
        return self.total_raw_bytes() / (arch.l2_bandwidth * efficiency)

    def memory_time(
        self,
        arch: GPUArch,
        *,
        bandwidth_efficiency: np.ndarray | float = 1.0,
        dram_bytes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-launch memory-stream time: the slower of DRAM and L2."""
        return np.maximum(
            self.dram_time(
                arch, bandwidth_efficiency=bandwidth_efficiency, dram_bytes=dram_bytes
            ),
            self.l2_time(arch, bandwidth_efficiency=bandwidth_efficiency),
        )

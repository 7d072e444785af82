"""Software-pipeline latency model (Algorithm 1 of the paper).

A Shfl-BW SpMM main loop interleaves three streams of work per K-step:

1. ``BulkLoadMeta`` — load the column indices (metadata) of future weight
   tiles, issued once every ``MetaPrefetchStage`` steps,
2. ``StitchTile`` — load/gather the weight values and the activation rows
   named by the metadata into shared memory,
3. ``WarpMMA`` — tensor-core computation on a previously loaded buffer.

With enough pipeline stages the per-iteration time is the *maximum* of the
overlapping streams; without prefetching, the metadata load serialises with
the data load because the stitch cannot start until the indices are known
(the dependency called out in Section 4.4).  This module models both
behaviours, per launch, so the metadata-prefetch ablation benchmark can
quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vectorize import anytrue


@dataclass(frozen=True)
class PipelineBatch:
    """Per-launch outcome of the pipeline model; ``bound`` is ``"compute"``,
    ``"memory"`` or ``"serial"``."""

    total_time: np.ndarray
    steady_state_time: np.ndarray
    prologue_time: np.ndarray
    bound: np.ndarray


def pipeline_time_grid(
    *,
    compute_time: np.ndarray,
    load_time: np.ndarray,
    meta_time: np.ndarray,
    k_steps: np.ndarray,
    pipeline_stages: np.ndarray,
    meta_prefetch_steps: np.ndarray,
    prefetch_metadata: np.ndarray,
    meta_bulk_efficiency: np.ndarray | float = 1.0,
    validate: bool = True,
) -> PipelineBatch:
    """Estimate each launch's main-loop time under the pipeline model.

    ``compute_time``, ``load_time`` and ``meta_time`` are the per-K-step
    latencies of the tensor-core (or CUDA-core) stream, the shared-memory
    fill (weights + stitched activations) and the metadata (column index)
    load; ``pipeline_stages`` is the number of buffers available for overlap
    (1 disables it) and ``meta_prefetch_steps`` is ``MetaPrefetchStage`` from
    Algorithm 1 — how many iterations' worth of metadata one bulk load
    fetches (1 disables bulk prefetching).  ``meta_bulk_efficiency`` is the
    bandwidth bonus of aggregating small metadata loads into bulk transfers
    (Section 4.4).

    With ``prefetch_metadata`` (the paper's design) and bulk steps, the
    metadata joins the pipelined memory stream, so a step costs
    ``max(compute, load + meta)``; otherwise the metadata load serialises in
    front of the data load with no bulk benefit.  ``validate`` may be
    switched off by callers whose inputs are valid by construction (the
    simulator derives them from an already-validated launch batch).
    """
    bulk_efficiency = np.asarray(meta_bulk_efficiency, dtype=np.float64)
    if validate:
        if anytrue(compute_time < 0) or anytrue(load_time < 0) or anytrue(meta_time < 0):
            raise ValueError("stream times must be non-negative")
        if anytrue(k_steps < 1):
            raise ValueError("k_steps must be >= 1")
        if anytrue(pipeline_stages < 1):
            raise ValueError("pipeline_stages must be >= 1")
        if anytrue(meta_prefetch_steps < 1):
            raise ValueError("meta_prefetch_steps must be >= 1")
        if anytrue((bulk_efficiency <= 0.0) | (bulk_efficiency > 1.0)):
            raise ValueError("meta_bulk_efficiency must be in (0, 1]")

    # Bulk-prefetched metadata joins the pipelined memory stream and can hide
    # behind compute like any other load.  Without it the dependency of
    # Section 4.4 applies: the column indices must arrive before the stitch
    # of the same tile can start, and the stitch must finish before the MMA,
    # so the metadata latency cannot be hidden behind either stream.
    bulk = np.asarray(prefetch_metadata, dtype=bool) & (meta_prefetch_steps > 1)
    memory_stream = np.where(bulk, load_time + meta_time * bulk_efficiency, load_time)
    serial_meta = np.where(bulk, 0.0, meta_time)

    overlapped = pipeline_stages >= 2
    steady = np.where(
        overlapped,
        serial_meta + np.maximum(compute_time, memory_stream),
        serial_meta + compute_time + memory_stream,
    )
    bound = np.where(
        overlapped,
        np.where(compute_time >= memory_stream + serial_meta, "compute", "memory"),
        "serial",
    )

    # Pipeline prologue: the first (stages - 1) buffers must be filled before
    # the first MMA can issue; the epilogue drains symmetric to the prologue
    # and is folded into the same term.
    warmup_iters = np.minimum(pipeline_stages - 1, k_steps)
    prologue = warmup_iters * memory_stream
    steady_state = k_steps * steady
    return PipelineBatch(
        total_time=prologue + steady_state,
        steady_state_time=steady_state,
        prologue_time=prologue,
        bound=bound,
    )

"""Deterministic pruned weights for a tuning plan, prepared once for serving.

The service binds a :class:`~repro.tune.planner.TuningPlan` to concrete
weight tensors.  Real deployments would load trained checkpoints; this repo
derives them from seeded normal values, pruned at the plan's density in the
sparsity pattern of each layer's assigned kernel, so the whole serving state
is a pure function of ``(plan, weight_seed)``.  The pattern is what makes a
sparse kernel fast: a vector-wise group that kept a column for any one of
its rows would multiply a dense matrix.  So each layer is pruned by
magnitude the way its kernel's pattern prunes (see :func:`derive_weights`),
and the kernel's ``prepare`` stores exactly the kept weights.

:func:`planned_runtime` is that state in the form the paper's kernels
consume it: each servable layer's weight compressed once, at load, into its
assigned kernel's format.  Serving a batch then costs only the kernel run —
no batch re-derives, re-hashes or re-compresses a weight.

Memory stays bounded by one layer: :func:`planned_runtime` derives, prepares
and drops one layer at a time, so only one dense weight is alive, and
:func:`derive_weights` masks each weight in place one row slab of about
:data:`_SLAB_BYTES` at a time, so no full-size magnitude copy or mask exists.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator

import numpy as np

from ..core.pattern import PatternKind
from ..core.pruning import balanced_mask, block_keep_flags, vector_wise_mask
from ..kernels.base import SpMMKernel
from ..tune.planned import PlannedModel
from ..tune.planner import TuningPlan

__all__ = ["derive_weights", "planned_runtime"]

#: Bytes of weights masked per slab; a slab's magnitudes and mask are the
#: only temporaries of :func:`derive_weights`, whatever the layer's size.
_SLAB_BYTES = 4 << 20


def derive_weights(
    plan: TuningPlan, weight_seed: int, layers: Collection[str] | None = None
) -> dict[str, np.ndarray]:
    """Seeded pruned weight tensors, one ``(M, K)`` array per planned layer.

    ``layers`` selects which of the plan's layers to derive (default: all),
    in plan order.  Layers are seeded independently (``weight_seed`` plus
    the assignment's position in the plan), so a weight tensor depends only
    on the plan and the seed — never on which subset of layers is derived
    or a worker happens to touch.

    Each layer's mask follows the pattern of its assigned kernel, selected
    by weight magnitude:

    * vector-wise and Shfl-BW: :func:`~repro.core.pruning.vector_wise_mask`
      on consecutive groups of the kernel's ``vector_size`` rows (Shfl-BW
      then prepares with its identity row grouping);
    * block-wise: the blocks :func:`~repro.core.pruning.block_wise_mask`
      keeps at the kernel's ``block_size``, ranked over the whole layer by
      :func:`~repro.core.pruning.block_keep_flags`;
    * balanced: the top 2 of every 4
      (:func:`~repro.core.pruning.balanced_mask`), which is what the 2:4
      format stores;
    * dense and unstructured: a seeded random draw at the plan's density.

    The mask is applied in place, one slab of whole row groups (or block
    rows) at a time, from that slab's magnitudes: beyond the returned arrays
    only slab-sized magnitudes and masks are allocated, plus, for blocks,
    the block sums and their flags.
    A pruned negative weight is ``-0.0``, as ``values * mask`` makes it.
    """
    density = 1.0 - plan.sparsity
    model = PlannedModel(plan)
    if layers is not None:
        unknown = set(layers).difference(assignment.layer for assignment in plan.assignments)
        if unknown:
            raise KeyError(f"plan has no layers {sorted(unknown)}")
    weights: dict[str, np.ndarray] = {}
    for index, assignment in enumerate(plan.assignments):
        if layers is not None and assignment.layer not in layers:
            continue
        shape = model.layers[assignment.layer].gemm
        rng = np.random.default_rng([int(weight_seed), index])
        values = rng.normal(size=(shape.m, shape.k))
        _mask_in_place(model.kernel_for(assignment.layer), values, density, rng)
        weights[assignment.layer] = values
    return weights


def _row_slabs(values: np.ndarray, unit: int) -> Iterator[np.ndarray]:
    """Consecutive row views of ``values``, whole ``unit``-row groups of
    about :data:`_SLAB_BYTES` each."""
    rows = max(1, _SLAB_BYTES // (unit * values.strides[0])) * unit
    return (values[start : start + rows] for start in range(0, len(values), rows))


def _mask_in_place(
    kernel: SpMMKernel, values: np.ndarray, density: float, rng: np.random.Generator
) -> None:
    """Zero the entries of ``values`` outside ``kernel``'s sparsity pattern."""
    pattern = kernel.pattern
    if pattern in (PatternKind.VECTORWISE, PatternKind.SHFLBW):
        vector_size = kernel.vector_size
        for slab in _row_slabs(values, vector_size):
            slab *= vector_wise_mask(np.abs(slab), density, vector_size)
    elif pattern is PatternKind.BLOCKWISE:
        b = kernel.block_size
        keep = block_keep_flags((np.abs(slab) for slab in _row_slabs(values, b)), density, b)
        m, k = values.shape
        blocks = values.reshape(m // b, b, k // b, b)
        blocks *= keep[:, None, :, None]
    elif pattern is PatternKind.BALANCED:
        for slab in _row_slabs(values, 1):
            slab *= balanced_mask(np.abs(slab))
    else:
        # Slab by slab, the draws continue one stream: the same numbers as a
        # single ``rng.random(size=values.shape)``.
        for slab in _row_slabs(values, 1):
            slab *= rng.random(size=slab.shape) < density


def planned_runtime(
    plan: TuningPlan, weight_seed: int
) -> tuple[PlannedModel, dict[str, object]]:
    """The executable runtime of a plan: its model plus prepared weights.

    Each servable (linear) layer maps to the operand its assigned kernel's
    ``prepare`` built from :func:`derive_weights`.  Layers are derived,
    prepared and dropped one at a time, so only one layer's dense weight is
    ever alive and the dense weights themselves are not kept.  Convolution
    layers have no token dimension to serve and are neither derived nor
    prepared.
    """
    model = PlannedModel(plan)
    prepared: dict[str, object] = {}
    for assignment in plan.assignments:
        layer = assignment.layer
        if model.layers[layer].kind == "linear":
            # The dense weight is dropped as soon as its operand is built.
            prepared[layer] = model.kernel_for(layer).prepare(
                derive_weights(plan, weight_seed, layers=(layer,))[layer]
            )
    return model, prepared

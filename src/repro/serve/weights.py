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
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternKind
from ..core.pruning import balanced_mask, block_wise_mask, vector_wise_mask
from ..kernels.base import SpMMKernel
from ..tune.planned import PlannedModel
from ..tune.planner import TuningPlan

__all__ = ["derive_weights", "planned_runtime"]


def derive_weights(plan: TuningPlan, weight_seed: int) -> dict[str, np.ndarray]:
    """Seeded pruned weight tensors, one ``(M, K)`` array per planned layer.

    Layers are seeded independently (``weight_seed`` plus the assignment's
    position in the plan), so a weight tensor depends only on the plan and
    the seed — never on which subset of layers a worker happens to touch.

    Each layer's mask follows the pattern of its assigned kernel, selected
    by weight magnitude:

    * vector-wise and Shfl-BW: :func:`~repro.core.pruning.vector_wise_mask`
      on consecutive groups of the kernel's ``vector_size`` rows (Shfl-BW
      then prepares with its identity row grouping);
    * block-wise: :func:`~repro.core.pruning.block_wise_mask` at the
      kernel's ``block_size``;
    * balanced: the top 2 of every 4
      (:func:`~repro.core.pruning.balanced_mask`), which is what the 2:4
      format stores;
    * dense and unstructured: a seeded random draw at the plan's density.
    """
    density = 1.0 - plan.sparsity
    model = PlannedModel(plan)
    weights: dict[str, np.ndarray] = {}
    for index, assignment in enumerate(plan.assignments):
        shape = model.layers[assignment.layer].gemm
        rng = np.random.default_rng([int(weight_seed), index])
        values = rng.normal(size=(shape.m, shape.k))
        values *= _kernel_mask(model.kernel_for(assignment.layer), values, density, rng)
        weights[assignment.layer] = values
    return weights


def _kernel_mask(
    kernel: SpMMKernel, values: np.ndarray, density: float, rng: np.random.Generator
) -> np.ndarray:
    """The keep-mask of ``values`` in ``kernel``'s sparsity pattern."""
    pattern = kernel.pattern
    if pattern in (PatternKind.VECTORWISE, PatternKind.SHFLBW):
        return vector_wise_mask(np.abs(values), density, kernel.vector_size)
    if pattern is PatternKind.BLOCKWISE:
        return block_wise_mask(np.abs(values), density, kernel.block_size)
    if pattern is PatternKind.BALANCED:
        return balanced_mask(np.abs(values))
    return rng.random(size=values.shape) < density


def planned_runtime(
    plan: TuningPlan, weight_seed: int
) -> tuple[PlannedModel, dict[str, object]]:
    """The executable runtime of a plan: its model plus prepared weights.

    Each servable (linear) layer maps to the operand its assigned kernel's
    ``prepare`` built from :func:`derive_weights`; the dense weights
    themselves are not kept.  Convolution layers have no token dimension to
    serve and are not prepared.
    """
    model = PlannedModel(plan)
    prepared = {
        layer: model.kernel_for(layer).prepare(weight)
        for layer, weight in derive_weights(plan, weight_seed).items()
        if model.layers[layer].kind == "linear"
    }
    return model, prepared

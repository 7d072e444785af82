"""Deterministic pruned weights for a tuning plan, prepared once for serving.

The service binds a :class:`~repro.tune.planner.TuningPlan` to concrete
weight tensors.  Real deployments would load trained checkpoints; this repo
derives them from a seeded unstructured mask at the plan's density over
seeded normal values, so the whole serving state is a pure function of
``(plan, weight_seed)``.  Every kernel re-compresses the dense
masked tensor into its own format inside ``prepare`` (Shfl-BW falls back to
its deterministic degenerate row grouping when no witness permutation is
supplied), which keeps weight derivation kernel-agnostic.

:func:`planned_runtime` is that state in the form the paper's kernels
consume it: each servable layer's weight compressed once, at load, into its
assigned kernel's format.  Serving a batch then costs only the kernel run —
no batch re-derives, re-hashes or re-compresses a weight.
"""

from __future__ import annotations

import numpy as np

from ..tune.planned import PlannedModel
from ..tune.planner import TuningPlan

__all__ = ["derive_weights", "planned_runtime"]


def derive_weights(plan: TuningPlan, weight_seed: int) -> dict[str, np.ndarray]:
    """Seeded pruned weight tensors, one ``(M, K)`` array per planned layer.

    Layers are seeded independently (``weight_seed`` plus the assignment's
    position in the plan), so a weight tensor depends only on the plan and
    the seed — never on which subset of layers a worker happens to touch.
    """
    density = 1.0 - plan.sparsity
    model = PlannedModel(plan)
    weights: dict[str, np.ndarray] = {}
    for index, assignment in enumerate(plan.assignments):
        shape = model.layers[assignment.layer].gemm
        rng = np.random.default_rng([int(weight_seed), index])
        values = rng.normal(size=(shape.m, shape.k))
        mask = rng.random(size=(shape.m, shape.k)) < density
        weights[assignment.layer] = values * mask
    return weights


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

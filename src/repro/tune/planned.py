"""Executing a workload through a :class:`~repro.tune.planner.TuningPlan`.

:class:`PlannedModel` is the execution side of a plan: it resolves the
planned workload's layer shapes, instantiates each layer's assigned kernel
once, and routes both the functional path (``matmul`` via the vectorized
SpMM engines) and the timing path (modelled per-layer and whole-model times)
through the per-layer assignments.

:func:`compare_with_single_kernels` is the evaluation harness: it prices
every candidate as a whole-model single-kernel baseline through the sweep
runner (so the results land in the same persistent sweep cache as Figure 6)
and reports the plan's aggregate speedup against the best of them and
against the dense baseline.  Because the planner takes a per-layer argmin
over the same candidate pool and the same timing model, an analytical
(model-mode) plan is never slower than the best single kernel — the gap is
exactly the per-layer win the paper's Figure 1 regions promise.  Measured-
refined plans may deliberately deviate from the modelled argmin, so the
invariant is not enforced for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..eval.runner import SweepRunner, SweepSpec
from ..kernels.base import SpMMKernel
from ..kernels.registry import DENSE_BASELINE_LABEL, make_kernel
from ..models.shapes import LayerShape, model_layers
from .candidates import default_candidates
from .planner import Autotuner, TuningPlan, gemm_layer

__all__ = [
    "PlannedModel",
    "PlanComparison",
    "single_kernel_spec",
    "compare_with_single_kernels",
]


class PlannedModel:
    """A workload bound to its tuning plan.

    ``layers`` overrides the layer shapes (it must match the names the plan
    was tuned for); by default they are re-derived from the plan's workload
    identifier.  Kernels are instantiated lazily, once per layer.
    """

    def __init__(self, plan: TuningPlan, *, layers: Sequence[LayerShape] | None = None):
        self.plan = plan
        if layers is None:
            if plan.model is not None:
                layers = model_layers(plan.model)
            else:
                layers = [gemm_layer(plan.gemm)]
        self.layers: dict[str, LayerShape] = {layer.name: layer for layer in layers}
        missing = [a.layer for a in plan.assignments if a.layer not in self.layers]
        if missing:
            raise ValueError(
                f"plan assigns layers absent from the workload: {missing}"
            )
        self._kernels: dict[str, SpMMKernel] = {}

    def kernel_for(self, layer: str) -> SpMMKernel:
        """The (cached) kernel instance assigned to one layer."""
        kernel = self._kernels.get(layer)
        if kernel is None:
            assignment = self.plan.assignment_for(layer)
            kernel = make_kernel(assignment.kernel, **dict(assignment.kernel_kwargs))
            self._kernels[layer] = kernel
        return kernel

    def matmul(
        self, layer: str, weight: np.ndarray, activations: np.ndarray, **kwargs
    ) -> np.ndarray:
        """Run one layer functionally through its assigned kernel.

        ``kwargs`` forward to the kernel's ``prepare`` (e.g. ``row_indices``
        for Shfl-BW's witness permutation).
        """
        return self.kernel_for(layer).matmul(weight, activations, **kwargs)

    def run_prepared(
        self, layer: str, prepared: object, activations: np.ndarray
    ) -> np.ndarray:
        """Run one layer on an operand its kernel's ``prepare`` already built.

        Unlike :meth:`matmul` this never sees the dense weight, so callers
        that prepare once (the serving runtime) pay only for the kernel run.
        """
        return self.kernel_for(layer).run(prepared, activations)

    @property
    def total_time_s(self) -> float:
        """Modelled whole-workload time under the plan."""
        return self.plan.total_time_s

    def layer_times(self) -> list[tuple[str, str, float]]:
        """``(layer, kernel label, total modelled time)`` per plan entry."""
        return [
            (a.layer, a.label, a.total_time_s) for a in self.plan.assignments
        ]


@dataclass(frozen=True)
class PlanComparison:
    """A plan priced against the single-kernel baselines of its grid cell."""

    plan: TuningPlan
    dense_time_s: float
    best_single_label: str
    best_single_time_s: float
    single_kernel_times: tuple[tuple[str, float], ...]

    @property
    def planned_time_s(self) -> float:
        """Modelled whole-model time under the plan."""
        return self.plan.total_time_s

    @property
    def planned_speedup(self) -> float:
        """Aggregate speedup of the plan over the dense baseline."""
        return self.dense_time_s / self.planned_time_s

    @property
    def best_single_speedup(self) -> float:
        """Speedup of the best whole-model single kernel over dense."""
        return self.dense_time_s / self.best_single_time_s

    @property
    def advantage(self) -> float:
        """How much faster the plan is than the best single kernel (>= 1)."""
        return self.best_single_time_s / self.planned_time_s


def single_kernel_spec(
    model: str,
    gpu: str,
    sparsity: float,
    candidates=None,
) -> SweepSpec:
    """The single-kernel baseline grid of one (model, GPU, sparsity) cell.

    Every non-dense candidate priced as a whole-model kernel, plus the dense
    baseline cell — one :class:`SweepSpec`, so baseline pricing shares the
    sweep runner's executor and persistent cache with Figure 6.
    """
    candidates = tuple(candidates) if candidates is not None else default_candidates()
    kernels = tuple(
        spec for spec in candidates if spec.display_label != DENSE_BASELINE_LABEL
    )
    return SweepSpec(
        kernels=kernels,
        gpus=(gpu,),
        sparsities=(sparsity,),
        models=(model,),
    )


def compare_with_single_kernels(
    model: str,
    gpu: str,
    sparsity: float,
    *,
    tuner: Autotuner | None = None,
    runner: SweepRunner | None = None,
) -> PlanComparison:
    """Tune one cell and price it against every single-kernel baseline.

    The dense baseline always participates in the "best single kernel"
    minimum: where no sparse kernel beats dense (the Figure 1 low-sparsity
    region) the comparison degrades gracefully instead of crowning a losing
    sparse kernel.
    """
    tuner = tuner if tuner is not None else Autotuner()
    runner = runner if runner is not None else SweepRunner()
    plan = tuner.plan(model, gpu, sparsity)

    spec = single_kernel_spec(model, gpu, sparsity, tuner.candidates)
    lookup = runner.run(spec).by_config()
    dense_time = lookup[spec.dense_config(model, gpu)].time_s
    times: list[tuple[str, float]] = [(DENSE_BASELINE_LABEL, dense_time)]
    for kernel in spec.kernels:
        record = lookup[spec.config(kernel, model, gpu, sparsity)]
        if record.ok:
            times.append((kernel.display_label, record.time_s))
    best_label, best_time = min(times, key=lambda pair: pair[1])
    return PlanComparison(
        plan=plan,
        dense_time_s=dense_time,
        best_single_label=best_label,
        best_single_time_s=best_time,
        single_kernel_times=tuple(times),
    )

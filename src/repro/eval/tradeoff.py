"""Accuracy-speedup trade-off (Figure 2 of the paper).

Figure 2 plots, for GNMT on V100, the BLEU score against the kernel speedup
over the tensor-core dense baseline for several sparsity patterns and vector
sizes at 80 % and 90 % sparsity.  The reproduction runs two cell families
through one :class:`~repro.eval.runner.SweepRunner`:

* the kernel-speedup side, :func:`figure2_spec`: timing cells of each
  pattern's kernel on the *real* GNMT layer shapes plus the dense baseline,
  on the timing model of Figure 6, and
* the accuracy side, the proxy-GNMT protocol of :mod:`repro.eval.accuracy`.

The paper's qualitative claims to check: unstructured sparsity sits below
1x speedup (no tensor cores) despite the best accuracy; Shfl-BW reaches real
speedup at small accuracy cost and dominates vector-wise; larger V trades a
little accuracy for more speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .accuracy import (
    ACCURACY_TASK,
    AccuracyConfig,
    PatternSpec,
    accuracy_cells,
    collate_accuracy,
)
from .runner import KernelSpec, SweepRunner, SweepSpec

__all__ = ["TradeoffPoint", "figure2_pattern_specs", "figure2_spec", "figure2_sweep"]


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the Figure 2 scatter: a pattern at a sparsity level."""

    label: str
    sparsity: float
    accuracy: float
    speedup: float


def figure2_pattern_specs() -> list[PatternSpec]:
    """The pattern line-up of Figure 2 (GNMT on V100)."""
    return [
        PatternSpec("Unstructured", "unstructured"),
        PatternSpec("VW, V=32", "vectorwise", 32),
        PatternSpec("Shfl-BW, V=32", "shflbw", 32),
        PatternSpec("Shfl-BW, V=64", "shflbw", 64),
        PatternSpec("Shfl-BW, V=128", "shflbw", 128),
    ]


def _kernel_spec(spec: PatternSpec) -> KernelSpec:
    """The kernel a pattern runs on, labelled like its Figure 2 point."""
    v = spec.paper_vector_size
    if spec.pattern == "unstructured":
        return KernelSpec("sputnik", label=spec.label)
    if spec.pattern == "vectorwise":
        return KernelSpec("vector-wise", {"vector_size": v}, label=spec.label)
    if spec.pattern == "shflbw":
        return KernelSpec("shfl-bw", {"vector_size": v}, label=spec.label)
    if spec.pattern == "blockwise":
        return KernelSpec("cusparse-bsr", {"block_size": v}, label=spec.label)
    raise ValueError(f"no kernel mapping for pattern {spec.pattern!r}")


def figure2_spec(
    gpu: str = "V100",
    sparsities: tuple[float, ...] = (0.80, 0.90),
    specs: list[PatternSpec] | None = None,
) -> SweepSpec:
    """The timing side of Figure 2: every pattern's kernel on the real GNMT
    layer shapes at every sparsity, plus the dense baseline."""
    specs = specs if specs is not None else figure2_pattern_specs()
    return SweepSpec(
        kernels=tuple(_kernel_spec(spec) for spec in specs),
        gpus=(gpu,),
        sparsities=tuple(sparsities),
        models=("gnmt",),
    )


def figure2_sweep(
    gpu: str = "V100",
    sparsities: tuple[float, ...] = (0.80, 0.90),
    config: AccuracyConfig | None = None,
    specs: list[PatternSpec] | None = None,
    *,
    runner: SweepRunner | None = None,
) -> list[TradeoffPoint]:
    """Compute the accuracy-speedup points of Figure 2.

    The :func:`figure2_spec` timing cells and the proxy-GNMT accuracy cells
    run through the same ``runner`` (process-pool parallelism and one
    persistent cache per cell family).  A (pattern, sparsity) point is left
    out when either side is not applicable.
    """
    config = config or AccuracyConfig()
    specs = specs if specs is not None else figure2_pattern_specs()
    sparsities = tuple(sparsities)
    runner = runner or SweepRunner()

    grid = figure2_spec(gpu, sparsities, specs)
    lookup = runner.run(grid).by_config()
    cells = accuracy_cells(("gnmt",), sparsities, specs, config)
    accuracy = collate_accuracy(runner.run_cells(cells, ACCURACY_TASK).records)["gnmt"]

    dense_time = lookup[grid.dense_config("gnmt", gpu)].time_s
    points: list[TradeoffPoint] = []
    for spec, kernel in zip(specs, grid.kernels, strict=True):
        for sparsity in sparsities:
            metric = accuracy.metric(spec.label, sparsity)
            record = lookup[grid.config(kernel, "gnmt", gpu, sparsity)]
            if metric is None or not record.ok:
                continue
            points.append(
                TradeoffPoint(
                    label=spec.label,
                    sparsity=sparsity,
                    accuracy=metric,
                    speedup=dense_time / record.time_s,
                )
            )
    return points

"""Experiment registry: one entry per table / figure of the paper.

Each experiment returns a :class:`repro.eval.report.Report`; the command-line
entry point (``python -m repro.eval <experiment>``) prints it, and the test
suite asserts the paper's claims on the underlying sweeps.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.analysis import compare_patterns, log_row_shuffle_multiplier
from ..gpu.arch import get_gpu
from .pattern_search import (
    PAPER_VECTOR_SIZES,
    PATTERN_SEARCH_TASK,
    collate_pattern_search,
    pattern_search_cells,
)
from .report import Report, Table
from .runner import SweepRunner
from .speedup import (
    FIGURE1_DENSITIES,
    PAPER_GPUS,
    collate_figure1,
    collate_figure6,
    collate_headline,
    figure1_spec,
    figure6_spec,
    headline_spec,
)

__all__ = [
    "available_experiments",
    "resolve_experiment",
    "run_experiment",
    "RUNNER_EXPERIMENTS",
    "ACCURACY_EXPERIMENTS",
    "TUNABLE_EXPERIMENTS",
]

#: Experiments that run on the sweep runner and accept the ``runner``,
#: ``--jobs`` and ``--cache-dir`` machinery.
RUNNER_EXPERIMENTS = frozenset(
    {
        "figure1",
        "figure6",
        "headline",
        "autotune",
        "table1",
        "figure2",
        "pattern-search",
    }
)

#: Accuracy-protocol experiments that additionally understand ``--full`` /
#: ``--tiny`` training scales.
ACCURACY_EXPERIMENTS = frozenset({"table1", "figure2"})

#: Experiments that understand the autotuner (``--tune``).
TUNABLE_EXPERIMENTS = frozenset({"figure6", "headline", "autotune"})

#: Paper-claimed sparsity thresholds of the Figure 1 regions.
FIGURE1_PAPER_REGIONS = {"A": 0.65, "B": 0.95, "C": 0.90}


def figure1_regions(
    curves: dict[str, dict[float, float]]
) -> dict[str, dict[str, object]]:
    """Structured Figure 1 region boundaries from the swept curves.

    Each region reports the lowest swept sparsity at which its comparison
    flips (or ``None`` when the sweep never reaches it) next to the paper's
    claimed threshold.
    """
    densities = sorted(next(iter(curves.values())).keys())
    sparse_cc = curves["Cuda-Core Sparse"]
    sparse_tc = curves["Tensor-Core Sparse (Ours)"]
    dense_tc = curves["Tensor-Core"]
    comparisons = {
        "A": (
            "CUDA-core sparse beats CUDA-core dense",
            [1 - d for d in densities if sparse_cc[d] >= 1.0],
        ),
        "B": (
            "CUDA-core sparse beats tensor-core dense",
            [1 - d for d in densities if sparse_cc[d] >= dense_tc[d]],
        ),
        "C": (
            "tensor-core sparse (ours) beats tensor-core dense",
            [1 - d for d in densities if sparse_tc[d] >= dense_tc[d]],
        ),
    }
    return {
        name: {
            "description": description,
            "threshold_sparsity": min(reached) if reached else None,
            "paper_threshold_sparsity": FIGURE1_PAPER_REGIONS[name],
        }
        for name, (description, reached) in comparisons.items()
    }


def run_figure1(
    *, runner: SweepRunner | None = None, densities=FIGURE1_DENSITIES, **kwargs
) -> Report:
    """Figure 1: SpMM throughput vs density, normalised to CUDA-core dense."""
    spec = figure1_spec(densities=tuple(densities), **kwargs)
    result = (runner or SweepRunner()).run(spec)
    curves = collate_figure1(result, tuple(densities))
    densities = sorted(next(iter(curves.values())).keys())
    report = Report("Figure 1 - SpMM throughput vs density (GEMM 2048/128/2048, V100)")
    table = Table(
        "Throughput normalised to CUDA-core dense GEMM",
        ["density"] + list(curves.keys()),
    )
    for density in densities:
        table.add_row(density, *[curves[name][density] for name in curves])
    report.add_table(table)

    regions = figure1_regions(curves)
    for name, region in regions.items():
        threshold = region["threshold_sparsity"]
        report.add_note(
            f"Region {name} ({region['description']}) starts at "
            f"~{threshold:.0%} sparsity"
            if threshold is not None
            else f"Region {name} not reached in sweep"
        )
    report.add_note("Paper: region A ~65%, region B ~95%, region C well below 90%.")
    report.add_metadata("regions", regions)
    report.add_metadata(
        "paper_comparison",
        "Paper thresholds: region A ~65%, region B ~95%, region C well below 90%.",
    )
    report.add_records(result.record_dicts())
    return report


def run_figure2(
    *,
    quick: bool = True,
    tiny: bool = False,
    runner: SweepRunner | None = None,
    **kwargs,
) -> Report:
    """Figure 2: accuracy-speedup trade-off for GNMT on V100.

    The timing and accuracy cells run through ``runner`` (``--jobs``
    parallelism and a persistent ``--cache-dir`` record cache).
    """
    # Imported here so the timing experiments never load the accuracy stack
    # (proxy models, repro.nn, repro.pruning).
    from .accuracy import AccuracyConfig
    from .tradeoff import figure2_sweep

    points = figure2_sweep(
        config=AccuracyConfig(quick=quick, tiny=tiny), runner=runner, **kwargs
    )
    report = Report("Figure 2 - GNMT accuracy vs speedup trade-off (V100)")
    table = Table(
        "Accuracy (proxy BLEU) and kernel speedup over tensor-core dense",
        ["pattern", "sparsity", "BLEU (proxy)", "speedup"],
    )
    for point in sorted(points, key=lambda p: (p.sparsity, p.label)):
        table.add_row(point.label, point.sparsity, point.accuracy, point.speedup)
    report.add_table(table)
    report.add_note(
        "Paper claims to check: unstructured stays below 1x speedup; Shfl-BW "
        "achieves real speedup with small BLEU loss and dominates vector-wise; "
        "larger V gains speedup at a small accuracy cost."
    )
    return report


def run_figure6(*, runner: SweepRunner | None = None, tuner=None, **kwargs) -> Report:
    """Figure 6: speedup over dense for 3 models x 3 GPUs x 4 sparsities.

    ``tuner`` (a :class:`repro.tune.Autotuner`) appends an "Autotuned plan"
    row to every (model, GPU) table: the whole-model speedup when each layer
    runs its tuned per-layer kernel instead of one kernel everywhere.
    """
    spec = figure6_spec(**kwargs)
    result = (runner or SweepRunner()).run(spec)
    results = collate_figure6(result)
    lookup = result.by_config()
    report = Report("Figure 6 - Speedup over the dense tensor-core baseline")
    sparsities = spec.sparsities
    for (model, gpu), per_kernel in results.items():
        table = Table(
            f"{model} on {gpu}",
            ["kernel"] + [f"{s:.0%}" for s in sparsities],
        )
        for label, by_sparsity in per_kernel.items():
            table.add_row(label, *[by_sparsity.get(s) for s in sparsities])
        if tuner is not None:
            dense_time = lookup[spec.dense_config(model, gpu)].time_s
            table.add_row(
                "Autotuned plan",
                *[
                    dense_time / tuner.plan(model, gpu, s).total_time_s
                    for s in sparsities
                ],
            )
        report.add_table(table)
    report.add_note("Missing entries (-) are configurations the kernel cannot run, as in the paper.")
    if tuner is not None:
        report.add_note(
            "The 'Autotuned plan' row runs each layer on its tuned per-layer "
            "kernel (repro.tune); it is never below the best single-kernel row."
        )
    report.add_metadata(
        "grid",
        {
            "models": list(spec.models),
            "gpus": list(spec.gpus),
            "sparsities": list(spec.sparsities),
            "kernels": [k.display_label for k in spec.kernels],
        },
    )
    report.add_records(result.record_dicts())
    return report


def run_headline(*, runner: SweepRunner | None = None, tuner=None, **kwargs) -> Report:
    """Section 6.2 headline speedups for Transformer at 75 % sparsity.

    ``tuner`` adds an "autotuned" column: the aggregate speedup of the tuned
    per-layer plan on the same cells.
    """
    spec = headline_spec(**kwargs)
    result = (runner or SweepRunner()).run(spec)
    speedups = collate_headline(result)
    lookup = result.by_config()
    (model,) = spec.models
    (sparsity,) = spec.sparsities
    report = Report("Section 6.2 headline - Transformer GEMM layers at 75% sparsity (Shfl-BW V=64)")
    columns = ["GPU", "measured", "paper"] + (["autotuned"] if tuner is not None else [])
    table = Table("Speedup over dense", columns)
    paper = {"V100": 1.81, "T4": 4.18, "A100": 1.90}
    for gpu in PAPER_GPUS:
        row = [gpu, speedups[gpu], paper.get(gpu)]
        if tuner is not None:
            dense_time = lookup[spec.dense_config(model, gpu)].time_s
            row.append(dense_time / tuner.plan(model, gpu, sparsity).total_time_s)
        table.add_row(*row)
    report.add_table(table)
    report.add_records(result.record_dicts())
    return report


def run_autotune(
    *,
    runner: SweepRunner | None = None,
    tuner=None,
    models: tuple[str, ...] = ("transformer", "gnmt", "resnet50"),
    gpus: tuple[str, ...] = PAPER_GPUS,
    sparsity: float = 0.75,
) -> Report:
    """Autotuned execution plans: per-layer kernel assignments and the
    aggregate speedup versus the best single-kernel baseline.

    ``tuner`` defaults to an :class:`~repro.tune.Autotuner` on ``runner``;
    plans and baselines run on the tuner's runner.
    """
    # Imported lazily: repro.tune builds on repro.eval.runner, so a module-
    # level import here would be circular through the package __init__.
    from ..tune import Autotuner, compare_with_single_kernels

    if tuner is None:
        tuner = Autotuner(runner=runner or SweepRunner())
    report = Report(
        f"Autotuned kernel selection - per-layer plans at {sparsity:.0%} sparsity "
        "(model mode)"
    )
    summary = Table(
        "Whole-model speedup over dense: tuned plan vs best single kernel",
        ["model", "GPU", "planned", "best single kernel", "best single", "advantage"],
    )
    records: list[dict] = []
    comparisons = {}
    for model in models:
        for gpu in gpus:
            comparison = compare_with_single_kernels(model, gpu, sparsity, tuner=tuner)
            comparisons[(model, gpu)] = comparison
            summary.add_row(
                model,
                gpu,
                comparison.planned_speedup,
                comparison.best_single_label,
                comparison.best_single_speedup,
                comparison.advantage,
            )
            records.append(
                {
                    "model": model,
                    "gpu": gpu,
                    "sparsity": sparsity,
                    "label": "Autotuned plan",
                    "status": "ok",
                    "time_s": comparison.planned_time_s,
                }
            )
            records.extend(
                {
                    "model": model,
                    "gpu": gpu,
                    "sparsity": sparsity,
                    "label": label,
                    "status": "ok",
                    "time_s": time_s,
                }
                for label, time_s in comparison.single_kernel_times
            )
    report.add_table(summary)
    for (model, gpu), comparison in comparisons.items():
        plan = comparison.plan
        table = Table(
            f"{model} on {gpu}: per-layer assignments",
            ["layer", "kernel", "count", "time share"],
        )
        total = plan.total_time_s
        for assignment in plan.assignments:
            table.add_row(
                assignment.layer,
                assignment.label,
                assignment.count,
                assignment.total_time_s / total,
            )
        report.add_table(table)
    report.add_note(
        "'advantage' is best-single-kernel time / planned time; "
        "the per-layer argmin construction guarantees it is >= 1."
    )
    report.add_metadata(
        "plans",
        {
            f"{model}|{gpu}": comparison.plan.to_dict()
            for (model, gpu), comparison in comparisons.items()
        },
    )
    report.add_records(records)
    return report


def run_table1(
    *,
    quick: bool = True,
    tiny: bool = False,
    runner: SweepRunner | None = None,
    models: tuple[str, ...] = ("transformer", "gnmt", "resnet50"),
    sparsities: tuple[float, ...] = (0.80, 0.90),
    specs=None,
) -> Report:
    """Table 1: accuracy of pruned models per pattern and sparsity.

    The (model, pattern, sparsity) cells run through ``runner``: ``--jobs``
    fans them over a process pool, ``--cache-dir`` persists finished
    records so a re-run only computes the delta.
    """
    # Imported here for the same reason as in run_figure2.
    from .accuracy import (
        ACCURACY_TASK,
        AccuracyConfig,
        accuracy_cells,
        collate_accuracy,
        table1_pattern_specs,
    )

    if specs is None:
        # Table 1's rows; the unstructured reference is Figure 2's.
        specs = [s for s in table1_pattern_specs() if s.label != "Unstructured"]
    cells = accuracy_cells(
        tuple(models), tuple(sparsities), specs, AccuracyConfig(quick=quick, tiny=tiny)
    )
    records = (runner or SweepRunner()).run_cells(cells, ACCURACY_TASK).records
    results = collate_accuracy(records)

    report = Report("Table 1 - Accuracy of pruned proxy models")
    for model in models:
        result = results.get(model)
        if result is None:
            continue
        labels = sorted({label for (label, _) in result.results})
        table_sparsities = sorted({s for (_, s) in result.results})
        table = Table(
            f"{model} ({result.metric_name}), dense = {result.dense_metric:.2f}",
            ["pattern"] + [f"{s:.0%}" for s in table_sparsities],
        )
        for label in labels:
            table.add_row(label, *[result.metric(label, s) for s in table_sparsities])
        report.add_table(table)
    report.add_note(
        "Proxy models on synthetic tasks: compare the ordering between "
        "patterns at equal sparsity, not absolute values."
    )
    report.add_records([record.to_dict() for record in records])
    return report


def run_pattern_search(
    *,
    runner: SweepRunner | None = None,
    quick: bool = True,
    models: tuple[str, ...] = ("transformer", "gnmt", "resnet50"),
    vector_sizes: tuple[int, ...] = PAPER_VECTOR_SIZES,
    sparsities: tuple[float, ...] = (0.80, 0.90),
    kmeans_iters: int | None = None,
    seed: int = 0,
) -> Report:
    """Shfl-BW pattern search on the real model layer shapes.

    Reports, per model and vector size, the fraction of total weight
    importance the searched pattern retains at each sparsity — the accuracy
    side of the pattern's V/speedup trade-off, evaluated at the paper's
    actual layer scale (only feasible on the vectorized search engine).
    ``quick`` caps the Lloyd iterations at 2 (the retained fraction
    converges within a few); ``--full`` runs 8.
    """
    if kmeans_iters is None:
        kmeans_iters = 2 if quick else 8
    cells = pattern_search_cells(
        tuple(models),
        tuple(vector_sizes),
        tuple(sparsities),
        kmeans_iters=kmeans_iters,
        seed=seed,
    )
    records = (runner or SweepRunner()).run_cells(cells, PATTERN_SEARCH_TASK).records
    curves = collate_pattern_search(records)

    report = Report(
        "Pattern search - retained importance on real layer shapes (Section 5)"
    )
    sparsity_grid = sorted(set(tuple(sparsities)))
    for model in models:
        table = Table(
            f"{model}: fraction of importance retained by Shfl-BW",
            ["V"] + [f"{s:.0%} sparsity" for s in sparsity_grid],
        )
        for vector_size in vector_sizes:
            by_sparsity = curves.get((model, vector_size), {})
            table.add_row(vector_size, *[by_sparsity.get(s) for s in sparsity_grid])
        report.add_table(table)
    report.add_note(
        "Scores are deterministic synthetic magnitudes on the real GEMM "
        "shapes; smaller V retains more importance, trading away kernel "
        "speedup (Figure 2). Missing entries (-) are layers V cannot divide."
    )
    skipped = sorted(
        {
            f"{r.config.model}/{r.config.layer} @ V={r.config.vector_size}"
            for r in records
            if not r.ok
        }
    )
    if skipped:
        report.add_note(
            "Layers left dense (row count not divisible by V): "
            + ", ".join(skipped)
        )
    report.add_metadata(
        "grid",
        {
            "models": list(models),
            "vector_sizes": list(vector_sizes),
            "sparsities": list(sparsity_grid),
            "kmeans_iters": kmeans_iters,
        },
    )
    report.add_records([record.to_dict() for record in records])
    return report


def run_analysis(*, m: int = 2048, k: int = 2048, density: float = 0.10, vector_size: int = 64) -> Report:
    """Section 3.2: flexibility and data-reuse analysis per pattern."""
    report = Report("Section 3.2 - Flexibility and computation efficiency")
    table = Table(
        f"Patterns at density {density:.0%}, V={vector_size}, matrix {m}x{k}",
        ["pattern", "ln(candidates)", "max reuse (flop/byte)", "reuse vs dense"],
    )
    for analysis in compare_patterns(get_gpu("V100"), m, k, density, vector_size):
        table.add_row(
            analysis.pattern,
            analysis.log_candidates,
            analysis.max_reuse_flop_per_byte,
            analysis.reuse_vs_dense,
        )
    report.add_table(table)
    report.add_note(
        "Row-shuffle multiplier ln(M!/(V!)^(M/V)) for M=512, V=128: "
        f"{log_row_shuffle_multiplier(512, 128):.1f} (paper: > 700)."
    )
    return report


_EXPERIMENTS: dict[str, Callable[..., Report]] = {
    "figure1": run_figure1,
    "figure2": run_figure2,
    "figure6": run_figure6,
    "table1": run_table1,
    "headline": run_headline,
    "analysis": run_analysis,
    "autotune": run_autotune,
    "pattern-search": run_pattern_search,
}


def available_experiments() -> list[str]:
    """Names accepted by :func:`run_experiment`."""
    return sorted(_EXPERIMENTS)


def resolve_experiment(name: str) -> str:
    """Normalise an experiment name, raising ``KeyError`` for unknown ones.

    The single place the normalisation and the unknown-name message live:
    both :func:`run_experiment` and the CLI resolve through here.
    """
    key = name.strip().lower()
    if key not in _EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(available_experiments())}"
        )
    return key


def run_experiment(name: str, **kwargs) -> Report:
    """Run one experiment by its paper table/figure id."""
    return _EXPERIMENTS[resolve_experiment(name)](**kwargs)

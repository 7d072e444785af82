"""Experiment harness regenerating every table and figure of the paper.

The accuracy-protocol exports (:mod:`repro.eval.accuracy` and
:mod:`repro.eval.tradeoff`) build on the proxy models and :mod:`repro.nn`,
so they load on first attribute access (PEP 562).  The timing experiments
never train, and ``python -m repro.eval figure6`` does not pay for that
stack.
"""

from importlib import import_module

from .experiments import RUNNER_EXPERIMENTS, available_experiments, run_experiment
from .pattern_search import (
    PATTERN_SEARCH_TASK,
    PatternSearchCell,
    PatternSearchRecord,
    collate_pattern_search,
    execute_pattern_search_cell,
    pattern_search_cells,
)
from .report import Report, Table
from .runner import (
    MODEL_VERSION,
    TIMING_TASK,
    CacheStats,
    CellTask,
    KernelSpec,
    ResultCache,
    RunConfig,
    RunRecord,
    SweepResult,
    SweepRunner,
    SweepSpec,
    canonical_config_hash,
    strided_process_map,
)
from .store import BlobStore, CorruptCacheWarning
from .speedup import (
    FIGURE1_DENSITIES,
    PAPER_GPUS,
    PAPER_SPARSITIES,
    figure6_spec,
    headline_spec,
)

__all__ = [
    "ACCURACY_TASK",
    "AccuracyCell",
    "AccuracyConfig",
    "AccuracyRecord",
    "AccuracyResult",
    "PatternSpec",
    "accuracy_cells",
    "collate_accuracy",
    "execute_accuracy_cell",
    "table1_pattern_specs",
    "available_experiments",
    "run_experiment",
    "RUNNER_EXPERIMENTS",
    "PATTERN_SEARCH_TASK",
    "PatternSearchCell",
    "PatternSearchRecord",
    "collate_pattern_search",
    "execute_pattern_search_cell",
    "pattern_search_cells",
    "Report",
    "Table",
    "MODEL_VERSION",
    "TIMING_TASK",
    "CacheStats",
    "CellTask",
    "KernelSpec",
    "ResultCache",
    "RunConfig",
    "RunRecord",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "canonical_config_hash",
    "strided_process_map",
    "BlobStore",
    "CorruptCacheWarning",
    "FIGURE1_DENSITIES",
    "PAPER_GPUS",
    "PAPER_SPARSITIES",
    "figure6_spec",
    "headline_spec",
    "TradeoffPoint",
    "figure2_pattern_specs",
    "figure2_spec",
    "figure2_sweep",
]

_LAZY = {
    "ACCURACY_TASK": ".accuracy",
    "AccuracyCell": ".accuracy",
    "AccuracyConfig": ".accuracy",
    "AccuracyRecord": ".accuracy",
    "AccuracyResult": ".accuracy",
    "PatternSpec": ".accuracy",
    "accuracy_cells": ".accuracy",
    "collate_accuracy": ".accuracy",
    "execute_accuracy_cell": ".accuracy",
    "table1_pattern_specs": ".accuracy",
    "TradeoffPoint": ".tradeoff",
    "figure2_pattern_specs": ".tradeoff",
    "figure2_spec": ".tradeoff",
    "figure2_sweep": ".tradeoff",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())

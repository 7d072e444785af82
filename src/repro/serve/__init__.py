"""Micro-batching inference serving over tuning plans.

The serving layer of the reproduction: load a
:class:`~repro.tune.planner.TuningPlan` and prepare its derived pruned
weights once (:func:`planned_runtime`), then answer ``predict`` requests
through each layer's assigned kernel with timing-model-planned dynamic
micro-batching, worker processes sharing the prepared operands, and
bounded-queue backpressure.  See ``docs/architecture.md`` for the data flow
and the README's Serving section for the CLI quickstart.
"""

from .batcher import (
    DEFAULT_WIDTHS,
    BatchWindow,
    MicroBatcher,
    QueueFullError,
    replay_batches,
    serving_windows,
)
from .cells import (
    SERVE_TASK,
    PredictRequest,
    PredictResponse,
    ServeBatch,
    ServeBatchRecord,
    execute_serve_batches,
)
from .faults import (
    FAULT_KINDS,
    BatchError,
    FaultInjectionError,
    FaultPlan,
    FaultSpec,
)
from .pool import BatchResult, PoolStompedWarning, WorkerPool
from .service import (
    DEFAULT_WEIGHT_SEED,
    InferenceService,
    PendingPrediction,
    ServiceOverloadedError,
    ServiceStats,
)
from .weights import derive_weights, planned_runtime

__all__ = [
    "DEFAULT_WEIGHT_SEED",
    "DEFAULT_WIDTHS",
    "FAULT_KINDS",
    "BatchError",
    "BatchResult",
    "BatchWindow",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSpec",
    "InferenceService",
    "MicroBatcher",
    "PendingPrediction",
    "PoolStompedWarning",
    "PredictRequest",
    "PredictResponse",
    "QueueFullError",
    "SERVE_TASK",
    "ServeBatch",
    "ServeBatchRecord",
    "ServiceOverloadedError",
    "ServiceStats",
    "WorkerPool",
    "derive_weights",
    "execute_serve_batches",
    "planned_runtime",
    "replay_batches",
    "serving_windows",
]

"""The serving cell family: requests, micro-batches and their pure executor.

Serving rides on the same cell discipline as every sweep in this repo: a
:class:`ServeBatch` is a hashable, canonically-serialisable config — the
tuning plan, the weight seed, the target layer and the coalesced requests —
and :func:`execute_serve_batches` is a *pure* function of it (the
:class:`~repro.eval.runner.CellTask` entry point, so the ``SC001`` purity
gate covers the whole serving hot path).  Purity is what makes the service's
headline guarantee cheap: serial and multi-worker runs over the same batch
stream produce byte-identical outputs, because the executor only ever
decides *where* a batch is computed, never what it computes.

One caveat is load-bearing enough to state here: outputs are a pure function
of the batch *composition*, not of each request alone.  Coalescing a
request's columns next to different neighbours changes the BLAS blocking and
therefore the float rounding (measurably, at the last ulp), so byte-identity
holds whenever batch composition is deterministic — the replay path and any
fixed batch stream — while live deadline-based batching trades that for
bounded latency.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..eval.runner import MODEL_VERSION, CellTask, canonical_config_hash
from ..tune.planned import PlannedModel
from ..tune.planner import TuningPlan
from .weights import planned_runtime

__all__ = [
    "PredictRequest",
    "PredictResponse",
    "ServeBatch",
    "ServeBatchRecord",
    "SERVE_TASK",
    "execute_serve_batches",
]


@dataclass(frozen=True, eq=False)
class PredictRequest:
    """One inference request: activation columns for one layer of the plan.

    ``activations`` is the dense operand slice the request contributes —
    ``K`` rows by ``n`` columns, held as a private read-only float64 copy so
    the request is immutable and ships to workers as one array.
    :meth:`to_dict` lists its exact float values, so the batch hash digests
    them.  ``request_id`` is a correlation handle for the caller and
    ``deadline_s`` an optional shed-after bound (seconds from submission;
    expired requests are shed before dispatch with an error response); both
    are cosmetic — excluded from equality and from the cache key, like
    every display-only field in the repo's cell families (a deadline decides
    *whether* a request is served, never what its output is).
    """

    layer: str
    activations: np.ndarray
    request_id: str | None = field(default=None, compare=False)
    deadline_s: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        array = np.array(self.activations, dtype=np.float64)
        if array.ndim != 2 or array.size == 0:
            raise ValueError("activations must be a non-empty K x n matrix")
        if self.deadline_s is not None and self.deadline_s < 0.0:
            raise ValueError("a request deadline must be non-negative")
        array.flags.writeable = False
        object.__setattr__(self, "activations", array)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable; keep the request immutable.
        self.__dict__.update(state)
        self.activations.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictRequest):
            return NotImplemented
        return self.layer == other.layer and np.array_equal(
            self.activations, other.activations
        )

    def __hash__(self) -> int:
        # Consistent with ``__eq__`` without digesting the payload.
        return hash((self.layer, self.activations.shape))

    @classmethod
    def from_array(
        cls,
        layer: str,
        activations: np.ndarray,
        *,
        request_id: str | None = None,
        deadline_s: float | None = None,
    ) -> "PredictRequest":
        """Build a request from a ``(K,)`` or ``(K, n)`` numpy operand.

        The operand is copied: later writes to ``activations`` do not
        reach the request.
        """
        array = np.asarray(activations, dtype=np.float64)
        if array.ndim == 1:
            array = array[:, np.newaxis]
        if array.ndim != 2:
            raise ValueError("activations must be 1-D or 2-D")
        return cls(
            layer=layer,
            activations=array,
            request_id=request_id,
            deadline_s=deadline_s,
        )

    @property
    def width(self) -> int:
        """Number of activation columns the request contributes."""
        return self.activations.shape[1]

    @property
    def rows(self) -> int:
        """Number of activation rows (the layer's reduction dimension K)."""
        return self.activations.shape[0]

    def to_array(self) -> np.ndarray:
        """The request operand as a read-only ``(K, n)`` float64 array."""
        return self.activations

    def to_dict(self) -> dict:
        """Canonical JSON-compatible form (used for hashing and export)."""
        return {"layer": self.layer, "activations": self.activations.tolist()}


@dataclass(frozen=True)
class PredictResponse:
    """The served result of one :class:`PredictRequest` — or its failure.

    ``output`` is the layer's ``(M, n)`` output slice for the request's
    columns; ``width`` is the total column width of the micro-batch the
    request was coalesced into; ``latency_s`` is the submit-to-completion
    wall time (``None`` on the offline replay path, which is pure and
    therefore unclocked).  A failed request (executor error, quarantined
    poison batch, expired deadline, shutdown shed) carries ``error`` text
    and ``output=None`` — the caller always gets exactly one response per
    accepted request, success or not.
    """

    request_id: str | None
    layer: str
    output: np.ndarray | None
    width: int
    latency_s: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True for a served result, False for a structured error reply."""
        return self.error is None

    def to_dict(self) -> dict:
        """Flat JSON-friendly form (one object per response)."""
        return {
            "id": self.request_id,
            "layer": self.layer,
            "status": "ok" if self.error is None else "error",
            "error": self.error,
            "output": None if self.output is None else self.output.tolist(),
            "width": self.width,
            "latency_ms": None if self.latency_s is None else self.latency_s * 1e3,
        }


@dataclass(frozen=True)
class ServeBatch:
    """One micro-batch: coalesced requests bound to a plan and weight seed.

    The batch is the serving cell — everything the output depends on is a
    field and flows through :meth:`to_dict` into the cache key: the tuning
    plan (which kernel serves the layer), the seed the pruned weights derive
    from, the layer, and the exact request payloads in coalescing order.
    ``batch_id`` is dispatch bookkeeping and cosmetic.
    """

    plan: TuningPlan
    weight_seed: int
    layer: str
    requests: tuple[PredictRequest, ...]
    batch_id: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        if not self.requests:
            raise ValueError("a micro-batch needs at least one request")
        if any(request.layer != self.layer for request in self.requests):
            raise ValueError("all requests of a micro-batch must target its layer")

    @property
    def width(self) -> int:
        """Total coalesced column width of the batch."""
        return sum(request.width for request in self.requests)

    def to_dict(self) -> dict:
        """Canonical JSON-compatible form (used for hashing and export)."""
        return {
            "plan": self.plan.to_dict(),
            "weight_seed": self.weight_seed,
            "layer": self.layer,
            "requests": [request.to_dict() for request in self.requests],
        }

    def config_hash(self, *, salt: str = MODEL_VERSION) -> str:
        """Stable hex digest (shared keying scheme of every cell family)."""
        return canonical_config_hash(self.to_dict(), salt=salt)


@dataclass(frozen=True)
class ServeBatchRecord:
    """Result of executing one :class:`ServeBatch`.

    ``outputs`` holds one ``(M, n_i)`` float64 array per request, in the
    batch's coalescing order, sliced out of the single coalesced kernel
    execution.
    """

    config: ServeBatch
    outputs: tuple[np.ndarray, ...]

    @property
    def width(self) -> int:
        """Total coalesced column width the batch was served at."""
        return self.config.width


def _encode_serve_record(record: object) -> dict:
    """Cache codec: a :class:`ServeBatchRecord` as a debuggable JSON entry."""
    assert isinstance(record, ServeBatchRecord)
    return {
        "config": record.config.to_dict(),
        "outputs": [output.tolist() for output in record.outputs],
    }


def _decode_serve_record(config: object, entry: Mapping) -> ServeBatchRecord | None:
    """Cache codec: rebuild a record from a JSON entry (malformed -> miss)."""
    assert isinstance(config, ServeBatch)
    outputs = entry.get("outputs")
    if not isinstance(outputs, list) or len(outputs) != len(config.requests):
        return None
    return ServeBatchRecord(
        config=config,
        outputs=tuple(np.asarray(output, dtype=np.float64) for output in outputs),
    )


#: Per-process runtime memo: the :func:`~repro.serve.weights.planned_runtime`
#: of recently served ``(plan, weight_seed)`` pairs.  A runtime is built once
#: per process — the service builds it at start, before forking its workers,
#: so they inherit the prepared kernel formats copy-on-write — and every
#: later batch of the plan runs straight on the prepared operands.
_RUNTIME_MEMO: OrderedDict[str, tuple[PlannedModel, dict]] = OrderedDict()

#: How many plan runtimes one process keeps prepared at a time.
_RUNTIME_MEMO_SIZE = 4


def _runtime_for(plan: TuningPlan, weight_seed: int) -> tuple[PlannedModel, dict]:
    """The memoised ``(PlannedModel, prepared weights)`` runtime of one plan."""
    key = canonical_config_hash({"plan": plan.to_dict(), "weight_seed": weight_seed})
    runtime = _RUNTIME_MEMO.get(key)
    if runtime is not None:
        _RUNTIME_MEMO.move_to_end(key)
        return runtime
    runtime = planned_runtime(plan, weight_seed)
    _RUNTIME_MEMO[key] = runtime
    while len(_RUNTIME_MEMO) > _RUNTIME_MEMO_SIZE:
        _RUNTIME_MEMO.popitem(last=False)
    return runtime


def _execute_serve_batch(batch: ServeBatch) -> ServeBatchRecord:
    """Serve one micro-batch: coalesce, run the assigned kernel once, slice.

    Pure function of the batch (seeded weight derivation, no clock, no
    environment), so records are identical wherever the batch executes.
    """
    model, prepared = _runtime_for(batch.plan, batch.weight_seed)
    coalesced = np.concatenate(
        [request.to_array() for request in batch.requests], axis=1
    )
    output = model.run_prepared(batch.layer, prepared[batch.layer], coalesced)
    outputs: list[np.ndarray] = []
    start = 0
    for request in batch.requests:
        stop = start + request.width
        outputs.append(np.ascontiguousarray(output[:, start:stop]))
        start = stop
    return ServeBatchRecord(config=batch, outputs=tuple(outputs))


def execute_serve_batches(batches: list[ServeBatch]) -> list[ServeBatchRecord]:
    """Serial batch executor (the :class:`CellTask` entry point)."""
    return [_execute_serve_batch(batch) for batch in batches]


#: The serving cell family, pluggable into ``SweepRunner.run_cells``:
#: contiguous chunking keeps each worker's batches on as few plans as
#: possible, so the per-process runtime memo is hit instead of rebuilt per
#: stride.
SERVE_TASK = CellTask(
    name="serve",
    execute=execute_serve_batches,
    cache_filename="serve-cache.json",
    encode=_encode_serve_record,
    decode=_decode_serve_record,
    chunking="contiguous",
)

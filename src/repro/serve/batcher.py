"""Dynamic micro-batching: coalescing windows planned by the timing model.

The batched timing model can *predict* how a layer's execution time scales
with the activation batch ``N`` — one :meth:`~repro.kernels.base.SpMMKernel.
estimate_grid` call prices every candidate width at once.  Serving turns
that prediction into a coalescing policy per layer: pick the width ``w*``
that maximises modelled throughput (``w / t(w)``), and bound how long any
request may wait for companions by a deadline derived from ``t(w*)`` (a
request never waits longer than one full batch is predicted to take, so
worst-case latency stays within ~2x the batch service time).

:class:`MicroBatcher` implements the queueing side with an *explicit clock*:
every mutation takes ``now`` as an argument, so the deadline semantics are
deterministic and unit-testable with a fake clock, and the class itself
stays off the wall clock entirely (the service supplies ``time.monotonic``).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..gpu.arch import get_gpu
from ..kernels.registry import make_kernel
from ..tune.candidates import candidate_density
from ..tune.planned import PlannedModel
from ..tune.planner import TuningPlan
from .cells import PredictRequest

__all__ = [
    "DEFAULT_WIDTHS",
    "BatchWindow",
    "QueueFullError",
    "MicroBatcher",
    "serving_windows",
    "replay_batches",
]

#: Candidate coalescing widths the window planner prices per layer
#: (decode-time skinny shapes up to a modest serving batch).
DEFAULT_WIDTHS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatcher.push` when the bounded queue is full.

    This is the explicit backpressure signal: the caller sheds the request
    (and tells the client) instead of queueing unbounded work.
    """


@dataclass(frozen=True)
class BatchWindow:
    """The coalescing policy of one layer.

    ``width`` is the target coalesced column count; ``deadline_s`` how long
    the oldest queued request may wait before a partial batch is flushed
    (it starts as the modelled batch time at ``width`` and is replaced by
    host time in the service's calibration pass).
    """

    layer: str
    width: int
    deadline_s: float

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("window width must be positive")
        if self.deadline_s < 0.0:
            raise ValueError("deadline must be non-negative")

    def with_deadline(self, deadline_s: float) -> "BatchWindow":
        """The same window with an explicit deadline override."""
        return dataclasses.replace(self, deadline_s=float(deadline_s))


def serving_windows(
    plan: TuningPlan,
    *,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    width: int | None = None,
    deadline_s: float | None = None,
) -> dict[str, BatchWindow]:
    """Plan one :class:`BatchWindow` per linear layer of a tuning plan.

    For each layer the assigned kernel is priced at every candidate width
    with one batched timing-model call, and the throughput argmax picks the
    coalescing target (first maximum wins ties, so windows are stable).
    ``width`` forces the same coalescing width everywhere; ``deadline_s``
    forces the same deadline (otherwise the modelled batch time is the
    deadline, awaiting the service's host-time calibration).  Convolution
    layers have no token dimension to coalesce and are skipped.
    """
    candidate_widths = tuple(int(w) for w in widths)
    if not candidate_widths or min(candidate_widths) <= 0:
        raise ValueError("widths must be positive")
    if width is not None and width <= 0:
        raise ValueError("width override must be positive")
    arch = get_gpu(plan.gpu)
    model = PlannedModel(plan)
    density = 1.0 - plan.sparsity
    windows: dict[str, BatchWindow] = {}
    for assignment in plan.assignments:
        layer = model.layers[assignment.layer]
        if layer.kind != "linear":
            continue
        kernel = make_kernel(assignment.kernel, **dict(assignment.kernel_kwargs))
        scored_density = candidate_density(kernel, density)
        priced = candidate_widths if width is None else (int(width),)
        shapes = [layer.with_tokens(w).gemm for w in priced]
        times = kernel.estimate_grid(
            arch, shapes, np.full(len(priced), scored_density)
        ).total_time_s
        throughput = np.asarray(priced, dtype=np.float64) / times
        best = int(np.argmax(throughput))
        windows[assignment.layer] = BatchWindow(
            layer=assignment.layer,
            width=int(priced[best]),
            deadline_s=float(times[best]) if deadline_s is None else float(deadline_s),
        )
    return windows


class MicroBatcher:
    """Bounded per-layer request queues with deadline-driven coalescing.

    Requests accumulate per layer until either (a) the layer's window width
    is filled — the batch is released immediately — or (b) the *oldest*
    queued request has waited ``deadline_s`` — the partial batch is flushed
    so no request ever waits past its deadline.  ``max_pending`` bounds the
    total queued width across layers; :meth:`push` raises
    :class:`QueueFullError` beyond it (reject semantics — the service never
    silently drops an accepted request).

    All methods take ``now`` explicitly (any monotonic float clock).  Each
    does constant work per request it queues or releases: running counters
    hold the queued width per layer, their total and the number of queued
    requests carrying their own ``deadline_s``, so the per-request deadline
    scans in :meth:`next_deadline` and :meth:`shed_expired` run only while
    that count is non-zero.  The class is not thread-safe; the service
    calls it under its lock.
    """

    def __init__(
        self, windows: Mapping[str, BatchWindow], *, max_pending: int = 256
    ) -> None:
        """``windows`` maps layer name to its coalescing policy."""
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.windows = dict(windows)
        self.max_pending = max_pending
        self._queues: dict[str, deque[tuple[PredictRequest, float]]] = {
            layer: deque() for layer in self.windows
        }
        self._widths = dict.fromkeys(self.windows, 0)
        self._pending = 0
        self._with_deadline = 0

    @property
    def pending(self) -> int:
        """Total queued column width across all layers."""
        return self._pending

    def push(self, request: PredictRequest, now: float) -> None:
        """Enqueue one request at time ``now``.

        Raises :class:`KeyError` for layers the plan does not serve and
        :class:`QueueFullError` when the bounded queue is full.
        """
        if request.layer not in self._queues:
            raise KeyError(f"no serving window for layer {request.layer!r}")
        width = request.width
        if self._pending + width > self.max_pending:
            raise QueueFullError(
                f"queue full: {self._pending} pending columns + "
                f"{width} would exceed max_pending={self.max_pending}"
            )
        self._queues[request.layer].append((request, now))
        self._count(request.layer, width, request.deadline_s is not None)

    def poll(self, now: float) -> list[list[PredictRequest]]:
        """Release every batch that is ready at time ``now``.

        Width-filled batches release unconditionally; a partial batch
        releases once its oldest request's deadline has passed.  Layers are
        visited in sorted-name order so the release order is deterministic
        for a given queue state.
        """
        ready: list[list[PredictRequest]] = []
        for layer in sorted(self._queues):
            window = self.windows[layer]
            queue = self._queues[layer]
            while self._widths[layer] >= window.width:
                ready.append(self._take(layer, window.width))
            if queue and now - queue[0][1] >= window.deadline_s:
                ready.append(self._take(layer, window.width))
        return ready

    def next_deadline(self) -> float | None:
        """The earliest time any queued request's deadline expires.

        Covers both deadline kinds: each layer's coalescing-window deadline
        (oldest request + ``window.deadline_s``) and every queued request's
        own optional shed deadline (``request.deadline_s``), so the service
        wakes in time to flush partial batches *and* to shed expired work.
        """
        deadlines = [
            queue[0][1] + self.windows[layer].deadline_s
            for layer, queue in self._queues.items()
            if queue
        ]
        if self._with_deadline:
            deadlines.extend(
                enqueued + request.deadline_s
                for queue in self._queues.values()
                for request, enqueued in queue
                if request.deadline_s is not None
            )
        return min(deadlines, default=None)

    def remove(self, request: PredictRequest) -> bool:
        """Withdraw one queued request by identity (False if not queued).

        The cancellation path: a caller whose ``result(timeout=...)``
        expired reclaims the queue slot so the request is neither served
        nor counted later.  Only *queued* requests can be withdrawn — once
        released into a batch the request is in flight and will be
        answered.
        """
        queue = self._queues.get(request.layer)
        if queue is None:
            return False
        for index, (queued, _) in enumerate(queue):
            if queued is request:
                # By position: ``deque.remove`` compares entries by value,
                # and an earlier request with an equal payload would match.
                del queue[index]
                self._count(
                    request.layer, -request.width, -(request.deadline_s is not None)
                )
                return True
        return False

    def shed_expired(self, now: float) -> list[PredictRequest]:
        """Remove (and return) every queued request whose own deadline passed.

        Requests carrying ``deadline_s`` are shed *before* dispatch once
        ``now - enqueue_time >= deadline_s`` — the service answers them with
        an expired error response instead of spending batch capacity on
        work nobody is waiting for.  Layers are visited in sorted order so
        the shed order is deterministic.
        """
        shed: list[PredictRequest] = []
        if not self._with_deadline:
            return shed
        for layer in sorted(self._queues):
            queue = self._queues[layer]
            kept: deque[tuple[PredictRequest, float]] = deque()
            for request, enqueued in queue:
                if (
                    request.deadline_s is not None
                    and now - enqueued >= request.deadline_s
                ):
                    shed.append(request)
                    self._count(layer, -request.width, -1)
                else:
                    kept.append((request, enqueued))
            self._queues[layer] = kept
        return shed

    def drain(self) -> list[list[PredictRequest]]:
        """Release everything immediately (shutdown path): width-filled
        batches first, then one final partial batch per layer."""
        ready: list[list[PredictRequest]] = []
        for layer in sorted(self._queues):
            window = self.windows[layer]
            queue = self._queues[layer]
            while queue:
                ready.append(self._take(layer, window.width))
        return ready

    def _count(self, layer: str, width: int, deadlines: int) -> None:
        """Move the running counters by ``width`` queued columns of ``layer``
        and ``deadlines`` queued requests that carry their own deadline."""
        self._widths[layer] += width
        self._pending += width
        self._with_deadline += deadlines

    def _take(self, layer: str, width: int) -> list[PredictRequest]:
        """Pop requests in arrival order until ``width`` columns are filled
        (or the queue empties)."""
        queue = self._queues[layer]
        batch: list[PredictRequest] = []
        filled = 0
        with_deadline = 0
        while queue and filled < width:
            request, _ = queue.popleft()
            batch.append(request)
            filled += request.width
            with_deadline += request.deadline_s is not None
        self._count(layer, -filled, -with_deadline)
        return batch


def replay_batches(
    requests: Iterable[PredictRequest],
    windows: Mapping[str, BatchWindow],
) -> list[list[PredictRequest]]:
    """Deterministic batch composition of a whole request stream.

    The replay (offline) path: batches are a pure function of the request
    order and the windows — per layer, requests coalesce in arrival order
    and a batch is emitted the moment its window width fills; leftovers
    flush as partial batches in layer first-appearance order.  Because the
    composition is deterministic, replaying the same stream serially or
    across any number of workers produces byte-identical outputs.
    """
    buffers: dict[str, list[PredictRequest]] = {}
    filled: dict[str, int] = {}
    order: list[str] = []
    batches: list[list[PredictRequest]] = []
    for request in requests:
        if request.layer not in windows:
            raise KeyError(f"no serving window for layer {request.layer!r}")
        buffer = buffers.setdefault(request.layer, [])
        if not buffer and request.layer not in order:
            order.append(request.layer)
        buffer.append(request)
        filled[request.layer] = filled.get(request.layer, 0) + request.width
        if filled[request.layer] >= windows[request.layer].width:
            batches.append(buffer.copy())
            buffer.clear()
            filled[request.layer] = 0
    for layer in order:
        if buffers.get(layer):
            batches.append(buffers[layer])
    return batches

"""The inference service: queue, micro-batcher, workers and backpressure.

:class:`InferenceService` is the serving front of the repo: it binds one
:class:`~repro.tune.planner.TuningPlan` to derived pruned weights, prepared
once at :meth:`~InferenceService.start` into each layer's kernel format
(:func:`~repro.serve.weights.planned_runtime`), plans a coalescing window
per layer from the batched timing model, and then answers ``predict``
requests on those prepared operands — live (a dispatcher thread coalescing
queued requests up to each layer's latency deadline, executing on ``N``
worker processes) or offline
(:meth:`~InferenceService.replay`, a deterministic pure path through the
sweep runner whose outputs are byte-identical at any worker count).

Deadline semantics: the timing model predicts GPU execution times while the
functional engines run on the host, so the modelled per-batch deadline is
replaced at :meth:`~InferenceService.start` by a measured calibration pass
(the faster of two full-width batches per layer through the real engine,
after the runtime the forked workers inherit is prepared).  The calibrated
deadline ≈ the host-time cost of one full batch, so a request's worst-case
latency stays within roughly two batch service times.  An explicit
``deadline_s`` needs no calibration, so each layer then runs a single probe
batch, which still warms what the workers inherit before the pool forks.

Backpressure: the micro-batcher's queue is bounded in total coalesced
columns; a ``submit`` beyond the bound raises
:class:`ServiceOverloadedError` immediately (explicit reject — accepted
requests are never shed).

Failure semantics: every *accepted* request gets exactly one response —
success or a structured error.  Worker-side executor exceptions come back
as error responses (never a dead worker); a batch that crashes workers past
the pool's retry budget is quarantined and answered with errors; requests
carrying their own ``deadline_s`` are shed before dispatch once expired; a
pool whose workers keep dying trips the circuit breaker and the service
degrades to inline dispatcher execution; and ``stop(timeout=...)`` is
bounded — it escalates worker shutdown and resolves anything still
unanswered with shutdown errors, reporting what it shed.  All of it is
fault-injectable through :class:`~repro.serve.faults.FaultPlan` and counted
in :class:`ServiceStats`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..eval.runner import SweepRunner
from ..tune.planner import TuningPlan
from .batcher import MicroBatcher, QueueFullError, serving_windows
from .cells import (
    SERVE_TASK,
    PredictRequest,
    PredictResponse,
    ServeBatch,
    _runtime_for,
    execute_serve_batches,
)
from .faults import BatchError, FaultPlan

__all__ = [
    "DEFAULT_WEIGHT_SEED",
    "ServiceOverloadedError",
    "PendingPrediction",
    "ServiceStats",
    "InferenceService",
]

#: Weight seed the service derives pruned tensors from unless told otherwise.
DEFAULT_WEIGHT_SEED = 2024


class ServiceOverloadedError(RuntimeError):
    """Raised by ``submit`` when the bounded request queue is full."""


@dataclass
class PendingPrediction:
    """A submitted request awaiting its response (a minimal future).

    ``result(timeout=...)`` that times out *cancels* the queued request:
    the queue slot is reclaimed, ``stats.expired`` is incremented exactly
    once, and the request is never served or counted later.  A request
    already coalesced into an in-flight batch can no longer be withdrawn —
    it will be answered normally and later ``result()`` calls return that
    response.
    """

    request: PredictRequest
    submitted_at: float
    response: PredictResponse | None = None
    cancelled: bool = False
    _event: threading.Event = field(default_factory=threading.Event)
    _canceller: Callable[["PendingPrediction"], bool] | None = field(
        default=None, repr=False
    )

    def resolve(self, response: PredictResponse) -> None:
        """Deliver the response and wake any waiter (first resolve wins)."""
        if self.response is None:
            self.response = response
        self._event.set()

    def cancel(self) -> bool:
        """Withdraw the request if it is still queued (idempotent).

        True when this call reclaimed the queue slot; False when the
        request was already dispatched, resolved, or cancelled earlier.
        """
        if self._canceller is None:
            return False
        if self._canceller(self):
            self.cancelled = True
            self._event.set()
            return True
        return False

    def result(self, timeout: float | None = None) -> PredictResponse:
        """Block until the response arrives (``TimeoutError`` otherwise).

        A timeout cancels the queued request before raising, so the slot
        is reclaimed instead of being served to nobody (see the class
        docstring for the in-flight caveat).
        """
        if not self._event.wait(timeout):
            self.cancel()
            raise TimeoutError(
                f"request {self.request.request_id!r} not served in time"
            )
        if self.cancelled or self.response is None:
            raise TimeoutError(
                f"request {self.request.request_id!r} was cancelled after "
                "timing out"
            )
        return self.response


@dataclass
class ServiceStats:
    """Serving counters accumulated over the service lifetime.

    Besides the happy-path counters, the failure half of the story:
    ``retried`` batch resubmissions after worker deaths, ``quarantined``
    poison batches isolated past the retry budget, ``errors`` batches
    answered with executor-error responses, ``expired`` requests shed on
    their deadlines (before dispatch or via ``result(timeout=...)``
    cancellation), and ``degraded`` batches executed inline after the
    worker pool's circuit breaker tripped.
    """

    served: int = 0
    rejected: int = 0
    batches: int = 0
    retried: int = 0
    quarantined: int = 0
    errors: int = 0
    expired: int = 0
    degraded: int = 0
    latencies_s: list[float] = field(default_factory=list)
    batch_widths: list[int] = field(default_factory=list)

    def percentile_latency_s(self, percentile: float) -> float:
        """Latency percentile over every served request (0 when none)."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), percentile))

    @property
    def mean_batch_width(self) -> float:
        """Average coalesced width of the dispatched batches (0 when none)."""
        if not self.batch_widths:
            return 0.0
        return float(np.mean(self.batch_widths))

    def to_dict(self) -> dict:
        """JSON-friendly summary (the benchmark's per-mode block)."""
        return {
            "served": self.served,
            "rejected": self.rejected,
            "batches": self.batches,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "errors": self.errors,
            "expired": self.expired,
            "degraded": self.degraded,
            "mean_batch_width": self.mean_batch_width,
            "p50_latency_ms": self.percentile_latency_s(50) * 1e3,
            "p99_latency_ms": self.percentile_latency_s(99) * 1e3,
        }


class InferenceService:
    """Serve ``predict`` requests through a tuning plan.

    Parameters
    ----------
    plan:
        The tuned per-layer kernel assignment to serve.
    weight_seed:
        Seed of the derived pruned weights (the serving state is a pure
        function of ``(plan, weight_seed)``).
    workers:
        Worker processes; ``0`` executes batches inline on the dispatcher
        thread (useful for tests and tiny deployments).
    width / deadline_s:
        Optional overrides of the per-layer coalescing windows; by default
        the width is the timing model's throughput argmax and the deadline
        its calibrated batch time (see module docstring).
    max_pending:
        Queue bound in total coalesced columns; beyond it ``submit`` raises
        :class:`ServiceOverloadedError`.
    max_retries / hang_timeout_s / breaker_threshold / backoff_base_s:
        The worker pool's recovery budget — crash retries per batch before
        quarantine, silence before a worker is declared hung, consecutive
        deaths before the circuit breaker degrades the service to inline
        execution, and the respawn backoff base (see
        :class:`~repro.serve.pool.WorkerPool`).
    fault_plan:
        Optional deterministic fault-injection schedule
        (:class:`~repro.serve.faults.FaultPlan`; chaos testing only).
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        plan: TuningPlan,
        *,
        weight_seed: int = DEFAULT_WEIGHT_SEED,
        workers: int = 0,
        width: int | None = None,
        deadline_s: float | None = None,
        max_pending: int = 256,
        max_retries: int = 2,
        hang_timeout_s: float | None = 30.0,
        breaker_threshold: int = 8,
        backoff_base_s: float = 0.05,
        fault_plan: FaultPlan | None = None,
        clock=time.monotonic,
    ) -> None:
        self.plan = plan
        self.weight_seed = int(weight_seed)
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.hang_timeout_s = hang_timeout_s
        self.breaker_threshold = int(breaker_threshold)
        self.backoff_base_s = float(backoff_base_s)
        self.fault_plan = fault_plan
        self._explicit_deadline = deadline_s
        self.windows = serving_windows(plan, width=width, deadline_s=deadline_s)
        if not self.windows:
            raise ValueError("the plan has no linear layers to serve")
        from ..tune.planned import PlannedModel

        _layers = PlannedModel(plan).layers
        self._expected_rows = {
            layer: _layers[layer].gemm.k for layer in self.windows
        }
        self.stats = ServiceStats()
        self._clock = clock
        self._condition = threading.Condition()
        self._batcher = MicroBatcher(self.windows, max_pending=max_pending)
        self._waiting: dict[int, PendingPrediction] = {}
        self._inflight: dict[int, tuple[ServeBatch, list[PendingPrediction]]] = {}
        self._next_batch_id = 0
        self._pool = None
        self._dispatcher: threading.Thread | None = None
        self._stopping = False
        self._abort = False
        self._degraded = False
        self._started = False
        # Set when the dispatcher dies: the error every request it stranded
        # was answered with, and how many there were.
        self._failure: str | None = None
        self._failure_shed = 0

    # ------------------------------ lifecycle ---------------------------- #
    def start(self) -> "InferenceService":
        """Prepare the runtime, calibrate deadlines, spawn workers, go live."""
        if self._started:
            return self
        # Building the runtime prepares every layer up front (the forked
        # workers inherit it).  The first probe of a CSR layer also imports
        # scipy.sparse and memoises its handle, so it must run here, before
        # the pool forks, for the workers to inherit both.  When the
        # deadline is calibrated, a second probe runs and the faster one is
        # the sample, which keeps that one-off cost and one noisy run from
        # inflating a deadline; an explicit deadline needs only the first.
        _runtime_for(self.plan, self.weight_seed)
        probes = 2 if self._explicit_deadline is None else 1
        for layer, window in list(self.windows.items()):
            probe = PredictRequest.from_array(
                layer, np.ones((self._expected_rows[layer], window.width))
            )
            batch = ServeBatch(
                plan=self.plan,
                weight_seed=self.weight_seed,
                layer=layer,
                requests=(probe,),
            )
            runs = []
            for _ in range(probes):
                began = time.perf_counter()
                execute_serve_batches([batch])
                runs.append(time.perf_counter() - began)
            if self._explicit_deadline is None:
                self.windows[layer] = window.with_deadline(max(min(runs), 1e-9))
        self._batcher.windows = dict(self.windows)
        if self.workers > 0:
            from .pool import WorkerPool

            self._pool = WorkerPool(
                self.workers,
                max_retries=self.max_retries,
                hang_timeout_s=self.hang_timeout_s,
                breaker_threshold=self.breaker_threshold,
                backoff_base_s=self.backoff_base_s,
                fault_plan=self.fault_plan,
            )
        self._stopping = False
        self._abort = False
        self._failure = None
        self._failure_shed = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._started = True
        return self

    def stop(self, timeout: float | None = None) -> dict:
        """Drain and shut down, bounded by ``timeout`` seconds when given.

        ``timeout=None`` keeps the original graceful contract: every
        accepted request is served before the workers shut down.  With a
        timeout the stop is *bounded*: the dispatcher gets ``timeout``
        seconds to drain; if it is still wedged (e.g. a hung worker with
        hang detection disabled) the loop is aborted, everything still
        unanswered is resolved with shutdown error responses, and worker
        shutdown escalates join → terminate → kill.  Returns a report:
        ``{"shed": <requests resolved with shutdown errors>, "clean":
        <True when the drain finished in time>, "pool": <escalation
        counts>}``.  A dispatcher that died on an unexpected exception
        makes the stop unclean, and ``shed`` counts the requests it
        answered with ``[dispatcher]`` errors.
        """
        report: dict = {
            "shed": 0,
            "clean": True,
            "pool": {"joined": 0, "terminated": 0, "killed": 0},
        }
        if not self._started:
            return report
        with self._condition:
            self._stopping = True
            self._condition.notify_all()
        assert self._dispatcher is not None
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():
            report["clean"] = False
            self._abort = True
            with self._condition:
                self._condition.notify_all()
            self._dispatcher.join(timeout=1.0)
            report["shed"] = self._shed_unanswered(
                "[shutdown] service stopped before the request was served"
            )
        if self._failure is not None:
            report["clean"] = False
            report["shed"] += self._failure_shed
        if self._pool is not None:
            report["pool"] = self._pool.close(
                timeout=5.0 if timeout is None else max(timeout, 0.1)
            )
            self._pool = None
        self._dispatcher = None
        self._abort = False
        self._started = False
        return report

    def _shed_unanswered(self, error: str) -> int:
        """Resolve every still-unanswered request with an ``error`` response."""
        with self._condition:
            pendings = list(self._waiting.values())
            self._waiting.clear()
            for _, batch_pendings in self._inflight.values():
                pendings.extend(batch_pendings)
            self._inflight.clear()
            self._batcher.drain()
            now = self._clock()
            shed = 0
            for pending in pendings:
                if pending.response is not None or pending.cancelled:
                    continue
                shed += 1
                pending.resolve(
                    PredictResponse(
                        request_id=pending.request.request_id,
                        layer=pending.request.layer,
                        output=None,
                        width=0,
                        latency_s=now - pending.submitted_at,
                        error=error,
                    )
                )
            return shed

    def __enter__(self) -> "InferenceService":
        """Context-manager entry: start the service."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: drain and stop."""
        self.stop()

    # ------------------------------ live path ---------------------------- #
    def submit(self, request: PredictRequest) -> PendingPrediction:
        """Enqueue one request.

        Raises ``KeyError`` for unknown layers, ``ValueError`` when the
        activation row count does not match the layer's input width (a
        mis-shaped request would poison every companion coalesced into its
        batch, so it is rejected at the gate), and
        :class:`ServiceOverloadedError` when the queue is full.  Once the
        dispatcher has died every submit raises ``RuntimeError``.
        """
        self.validate(request)
        with self._condition:
            if self._failure is not None:
                raise RuntimeError(f"the service is down: {self._failure}")
            now = self._clock()
            try:
                self._batcher.push(request, now)
            except QueueFullError as exc:
                self.stats.rejected += 1
                raise ServiceOverloadedError(str(exc)) from exc
            pending = PendingPrediction(
                request=request,
                submitted_at=now,
                _canceller=self._cancel_pending,
            )
            self._waiting[id(request)] = pending
            self._condition.notify_all()
            return pending

    def predict(
        self, request: PredictRequest, *, timeout: float | None = None
    ) -> PredictResponse:
        """Submit one request and block for its response."""
        return self.submit(request).result(timeout)

    def validate(self, request: PredictRequest) -> None:
        """Reject requests whose activations cannot join the layer's batch.

        ``KeyError`` for a layer the plan does not serve; ``ValueError``
        when the activation row count does not match the layer's input
        width.  Both :meth:`submit` and the CLI transports call this at
        the gate so one mis-shaped request can never poison the batch it
        would have been coalesced into.
        """
        expected = self._expected_rows.get(request.layer)
        if expected is None:
            raise KeyError(f"no serving window for layer {request.layer!r}")
        if request.rows != expected:
            raise ValueError(
                f"layer {request.layer!r} expects K={expected} activation "
                f"rows, got {request.rows}"
            )

    def _cancel_pending(self, pending: PendingPrediction) -> bool:
        """Withdraw a queued request (the ``result`` timeout path).

        Succeeds only while the request still sits in the micro-batcher:
        the slot is reclaimed from ``_waiting`` *and* the queue, and
        ``stats.expired`` is incremented exactly once.  Once the request is
        dispatched (queued in the pool or in flight) the withdrawal fails
        and the request is answered normally.
        """
        with self._condition:
            key = id(pending.request)
            if key not in self._waiting:
                return False
            if not self._batcher.remove(pending.request):
                return False
            del self._waiting[key]
            self.stats.expired += 1
            return True

    def _dispatch_loop(self) -> None:
        # Every due batch goes straight to the pool, which bounds what is in
        # flight itself (one batch per worker slot) and queues the rest.  The
        # loop waits on the condition only when nothing is due or in flight;
        # otherwise it polls the pool's replies every 5 ms.
        try:
            while True:
                if self._abort:
                    return
                with self._condition:
                    now = self._clock()
                    self._shed_expired_locked(now)
                    if self._stopping:
                        due = self._batcher.drain()
                    else:
                        due = self._batcher.poll(now)  # staticcheck: ignore[SC007] -- in-memory poll
                    if not due and not self._inflight and not self._stopping:
                        deadline = self._batcher.next_deadline()
                        timeout = (
                            max(0.0, deadline - now) if deadline is not None else None
                        )
                        self._condition.wait(timeout=timeout)
                        continue
                for requests in due:
                    self._dispatch(requests)
                if self._pool is not None and self._inflight:
                    for result in self._pool.collect(timeout=0.005):
                        if result.error is not None:
                            self._complete_error(result.batch, result.error)
                        else:
                            self._complete(result.batch, result.outputs)
                    self.stats.retried = self._pool.retried
                    if self._pool.broken:
                        self._degrade()
                with self._condition:
                    if (
                        self._stopping
                        and self._batcher.pending == 0
                        and not self._inflight
                    ):
                        return
        except Exception as exc:
            # Any escape would end the thread silently and strand every
            # accepted request: refuse new ones and answer the rest.
            with self._condition:
                self._failure = f"[dispatcher] {type(exc).__name__}: {exc}"
                self._failure_shed = self._shed_unanswered(self._failure)

    def _shed_expired_locked(self, now: float) -> None:
        """Shed queued requests whose own deadline passed (lock held)."""
        for request in self._batcher.shed_expired(now):
            pending = self._waiting.pop(id(request), None)
            if pending is None:
                continue
            self.stats.expired += 1
            pending.resolve(
                PredictResponse(
                    request_id=request.request_id,
                    layer=request.layer,
                    output=None,
                    width=0,
                    latency_s=now - pending.submitted_at,
                    error=(
                        f"[expired] deadline_s={request.deadline_s} passed "
                        "before dispatch"
                    ),
                )
            )

    def _degrade(self) -> None:
        """Circuit breaker tripped: reclaim the pool's work, go inline.

        The pool stops existing; every unfinished batch (and everything
        dispatched from now on) executes inline on the dispatcher thread —
        slower, but alive.  Counted per batch in ``stats.degraded``.
        """
        assert self._pool is not None
        leftover = self._pool.abandon()
        self._pool.close(timeout=5.0)
        self._pool = None
        self._degraded = True
        for batch in leftover:
            self._execute_inline(batch)

    def _dispatch(self, requests: list[PredictRequest]) -> None:
        with self._condition:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            batch = ServeBatch(
                plan=self.plan,
                weight_seed=self.weight_seed,
                layer=requests[0].layer,
                requests=tuple(requests),
                batch_id=batch_id,
            )
            pendings = [self._waiting.pop(id(request)) for request in requests]
            self._inflight[batch_id] = (batch, pendings)
        if self._pool is not None:
            self._pool.submit(batch)
            return
        self._execute_inline(batch)

    def _execute_inline(self, batch: ServeBatch) -> None:
        """Run one batch on the dispatcher thread (no pool, or degraded).

        Executor exceptions become structured error responses here too, so
        a poison batch cannot kill the dispatcher thread.
        """
        try:
            record = execute_serve_batches([batch])[0]
        except Exception as exc:
            self._complete_error(
                batch,
                BatchError(
                    batch_id=batch.batch_id,
                    kind="executor",
                    message=f"{type(exc).__name__}: {exc}",
                ),
            )
            return
        if self._degraded:
            self.stats.degraded += 1
        self._complete(batch, record.outputs)

    def _complete(self, batch: ServeBatch, outputs: tuple[np.ndarray, ...]) -> None:
        with self._condition:
            entry = self._inflight.pop(batch.batch_id, None)
            if entry is None:
                return  # already shed by a bounded stop
            _, pendings = entry
            now = self._clock()
            width = batch.width
            self.stats.batches += 1
            self.stats.batch_widths.append(width)
            for request, output, pending in zip(
                batch.requests, outputs, pendings, strict=True
            ):
                latency = now - pending.submitted_at
                self.stats.served += 1
                self.stats.latencies_s.append(latency)
                pending.resolve(
                    PredictResponse(
                        request_id=request.request_id,
                        layer=request.layer,
                        output=output,
                        width=width,
                        latency_s=latency,
                    )
                )

    def _complete_error(self, batch: ServeBatch, error: BatchError) -> None:
        """Answer every request of a failed batch with a structured error."""
        with self._condition:
            entry = self._inflight.pop(batch.batch_id, None)
            if entry is None:
                return  # already shed by a bounded stop
            _, pendings = entry
            now = self._clock()
            width = batch.width
            self.stats.batches += 1
            if error.kind == "quarantined":
                self.stats.quarantined += 1
            else:
                self.stats.errors += 1
            for request, pending in zip(batch.requests, pendings, strict=True):
                pending.resolve(
                    PredictResponse(
                        request_id=request.request_id,
                        layer=request.layer,
                        output=None,
                        width=width,
                        latency_s=now - pending.submitted_at,
                        error=error.describe(),
                    )
                )

    # ----------------------------- replay path --------------------------- #
    def replay(
        self,
        requests: list[PredictRequest],
        *,
        jobs: int = 1,
        cache_dir=None,
    ) -> list[PredictResponse]:
        """Serve a whole recorded request stream deterministically.

        Batch composition is a pure function of the request order and the
        serving windows (:func:`~repro.serve.batcher.replay_batches`), and
        execution runs through the sweep runner's cached
        ``contiguous_process_map`` — so the responses are byte-identical at
        any ``jobs`` count, and a ``cache_dir`` makes warm re-runs free.
        Responses come back in the order of ``requests``; latency is
        ``None`` (the replay path is pure and unclocked).
        """
        from .batcher import replay_batches

        grouped = replay_batches(requests, self.windows)
        batches = [
            ServeBatch(
                plan=self.plan,
                weight_seed=self.weight_seed,
                layer=group[0].layer,
                requests=tuple(group),
                batch_id=index,
            )
            for index, group in enumerate(grouped)
        ]
        runner = SweepRunner(jobs=jobs, cache_dir=cache_dir)
        result = runner.run_cells(batches, SERVE_TASK)
        by_identity: dict[int, PredictResponse] = {}
        for record in result.records:
            width = record.config.width
            for request, output in zip(
                record.config.requests, record.outputs, strict=True
            ):
                by_identity[id(request)] = PredictResponse(
                    request_id=request.request_id,
                    layer=request.layer,
                    output=output,
                    width=width,
                )
        return [by_identity[id(request)] for request in requests]

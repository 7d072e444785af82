"""Long-lived worker processes executing serve batches.

The offline sweeps use ``ProcessPoolExecutor`` maps over a *closed* config
list; serving needs the open-ended version — workers that stay up across an
unbounded request stream, accept one micro-batch at a time, and survive
crashes.  :class:`WorkerPool` keeps ``N`` processes on duplex pipes, routes
each batch to the least-loaded worker, and recovers from a dead worker by
respawning it and resubmitting everything it still owed (a batch is only
dropped from the outstanding set once its result arrives, so a crash never
loses accepted work).

Recovery is *bounded*, never optimistic:

* a worker-side executor exception is caught in the worker and answered
  with a structured :class:`~repro.serve.faults.BatchError` reply — bad
  inputs cost one reply, not one process;
* a batch that crashes workers more than ``max_retries`` times is
  **quarantined**: it surfaces from ``collect`` as an errored
  :class:`BatchResult` instead of being resubmitted forever;
* respawns back off exponentially, and a pool whose workers keep dying
  without ever producing a result trips a **circuit breaker**
  (``broken``) — it stops respawning, strands the unfinished batches for
  the caller to reclaim (:meth:`abandon`), and lets the service degrade to
  inline execution;
* a worker that stops answering (a hang, not a crash) is declared dead
  after ``hang_timeout_s`` and revived like any other casualty;
* ``close(timeout=...)`` escalates join → terminate → kill per stage and
  reports what each stage had to do.

Workers run :func:`~repro.serve.cells.execute_serve_batches` — the same pure
cell executor as the replay path — with the wall-clock timing wrapped
*around* the pure function, so results are byte-identical wherever a batch
lands and the purity gate still covers the compute.  An optional
:class:`~repro.serve.faults.FaultPlan` injects deterministic worker-side
faults for the chaos suite; the plan is consulted parent-side at submit
time, so the fault schedule never touches the pure executor.

On Linux the default (fork) start method makes the parent's prepared
runtime (:func:`~repro.serve.weights.planned_runtime`, memoised in
:mod:`repro.serve.cells`) visible to every worker copy-on-write: the service
builds it *before* building the pool, so workers share the prepared kernel
formats instead of re-deriving them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing import connection

import numpy as np

from .cells import ServeBatch, execute_serve_batches
from .faults import BatchError, FaultInjectionError, FaultPlan, FaultSpec

__all__ = ["BatchResult", "PoolStompedWarning", "WorkerPool"]


class PoolStompedWarning(UserWarning):
    """A recoverable pool anomaly: stale result, corrupt message, revive."""


@dataclass(frozen=True)
class BatchResult:
    """One completed micro-batch: outputs and worker wall time, or an error.

    Exactly one of ``outputs`` / ``error`` is set: a successful batch
    carries its per-request output arrays, a failed one a structured
    :class:`~repro.serve.faults.BatchError` (executor exception or
    quarantine) the service turns into per-request error responses.
    """

    batch: ServeBatch
    outputs: tuple[np.ndarray, ...] | None
    elapsed_s: float
    error: BatchError | None = None


def _worker_main(conn: connection.Connection) -> None:
    """Worker loop: receive ``(batch, fault)``, execute, send a tagged reply.

    ``None`` is the shutdown sentinel.  Replies are ``("ok", batch_id,
    outputs, elapsed)`` or ``("err", batch_id, message, elapsed)`` — an
    executor exception is *answered*, not fatal.  The timing wraps the pure
    executor from outside, so each reply carries the batch's host time
    without the executor touching a clock.
    An injected :class:`~repro.serve.faults.FaultSpec` is obeyed before (or
    instead of) executing; the pure executor itself is never instrumented.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        batch, fault = message
        if fault is not None and fault.kind == "corrupt":
            # The garbage message *is* this request's one reply — the
            # parent's quarantine path is the thing being exercised, so the
            # normal execute-and-send path must not also answer.
            try:
                conn.send(("garbage", "not-a-result"))
            except (BrokenPipeError, OSError):
                pass
            continue
        if fault is not None and not _obey_fault(fault):
            continue
        start = time.perf_counter()
        try:
            if fault is not None and fault.kind == "raise":
                raise FaultInjectionError(
                    f"injected executor fault on batch {batch.batch_id}"
                )
            record = execute_serve_batches([batch])[0]
        except Exception as exc:
            elapsed = time.perf_counter() - start
            reply = ("err", batch.batch_id, f"{type(exc).__name__}: {exc}", elapsed)
        else:
            elapsed = time.perf_counter() - start
            reply = ("ok", batch.batch_id, record.outputs, elapsed)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _obey_fault(fault: FaultSpec) -> bool:
    """Apply one injected fault worker-side; False skips normal execution.

    ``raise`` returns True — it fires *inside* the execution try block so
    the structured-error reply path is the thing being exercised.
    ``corrupt`` never reaches here: the worker loop answers it inline (the
    garbage message is the request's one reply), keeping this helper free
    of the reply channel entirely.
    """
    if fault.kind == "kill":
        os._exit(13)
    if fault.kind == "hang":
        time.sleep(max(fault.delay_s, FaultSpec.HANG_SLEEP_S))
        return False  # pragma: no cover - the sleep outlives the test
    if fault.kind == "delay":
        time.sleep(fault.delay_s)
        return True
    return True  # "raise" is handled by the caller inside its try block


@dataclass(eq=False)
class _Worker:
    """Parent-side handle of one worker process (identity equality)."""

    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    outstanding: dict[int, ServeBatch] = field(default_factory=dict)
    sent_at: dict[int, float] = field(default_factory=dict)


class WorkerPool:
    """``N`` serve workers behind duplex pipes, with bounded crash recovery.

    ``submit`` routes a batch (whose ``batch_id`` must be unique among the
    pool's outstanding work) to the least-loaded live worker; ``collect``
    gathers finished results and transparently respawns any worker found
    dead, resubmitting its outstanding batches up to ``max_retries`` crashes
    per batch — past the budget the batch is quarantined and surfaces as an
    errored :class:`BatchResult`.  ``close`` shuts the pool down after the
    caller has collected everything it cares about.

    ``submit`` writes to a pipe and may block until the target worker
    reads.  Callers whose batches or results can exceed the OS socket
    buffer must therefore keep at most one batch outstanding per worker
    between ``collect`` calls (as :class:`~repro.serve.service.\
InferenceService` does) — submitting more can deadlock the parent against
    a worker that is itself blocked writing a large result.

    Parameters
    ----------
    workers:
        Worker process count (positive).
    context:
        Multiprocessing start method (platform default when ``None``).
    max_retries:
        Crash budget per batch: a batch is resubmitted after at most this
        many worker deaths, then quarantined.
    backoff_base_s / backoff_cap_s:
        Exponential respawn backoff: the ``k``-th consecutive failure
        sleeps ``min(base * 2**(k-1), cap)`` before the replacement worker
        starts, so a crash-looping pool cannot busy-spin fork().
    breaker_threshold:
        Consecutive worker deaths (without a single successful reply in
        between) that trip the circuit breaker.
    hang_timeout_s:
        Declare a worker dead when its oldest outstanding batch has waited
        this long (``None`` disables hang detection).
    fault_plan:
        Optional deterministic fault schedule (chaos testing only).
    """

    def __init__(
        self,
        workers: int,
        *,
        context: str | None = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        breaker_threshold: int = 8,
        hang_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        """Spawn ``workers`` processes (see the class docstring for knobs)."""
        if workers <= 0:
            raise ValueError("worker count must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if breaker_threshold <= 0:
            raise ValueError("breaker_threshold must be positive")
        if hang_timeout_s is not None and hang_timeout_s <= 0.0:
            raise ValueError("hang_timeout_s must be positive (or None)")
        self._ctx = multiprocessing.get_context(context)
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.breaker_threshold = int(breaker_threshold)
        self.hang_timeout_s = hang_timeout_s
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        #: Total batch resubmissions caused by worker deaths.
        self.retried = 0
        #: Batches quarantined after exhausting the retry budget.
        self.quarantined = 0
        #: True once the circuit breaker tripped (no more respawns).
        self.broken = False
        self._consecutive_failures = 0
        self._attempts: dict[int, int] = {}
        self._stranded: list[ServeBatch] = []
        self._errored: list[BatchResult] = []
        self._workers = [self._spawn() for _ in range(workers)]
        self._closed = False

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def outstanding(self) -> int:
        """How many submitted batches a live worker currently owes."""
        return sum(len(worker.outstanding) for worker in self._workers)

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _quarantine(self, batch: ServeBatch, crashes: int) -> None:
        """Isolate a poison batch: errored result instead of another retry."""
        self.quarantined += 1
        self._attempts.pop(batch.batch_id, None)
        error = BatchError(
            batch_id=batch.batch_id,
            kind="quarantined",
            message=(
                f"batch crashed {crashes} worker(s); retry budget "
                f"max_retries={self.max_retries} exhausted"
            ),
        )
        self._errored.append(
            BatchResult(batch=batch, outputs=None, elapsed_s=0.0, error=error)
        )

    def _revive(self, worker: _Worker, *, reason: str) -> None:
        """Replace a dead worker and resubmit what it owed, within budget.

        Past ``breaker_threshold`` consecutive deaths the breaker trips:
        the dead worker is removed (not replaced) and its batches are
        stranded for :meth:`abandon` instead of resubmitted.
        """
        self._consecutive_failures += 1
        orphaned = list(worker.outstanding.values())
        worker.outstanding.clear()
        worker.sent_at.clear()
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stuck in the kernel
            worker.process.kill()
            worker.process.join(timeout=5.0)
        if not self.broken and self._consecutive_failures >= self.breaker_threshold:
            self.broken = True
            warnings.warn(
                f"worker pool circuit breaker tripped after "
                f"{self._consecutive_failures} consecutive worker deaths "
                f"(last: {reason}); no further respawns",
                PoolStompedWarning,
                stacklevel=3,
            )
        if self.broken:
            self._workers.remove(worker)
            self._stranded.extend(orphaned)
            return
        delay = min(
            self.backoff_base_s * (2 ** (self._consecutive_failures - 1)),
            self.backoff_cap_s,
        )
        if delay > 0.0:
            time.sleep(delay)
        replacement = self._spawn()
        self._workers[self._workers.index(worker)] = replacement
        for batch in orphaned:
            crashes = self._attempts.get(batch.batch_id, 0) + 1
            self._attempts[batch.batch_id] = crashes
            if crashes > self.max_retries:
                self._quarantine(batch, crashes)
            else:
                self.retried += 1
                self.submit(batch)

    def submit(self, batch: ServeBatch) -> None:
        """Send one batch to the least-loaded worker (crash-safe)."""
        if self._closed:
            raise RuntimeError("cannot submit to a closed pool")
        while True:
            if not self._workers:
                # Breaker tripped away every worker: strand for abandon().
                self._stranded.append(batch)
                return
            worker = min(self._workers, key=lambda w: len(w.outstanding))
            if batch.batch_id in worker.outstanding:
                raise ValueError(f"duplicate outstanding batch_id {batch.batch_id}")
            action = self.fault_plan.action_for(
                batch.batch_id, self._attempts.get(batch.batch_id, 0)
            )
            try:
                worker.conn.send((batch, action))
            except (BrokenPipeError, OSError):
                self._revive(worker, reason="pipe write failed")
                continue
            worker.outstanding[batch.batch_id] = batch
            worker.sent_at[batch.batch_id] = time.monotonic()
            return

    def _pop_result(self, worker: _Worker, message: object) -> BatchResult | None:
        """Validate one worker reply; None drops it (and may revive).

        A malformed message means the pipe's framing can no longer be
        trusted, so the worker is recycled; a well-formed reply for an
        unknown ``batch_id`` (e.g. a stale result from a batch already
        resubmitted elsewhere) is dropped with a warning instead of
        crashing the dispatcher.
        """
        if (
            not isinstance(message, tuple)
            or len(message) != 4
            or message[0] not in ("ok", "err")
            or not isinstance(message[1], int)
        ):
            warnings.warn(
                f"dropping corrupt pool message {message!r}; recycling its worker",
                PoolStompedWarning,
                stacklevel=3,
            )
            self._revive(worker, reason="corrupt pipe message")
            return None
        tag, batch_id, payload, elapsed = message
        batch = worker.outstanding.pop(batch_id, None)
        worker.sent_at.pop(batch_id, None)
        if batch is None:
            warnings.warn(
                f"dropping result for unknown batch_id {batch_id} "
                "(stale or duplicate reply)",
                PoolStompedWarning,
                stacklevel=3,
            )
            return None
        self._consecutive_failures = 0
        self._attempts.pop(batch_id, None)
        if tag == "err":
            error = BatchError(batch_id=batch_id, kind="executor", message=payload)
            return BatchResult(batch=batch, outputs=None, elapsed_s=elapsed, error=error)
        return BatchResult(batch=batch, outputs=payload, elapsed_s=elapsed)

    def collect(self, timeout: float | None = 0.0) -> list[BatchResult]:
        """Results (successes, executor errors, quarantines) ready in time.

        A worker whose pipe reports end-of-file (it crashed or was killed)
        is respawned and its outstanding batches are resubmitted within the
        retry budget; a worker that exceeds ``hang_timeout_s`` without
        answering is treated the same way.
        """
        results: list[BatchResult] = list(self._errored)
        self._errored.clear()
        conns = {worker.conn: worker for worker in self._workers}
        if conns:
            for ready in connection.wait(list(conns), timeout=timeout):
                worker = conns[ready]
                if worker not in self._workers:
                    continue  # revived earlier in this very loop
                try:
                    message = ready.recv()
                except (EOFError, OSError):
                    self._revive(worker, reason="pipe closed")
                    continue
                result = self._pop_result(worker, message)
                if result is not None:
                    results.append(result)
        if self.hang_timeout_s is not None:
            now = time.monotonic()
            for worker in list(self._workers):
                if worker.sent_at and now - min(worker.sent_at.values()) > (
                    self.hang_timeout_s
                ):
                    warnings.warn(
                        f"worker pid={worker.process.pid} unresponsive for "
                        f"> {self.hang_timeout_s}s; recycling it",
                        PoolStompedWarning,
                        stacklevel=2,
                    )
                    self._revive(worker, reason="hang timeout")
        results.extend(self._errored)
        self._errored.clear()
        return results

    def collect_all(self, *, poll_s: float = 0.05) -> list[BatchResult]:
        """Block until every outstanding batch resolved (or the pool broke).

        Termination is guaranteed by construction: every batch either
        completes, errors, quarantines after ``max_retries`` crashes, or is
        stranded when the breaker trips — with ``hang_timeout_s`` set, even
        silent workers cannot stall the loop.
        """
        results: list[BatchResult] = []
        while (self.outstanding or self._errored) and not self.broken:
            results.extend(self.collect(timeout=poll_s))
        results.extend(self.collect(timeout=0.0))
        return results

    def abandon(self) -> list[ServeBatch]:
        """Reclaim every unfinished batch (stranded + still outstanding).

        The degradation path: after the breaker trips the service takes the
        unfinished work back and executes it inline.  Late replies from
        workers still chewing on a reclaimed batch are dropped by
        ``collect`` as unknown ids.
        """
        reclaimed = list(self._stranded)
        self._stranded.clear()
        for worker in self._workers:
            reclaimed.extend(worker.outstanding.values())
            worker.outstanding.clear()
            worker.sent_at.clear()
        self._attempts.clear()
        reclaimed.sort(key=lambda batch: batch.batch_id)
        return reclaimed

    def close(self, timeout: float | None = 5.0) -> dict[str, int]:
        """Shut every worker down (idempotent), escalating within ``timeout``.

        Each worker gets the shutdown sentinel, then ``join(timeout)``;
        survivors are terminated, re-joined, and finally killed.  Returns a
        report of how far the escalation had to go:
        ``{"joined": ..., "terminated": ..., "killed": ...}``.
        """
        report = {"joined": 0, "terminated": 0, "killed": 0}
        if self._closed:
            return report
        self._closed = True
        stage_timeout = timeout if timeout is None else max(timeout, 0.0)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=stage_timeout)
            if not worker.process.is_alive():
                report["joined"] += 1
            else:
                worker.process.terminate()
                worker.process.join(timeout=stage_timeout)
                if not worker.process.is_alive():
                    report["terminated"] += 1
                else:  # pragma: no cover - needs a SIGTERM-immune worker
                    worker.process.kill()
                    worker.process.join(timeout=stage_timeout)
                    report["killed"] += 1
            try:
                worker.conn.close()
            except OSError:
                pass
        return report

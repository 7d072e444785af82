"""Long-lived worker processes executing serve batches.

The offline sweeps use ``ProcessPoolExecutor`` maps over a *closed* config
list; serving needs the open-ended version — workers that stay up across an
unbounded request stream, accept one micro-batch at a time, and survive
crashes.  :class:`WorkerPool` keeps ``N`` processes on duplex pipes and
recovers from a dead worker by respawning it and resubmitting the batch it
still owed (a batch is only dropped from the pool's ledger once its result
arrives, so a crash never loses accepted work).

Batches never cross a pipe.  Each worker owns one shared-memory *slot*, an
anonymous shared mapping created before the worker forks, so parent and
worker see the same pages:

* the parent writes the batch's activations into the slot as request-major
  rows (each request column one contiguous row of ``K`` floats) and sends
  only a descriptor — batch id, plan, weight seed, layer, ``K``, width —
  plus the batch's injected fault, if any;
* the worker transposes the rows into the C-contiguous ``(K, width)``
  operand, runs :func:`~repro.serve.cells.serve_operand` — the compute
  :func:`~repro.serve.cells.execute_serve_batches` runs too, so results
  are byte-identical wherever a batch lands — and writes the output back
  over the same bytes as ``width`` rows of ``M`` floats;
* the parent copies each request's output out of the slot (a copy, never a
  view) before the slot takes another batch.

A slot holds one batch, and it belongs to its worker from the descriptor's
send until the worker replies to it (or dies) — even when the caller has
abandoned that batch meanwhile.  The pool itself therefore keeps at most
one batch in flight per worker and queues the rest FIFO, with a dead
worker's batch at the front.  A batch larger than every free slot replaces
an idle worker with one whose slot fits, rounded up to a power of two; that
growth is not a failure, so it neither counts toward the circuit breaker nor
waits out the backoff.  Slot size follows the traffic, and only the pages a
batch touches become resident.

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

An optional :class:`~repro.serve.faults.FaultPlan` injects deterministic
worker-side faults for the chaos suite; the plan is consulted parent-side at
send time, so the fault schedule never touches the pure compute.

Workers start with the ``fork`` method: the slots rely on it, and so does
the copy-on-write runtime — the service builds the prepared runtime
(:func:`~repro.serve.weights.planned_runtime`, memoised in
:mod:`repro.serve.cells`) *before* building the pool, so workers share the
prepared kernel formats instead of re-deriving them.
"""

from __future__ import annotations

import functools
import mmap
import multiprocessing
import os
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import connection

import numpy as np

from ..tune.planned import PlannedModel
from ..tune.planner import TuningPlan
from .cells import ServeBatch, serve_operand
from .faults import BatchError, FaultInjectionError, FaultPlan, FaultSpec

__all__ = ["BatchResult", "PoolStompedWarning", "WorkerPool"]

#: Slot bytes of a freshly spawned worker, 2 MiB: a batch takes
#: ``width * max(K, M)`` floats, and a width-64 batch (the widest default
#: window) of the Transformer plan's largest layers (M=4096 for ffn1, K=4096
#: for ffn2) fills it exactly.  Only touched pages are resident, and a
#: larger batch grows the slot of the worker it lands on.
_FIRST_SLOT_BYTES = 64 * 4096 * 8


class PoolStompedWarning(UserWarning):
    """A recoverable pool anomaly: stale result, corrupt message, revive."""


@dataclass(frozen=True)
class BatchResult:
    """One completed micro-batch: its outputs, or an error.

    Exactly one of ``outputs`` / ``error`` is set: a successful batch
    carries its per-request output arrays, a failed one a structured
    :class:`~repro.serve.faults.BatchError` (executor exception or
    quarantine) the service turns into per-request error responses.
    """

    batch: ServeBatch
    outputs: tuple[np.ndarray, ...] | None
    error: BatchError | None = None


def _worker_main(conn: connection.Connection, slot: mmap.mmap) -> None:
    """Worker loop: receive a descriptor, compute in the slot, send a reply.

    ``None`` is the shutdown sentinel.  A message is ``((batch_id, plan,
    weight_seed, layer, k, width), fault)``; the batch's ``width`` rows of
    ``k`` floats already sit in ``slot``.  Replies are ``("ok", batch_id,
    m)`` — the output is in the slot as ``width`` rows of ``m`` floats — or
    ``("err", batch_id, message)``: an executor exception is *answered*,
    not fatal.  An injected
    :class:`~repro.serve.faults.FaultSpec` is obeyed before (or instead
    of) executing; the pure compute itself is never instrumented.
    """
    floats = np.frombuffer(slot, dtype=np.float64)
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        (batch_id, plan, weight_seed, layer, k, width), fault = message
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
        try:
            if fault is not None and fault.kind == "raise":
                raise FaultInjectionError(f"injected executor fault on batch {batch_id}")
            operand = floats[: width * k].reshape(width, k).T.copy()
            output = serve_operand(plan, weight_seed, layer, operand)
            m = output.shape[0]
            floats[: width * m].reshape(width, m)[...] = output.T
        except Exception as exc:
            reply = ("err", batch_id, f"{type(exc).__name__}: {exc}")
        else:
            reply = ("ok", batch_id, m)
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


@functools.lru_cache(maxsize=16)
def _output_rows(plan: TuningPlan, layer: str) -> int:
    """Output rows ``M`` of one served layer (KeyError for an unknown one)."""
    return PlannedModel(plan).layers[layer].gemm.m


def _slot_bytes(batch: ServeBatch) -> int:
    """Slot bytes one batch needs: its input rows, then its output rows.

    Raises ``ValueError`` when the requests differ in row count and
    ``KeyError`` for a layer the plan does not serve: no slot can carry
    such a batch.
    """
    k = batch.requests[0].rows
    if any(request.rows != k for request in batch.requests):
        raise ValueError(f"batch {batch.batch_id} mixes activation row counts")
    return batch.width * max(k, _output_rows(batch.plan, batch.layer)) * 8


def _copy_outputs(slot: mmap.mmap, batch: ServeBatch, m: int) -> tuple[np.ndarray, ...]:
    """Each request's ``(m, n)`` output, copied out of the slot's rows.

    Always a copy: the next batch overwrites the slot, and
    ``np.ascontiguousarray`` of a width-1 slice would return a view.
    """
    rows = np.frombuffer(slot, dtype=np.float64, count=batch.width * m).reshape(-1, m)
    outputs = []
    start = 0
    for request in batch.requests:
        stop = start + request.width
        outputs.append(rows[start:stop].T.copy())
        start = stop
    return tuple(outputs)


@dataclass(eq=False)
class _Worker:
    """Parent-side handle of one worker process (identity equality).

    ``batch`` is the batch the worker owes the caller (``None`` once the
    caller abandoned it).  ``busy`` is the batch id whose descriptor the
    worker holds and ``sent_at`` when it was sent: the slot stays the
    worker's, and its hang clock runs, until it replies to that id.
    """

    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    slot: mmap.mmap
    batch: ServeBatch | None = None
    busy: int | None = None
    sent_at: float | None = None


def _end(worker: _Worker, *, grace_s: float | None, timeout: float | None) -> str:
    """Stop one worker process and release its pipe and slot.

    Joins for ``grace_s``, then escalates to terminate and kill, each
    joined for ``timeout``.  Returns the stage that ended the process:
    ``"joined"``, ``"terminated"`` or ``"killed"``.
    """
    stage = "joined"
    worker.process.join(timeout=grace_s)
    if worker.process.is_alive():
        stage = "terminated"
        worker.process.terminate()
        worker.process.join(timeout=timeout)
    if worker.process.is_alive():  # pragma: no cover - needs a SIGTERM-immune worker
        stage = "killed"
        worker.process.kill()
        worker.process.join(timeout=timeout)
    try:
        worker.conn.close()
    except OSError:
        pass
    worker.slot.close()
    return stage


class WorkerPool:
    """``N`` serve workers, each with a shared-memory slot, and crash recovery.

    ``submit`` queues a batch (whose ``batch_id`` must be unique among the
    pool's unfinished work); the pool sends it, oldest first, to a worker
    whose slot is free, so at most one batch per worker is in flight and
    no caller needs its own bound.  ``collect`` gathers finished results,
    refills the freed slots from the queue and transparently respawns any
    worker found dead, resubmitting its batch up to ``max_retries`` crashes
    per batch — past the budget the batch is quarantined and surfaces as an
    errored :class:`BatchResult`.  ``close`` shuts the pool down and
    releases every slot after the caller has collected everything it cares
    about.  See the module docstring for the slot protocol.

    Parameters
    ----------
    workers:
        Worker process count (positive).
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
        Declare a worker dead when its in-flight batch has waited this long
        for a reply (``None`` disables hang detection).
    fault_plan:
        Optional deterministic fault schedule (chaos testing only).
    """

    def __init__(
        self,
        workers: int,
        *,
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
        self._ctx = multiprocessing.get_context("fork")
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
        self._queue: OrderedDict[int, ServeBatch] = OrderedDict()
        self._stranded: list[ServeBatch] = []
        self._errored: list[BatchResult] = []
        self._workers = [self._spawn(_FIRST_SLOT_BYTES) for _ in range(workers)]
        self._closed = False

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def outstanding(self) -> int:
        """How many submitted batches are queued or owed by a live worker."""
        return len(self._queue) + sum(worker.batch is not None for worker in self._workers)

    def _spawn(self, slot_bytes: int) -> _Worker:
        slot = mmap.mmap(-1, slot_bytes)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, slot), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn, slot=slot)

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
        self._errored.append(BatchResult(batch=batch, outputs=None, error=error))

    def _requeue(self, batch: ServeBatch) -> None:
        """Put a batch back at the front of the queue (it waited longest)."""
        self._queue[batch.batch_id] = batch
        self._queue.move_to_end(batch.batch_id, last=False)

    def _revive(self, worker: _Worker, *, reason: str) -> None:
        """Replace a dead worker and requeue what it owed, within budget.

        Past ``breaker_threshold`` consecutive deaths the breaker trips:
        the dead worker is removed (not replaced) and its batch is
        stranded for :meth:`abandon` instead of resubmitted.
        """
        self._consecutive_failures += 1
        orphaned = worker.batch
        slot_bytes = len(worker.slot)
        _end(worker, grace_s=0.0, timeout=5.0)
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
            if orphaned is not None:
                self._stranded.append(orphaned)
            return
        delay = min(
            self.backoff_base_s * (2 ** (self._consecutive_failures - 1)),
            self.backoff_cap_s,
        )
        if delay > 0.0:
            time.sleep(delay)
        self._workers[self._workers.index(worker)] = self._spawn(slot_bytes)
        if orphaned is None:
            return
        crashes = self._attempts.get(orphaned.batch_id, 0) + 1
        self._attempts[orphaned.batch_id] = crashes
        if crashes > self.max_retries:
            self._quarantine(orphaned, crashes)
        else:
            self.retried += 1
            self._requeue(orphaned)

    def _grow(self, worker: _Worker, slot_bytes: int) -> _Worker:
        """Replace an idle worker with one whose slot holds ``slot_bytes``.

        Growth is not a failure: it neither counts toward the breaker nor
        waits out the backoff.
        """
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        _end(worker, grace_s=5.0, timeout=5.0)
        replacement = self._spawn(1 << (slot_bytes - 1).bit_length())
        self._workers[self._workers.index(worker)] = replacement
        return replacement

    def _send(self, worker: _Worker, batch: ServeBatch) -> bool:
        """Write a batch's rows into the worker's slot and send its descriptor.

        False when the pipe is broken (the batch is then not the worker's).
        """
        k = batch.requests[0].rows
        rows = np.frombuffer(worker.slot, dtype=np.float64, count=batch.width * k)
        np.concatenate(
            [request.activations.T for request in batch.requests],
            out=rows.reshape(-1, k),
        )
        action = self.fault_plan.action_for(
            batch.batch_id, self._attempts.get(batch.batch_id, 0)
        )
        descriptor = (batch.batch_id, batch.plan, batch.weight_seed, batch.layer, k, batch.width)
        try:
            worker.conn.send((descriptor, action))
        except (BrokenPipeError, OSError):
            return False
        worker.batch = batch
        worker.busy = batch.batch_id
        worker.sent_at = time.monotonic()
        return True

    def _pump(self) -> None:
        """Send queued batches, oldest first, to workers whose slot is free."""
        while self._queue:
            if not self._workers:
                # Breaker tripped away every worker: strand for abandon().
                self._stranded.extend(self._queue.values())
                self._queue.clear()
                return
            idle = [worker for worker in self._workers if worker.busy is None]
            if not idle:
                return
            batch = next(iter(self._queue.values()))
            needed = _slot_bytes(batch)
            worker = max(idle, key=lambda candidate: len(candidate.slot))
            if len(worker.slot) < needed:
                worker = self._grow(worker, needed)
            del self._queue[batch.batch_id]
            if not self._send(worker, batch):
                self._requeue(batch)
                self._revive(worker, reason="pipe write failed")

    def submit(self, batch: ServeBatch) -> None:
        """Queue one batch; it is sent as soon as a worker's slot is free.

        Raises ``ValueError`` for a ``batch_id`` the pool already holds or
        requests with differing row counts, and ``KeyError`` for a layer
        the plan does not serve.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed pool")
        if batch.batch_id in self._queue or any(
            worker.batch is not None and worker.batch.batch_id == batch.batch_id
            for worker in self._workers
        ):
            raise ValueError(f"duplicate outstanding batch_id {batch.batch_id}")
        _slot_bytes(batch)
        self._queue[batch.batch_id] = batch
        self._pump()

    def _pop_result(self, worker: _Worker, message: object) -> BatchResult | None:
        """Validate one worker reply; None drops it (and may revive).

        A malformed message, or a reply for a batch the worker does not
        hold, means the pipe's framing can no longer be trusted, so the
        worker is recycled; a reply for a batch the caller no longer awaits
        (stolen or abandoned) frees the slot and is dropped with a warning.
        Neither reads the slot.
        """
        if (
            not isinstance(message, tuple)
            or len(message) != 3
            or message[0] not in ("ok", "err")
            or message[1] != worker.busy
        ):
            warnings.warn(
                f"dropping corrupt pool message {message!r}; recycling its worker",
                PoolStompedWarning,
                stacklevel=3,
            )
            self._revive(worker, reason="corrupt pipe message")
            return None
        tag, batch_id, payload = message
        batch = worker.batch
        worker.batch = worker.busy = worker.sent_at = None
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
            return BatchResult(batch=batch, outputs=None, error=error)
        outputs = _copy_outputs(worker.slot, batch, payload)
        return BatchResult(batch=batch, outputs=outputs)

    def collect(self, timeout: float | None = 0.0) -> list[BatchResult]:
        """Results (successes, executor errors, quarantines) ready in time.

        Every reply frees its worker's slot for the next queued batch.  A
        worker whose pipe reports end-of-file (it crashed or was killed) is
        respawned and its batch is resubmitted within the retry budget; a
        worker that exceeds ``hang_timeout_s`` without answering is treated
        the same way.
        """
        results: list[BatchResult] = list(self._errored)
        self._errored.clear()
        conns = {worker.conn: worker for worker in self._workers}
        if conns:
            for ready in connection.wait(list(conns), timeout=timeout):
                worker = conns[ready]
                if worker not in self._workers:
                    continue  # replaced earlier in this very loop
                try:
                    message = ready.recv()
                except (EOFError, OSError):
                    self._revive(worker, reason="pipe closed")
                    continue
                result = self._pop_result(worker, message)
                if result is not None:
                    results.append(result)
                self._pump()
        if self.hang_timeout_s is not None:
            now = time.monotonic()
            for worker in list(self._workers):
                if worker.sent_at is not None and now - worker.sent_at > self.hang_timeout_s:
                    warnings.warn(
                        f"worker pid={worker.process.pid} unresponsive for "
                        f"> {self.hang_timeout_s}s; recycling it",
                        PoolStompedWarning,
                        stacklevel=2,
                    )
                    self._revive(worker, reason="hang timeout")
        self._pump()
        results.extend(self._errored)
        self._errored.clear()
        return results

    def collect_all(self, *, poll_s: float = 0.05) -> list[BatchResult]:
        """Block until every submitted batch resolved (or the pool broke).

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
        """Reclaim every unfinished batch (stranded, queued, in flight).

        The degradation path: after the breaker trips the service takes the
        unfinished work back and executes it inline.  A worker still
        chewing on a reclaimed batch keeps its slot, and its hang clock,
        until it replies, and ``collect`` drops that reply as an unknown id.
        """
        reclaimed = [*self._stranded, *self._queue.values()]
        self._stranded.clear()
        self._queue.clear()
        for worker in self._workers:
            if worker.batch is not None:
                reclaimed.append(worker.batch)
                worker.batch = None
        self._attempts.clear()
        reclaimed.sort(key=lambda batch: batch.batch_id)
        return reclaimed

    def close(self, timeout: float | None = 5.0) -> dict[str, int]:
        """Shut every worker down (idempotent), escalating within ``timeout``.

        Each worker gets the shutdown sentinel, then ``join(timeout)``;
        survivors are terminated, re-joined, and finally killed.  Every
        slot is released.  Returns a report of how far the escalation had
        to go: ``{"joined": ..., "terminated": ..., "killed": ...}``.
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
            report[_end(worker, grace_s=stage_timeout, timeout=stage_timeout)] += 1
        return report

"""Worker pool: correct results, crash recovery, clean shutdown."""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.serve import (
    FaultPlan,
    FaultSpec,
    PoolStompedWarning,
    PredictRequest,
    ServeBatch,
    WorkerPool,
    execute_serve_batches,
)
from repro.serve.pool import BatchResult

from conftest import LAYER, make_requests


def make_batches(plan, count: int) -> list[ServeBatch]:
    requests = make_requests(count * 2)
    return [
        ServeBatch(
            plan=plan,
            weight_seed=2024,
            layer=LAYER,
            requests=tuple(requests[2 * i : 2 * i + 2]),
            batch_id=i,
        )
        for i in range(count)
    ]


class TestWorkerPool:
    def test_results_match_serial_execution(self, plan):
        batches = make_batches(plan, 4)
        expected = execute_serve_batches(batches)
        pool = WorkerPool(2)
        try:
            for batch in batches:
                pool.submit(batch)
            results = {r.batch.batch_id: r for r in pool.collect_all()}
        finally:
            pool.close()
        assert set(results) == {0, 1, 2, 3}
        for record in expected:
            result = results[record.config.batch_id]
            assert isinstance(result, BatchResult)
            for left, right in zip(record.outputs, result.outputs, strict=True):
                assert left.tobytes() == right.tobytes()

    def test_worker_crash_recovers_outstanding_batches(self, plan):
        """Killing a worker mid-stream loses nothing: the pool respawns it
        and resubmits the batches it owed."""
        batches = make_batches(plan, 6)
        pool = WorkerPool(2)
        try:
            for batch in batches:
                pool.submit(batch)
            victim = pool._workers[0].process
            victim.kill()
            victim.join(timeout=10.0)
            results = pool.collect_all()
        finally:
            pool.close()
        assert sorted(r.batch.batch_id for r in results) == list(range(6))
        # The crashed slot was respawned, not removed.
        assert len(pool) == 2

    def test_duplicate_batch_id_rejected(self, plan):
        batch = make_batches(plan, 1)[0]
        pool = WorkerPool(1)
        try:
            pool.submit(batch)
            with pytest.raises(ValueError):
                pool.submit(batch)
            pool.collect_all()
        finally:
            pool.close()

    def test_close_is_idempotent_and_blocks_submit(self, plan):
        pool = WorkerPool(1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(make_batches(plan, 1)[0])

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestPoolRobustness:
    """PR 9 hardening: structured errors, stale replies, bounded close."""

    def test_executor_error_returns_batch_error_not_crash(self, plan):
        """A batch whose cell raises answers with error="executor": the
        worker survives and keeps serving subsequent batches."""
        batches = make_batches(plan, 3)
        fault_plan = FaultPlan((FaultSpec(kind="raise", batch_id=1, times=9),))
        pool = WorkerPool(1, fault_plan=fault_plan)
        try:
            for batch in batches:
                pool.submit(batch)
            results = {r.batch.batch_id: r for r in pool.collect_all()}
        finally:
            pool.close()
        assert set(results) == {0, 1, 2}
        assert results[0].error is None and results[2].error is None
        failed = results[1]
        assert failed.outputs is None
        assert failed.error is not None and failed.error.kind == "executor"
        assert "injected executor fault" in failed.error.message
        assert pool.retried == 0  # an answered error is final, never retried

    def test_unknown_batch_id_reply_dropped_with_warning(self, plan):
        """A stale/foreign batch_id in a worker reply must not KeyError the
        dispatcher: the reply is dropped under PoolStompedWarning."""
        batch = make_batches(plan, 1)[0]
        pool = WorkerPool(1)
        try:
            pool.submit(batch)
            # Simulate ledger stomping: forget the in-flight entry so the
            # worker's reply arrives with an unknown batch_id.
            stolen = pool._workers[0].batch
            pool._workers[0].batch = None
            pool._workers[0].sent_at = None
            with pytest.warns(PoolStompedWarning, match="unknown batch_id"):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if pool.collect(timeout=0.2):
                        raise AssertionError("stale reply must be dropped")
                    if not pool._workers[0].conn.poll(0):
                        break
            # The pool still works: the dropped reply freed the slot, so
            # the stolen batch can be served for real.
            pool.submit(stolen)
            assert [r.batch.batch_id for r in pool.collect_all()] == [0]
        finally:
            pool.close()

    def test_quarantine_after_retry_budget(self, plan):
        batches = make_batches(plan, 2)
        fault_plan = FaultPlan((FaultSpec(kind="kill", batch_id=0, times=99),))
        pool = WorkerPool(
            1, fault_plan=fault_plan, max_retries=1, backoff_base_s=0.01
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolStompedWarning)
                pool.submit(batches[0])
                results = {r.batch.batch_id: r for r in pool.collect_all()}
                # The pool keeps serving after isolating the poison batch.
                pool.submit(batches[1])
                results.update(
                    (r.batch.batch_id, r) for r in pool.collect_all()
                )
        finally:
            pool.close()
        assert results[0].error is not None
        assert results[0].error.kind == "quarantined"
        assert "max_retries=1" in results[0].error.message
        assert results[1].error is None
        assert pool.quarantined == 1

    def test_close_reports_escalation_stages(self, plan):
        pool = WorkerPool(2)
        report = pool.close(timeout=5.0)
        assert report == {"joined": 2, "terminated": 0, "killed": 0}
        # Idempotent: a second close has nothing left to do.
        assert pool.close() == {"joined": 0, "terminated": 0, "killed": 0}

    def test_close_terminates_wedged_workers(self, plan):
        """A worker stuck in a hang fault cannot join: close() escalates to
        terminate within its bound instead of waiting forever."""
        batch = make_batches(plan, 1)[0]
        fault_plan = FaultPlan((FaultSpec(kind="hang", batch_id=0, times=1),))
        pool = WorkerPool(1, fault_plan=fault_plan)
        try:
            pool.submit(batch)
            time.sleep(0.3)  # let the worker enter the hang
        finally:
            began = time.monotonic()
            report = pool.close(timeout=0.5)
            elapsed = time.monotonic() - began
        assert elapsed < 10.0
        assert report["terminated"] + report["killed"] == 1


def serve_through_pool(batches, workers: int, **options) -> dict[int, BatchResult]:
    """Every batch through a fresh pool, submitted before any collect."""
    pool = WorkerPool(workers, **options)
    try:
        for batch in batches:
            pool.submit(batch)
        results = {r.batch.batch_id: r for r in pool.collect_all()}
        slots = [np.frombuffer(worker.slot, dtype=np.uint8) for worker in pool._workers]
        shared = [
            output
            for result in results.values()
            for output in result.outputs or ()
            if any(np.shares_memory(output, slot) for slot in slots)
        ]
        del slots  # a live view of a slot would keep close() from releasing it
        assert not shared, "a response is a view of a worker's slot"
    finally:
        pool.close()
    return results


def assert_identical(results: dict[int, BatchResult], batches) -> None:
    """Pool results equal the serial executor's bytes, batch by batch."""
    for record in execute_serve_batches(batches):
        result = results[record.config.batch_id]
        assert result.error is None
        for left, right in zip(record.outputs, result.outputs, strict=True):
            assert left.shape == right.shape and left.tobytes() == right.tobytes()


class TestSlots:
    """Batches travel through per-worker shared-memory slots."""

    def test_every_transformer_layer_matches_serial_bytes(self):
        """Widths 1, 3 and 64 on every layer of the full-size transformer
        plan, plus a batch holding a request wider than one column; no
        response may share memory with a slot."""
        from repro.tune import Autotuner
        from repro.tune.planned import PlannedModel

        plan = Autotuner().plan("transformer", "V100", 0.9)
        shapes = PlannedModel(plan).layers
        rng = np.random.default_rng(3)
        batches = []
        for layer in (assignment.layer for assignment in plan.assignments):
            k = shapes[layer].gemm.k
            for width in (1, 3, 64):
                requests = tuple(
                    PredictRequest.from_array(layer, rng.normal(size=k))
                    for _ in range(width)
                )
                batches.append(
                    ServeBatch(
                        plan=plan,
                        weight_seed=2024,
                        layer=layer,
                        requests=requests,
                        batch_id=len(batches),
                    )
                )
        layer = plan.assignments[0].layer
        k = shapes[layer].gemm.k
        mixed = (
            PredictRequest.from_array(layer, rng.normal(size=k)),
            PredictRequest.from_array(layer, rng.normal(size=(k, 5))),
            PredictRequest.from_array(layer, rng.normal(size=k)),
        )
        batches.append(
            ServeBatch(
                plan=plan,
                weight_seed=2024,
                layer=layer,
                requests=mixed,
                batch_id=len(batches),
            )
        )
        # The premise of the copy-out: a width-1 column of request-major
        # rows is already contiguous, so ascontiguousarray returns a view.
        rows = np.zeros((4, 8))
        assert np.shares_memory(np.ascontiguousarray(rows[1:2].T), rows)

        # Prepared before the pool forks, the runtime is inherited by the
        # workers instead of derived again in each.
        execute_serve_batches(batches[:1])
        assert_identical(serve_through_pool(batches, 2), batches)

    def test_batch_larger_than_every_slot_grows_its_worker(self, plan):
        """A batch past the first slot size replaces its idle worker with a
        power-of-two slot that fits, without counting as a failure; a small
        batch after it is served too."""
        rng = np.random.default_rng(5)
        wide = PredictRequest.from_array(LAYER, rng.normal(size=(256, 1100)))
        batches = [
            ServeBatch(
                plan=plan, weight_seed=2024, layer=LAYER, requests=(wide,), batch_id=0
            ),
            *make_batches(plan, 3)[1:],
        ]
        pool = WorkerPool(1)
        try:
            first = len(pool._workers[0].slot)
            assert 1100 * 256 * 8 > first
            results = {}
            for batch in batches:
                pool.submit(batch)
                results.update((r.batch.batch_id, r) for r in pool.collect_all())
            assert len(pool._workers[0].slot) == 1 << (1100 * 256 * 8 - 1).bit_length()
            assert pool.retried == 0 and pool._consecutive_failures == 0
        finally:
            pool.close()
        assert sorted(results) == [0, 1, 2]
        assert_identical(results, batches)

    def test_mixed_widths_under_faults_match_serial_bytes(self, plan):
        """Stress: more workers than cores, every batch submitted before any
        collect, widths from 2 to 1101 columns (one past the first slot), and
        a seeded schedule of kills, delays and corrupt replies: every batch
        comes back with the serial bytes, so no slot is written while its
        worker still owns it."""
        rng = np.random.default_rng(11)
        batches = [
            ServeBatch(
                plan=plan,
                weight_seed=2024,
                layer=LAYER,
                requests=(
                    PredictRequest.from_array(LAYER, rng.normal(size=(256, width))),
                    PredictRequest.from_array(LAYER, rng.normal(size=256)),
                ),
                batch_id=index,
            )
            for index, width in enumerate((1, 63, 3, 1100, 17, 64, 1, 33, 5, 64, 2, 9))
        ]
        fault_plan = FaultPlan.seeded(
            7, batches=len(batches), rate=0.5, kinds=("kill", "delay", "corrupt")
        )
        assert any(spec.kind == "kill" for spec in fault_plan.specs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PoolStompedWarning)
            results = serve_through_pool(
                batches,
                3,
                fault_plan=fault_plan,
                backoff_base_s=0.01,
                breaker_threshold=100,
                hang_timeout_s=30.0,
            )
        assert sorted(results) == list(range(len(batches)))
        assert_identical(results, batches)

    def test_killed_worker_resubmits_identical_bytes(self, plan):
        """A worker killed holding a batch in its slot: the batch is resent
        to the replacement's fresh slot and matches the serial bytes."""
        batches = make_batches(plan, 3)
        fault_plan = FaultPlan((FaultSpec(kind="kill", batch_id=1, times=1),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PoolStompedWarning)
            results = serve_through_pool(
                batches, 1, fault_plan=fault_plan, backoff_base_s=0.01
            )
        assert sorted(results) == [0, 1, 2]
        assert_identical(results, batches)

    def test_worker_hung_on_an_abandoned_batch_is_still_recycled(self, plan):
        """Abandoning a batch leaves its worker's slot busy and its hang
        clock running, so a hang there cannot stall the batches queued
        behind it."""
        batches = make_batches(plan, 2)
        fault_plan = FaultPlan((FaultSpec(kind="hang", batch_id=0, times=1),))
        pool = WorkerPool(1, fault_plan=fault_plan, hang_timeout_s=0.5, backoff_base_s=0.01)
        results = []
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolStompedWarning)
                pool.submit(batches[0])
                assert [b.batch_id for b in pool.abandon()] == [0]
                pool.submit(batches[1])
                deadline = time.monotonic() + 30.0
                while not results and time.monotonic() < deadline:
                    results.extend(pool.collect(timeout=0.1))
        finally:
            pool.close()
        assert [r.batch.batch_id for r in results] == [1]
        assert_identical({1: results[0]}, batches[1:])

    def test_stale_or_foreign_reply_never_reads_a_slot(self, plan, monkeypatch):
        """A reply for an abandoned batch frees the slot without reading it,
        a reply for a batch the worker never held recycles the worker, and
        the pool serves correctly afterwards."""
        import repro.serve.pool as pool_module

        reads = []
        copy_outputs = pool_module._copy_outputs

        def spy(slot, batch, m):
            reads.append(batch.batch_id)
            return copy_outputs(slot, batch, m)

        monkeypatch.setattr(pool_module, "_copy_outputs", spy)
        batches = make_batches(plan, 3)
        pool = WorkerPool(1, backoff_base_s=0.01)
        try:
            pool.submit(batches[0])
            assert [b.batch_id for b in pool.abandon()] == [0]
            # The slot still belongs to the worker: batch 1 waits for the
            # abandoned batch's reply instead of overwriting its rows.
            pool.submit(batches[1])
            assert pool._workers[0].busy == 0
            with pytest.warns(PoolStompedWarning, match="unknown batch_id"):
                results = pool.collect_all()
            assert [r.batch.batch_id for r in results] == [1]
            assert reads == [1]
            with pytest.warns(PoolStompedWarning, match="corrupt"):
                worker = pool._workers[0]
                assert pool._pop_result(worker, ("ok", 99, 256)) is None
            assert worker not in pool._workers
            pool.submit(batches[2])
            results.extend(pool.collect_all())
        finally:
            pool.close()
        assert reads == [1, 2]
        assert_identical({r.batch.batch_id: r for r in results}, batches[1:])

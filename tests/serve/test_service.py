"""Service-level guarantees: byte-identity, correctness, backpressure."""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

import repro.serve.service as service_module
from repro.eval.runner import SERVE_SALT
from repro.serve import (
    InferenceService,
    PredictRequest,
    ServiceOverloadedError,
    derive_weights,
)
from repro.tune.planned import PlannedModel

from conftest import LAYER, make_requests


class TestReplay:
    def test_serial_and_parallel_are_byte_identical(self, plan, tmp_path):
        """The acceptance criterion: the same request stream produces
        byte-identical outputs at any worker count."""
        requests = make_requests(40)
        service = InferenceService(plan)
        serial = service.replay(requests, jobs=1)
        parallel = service.replay(requests, jobs=3)
        assert len(serial) == len(parallel) == 40
        for left, right in zip(serial, parallel, strict=True):
            assert left.output.tobytes() == right.output.tobytes()

    def test_responses_follow_request_order(self, plan):
        requests = make_requests(10)
        responses = InferenceService(plan).replay(requests)
        assert [r.request_id for r in responses] == [str(i) for i in range(10)]
        assert all(r.layer == LAYER for r in responses)

    def test_single_width_matches_direct_kernel_run(self, plan):
        """At width 1 every batch is one request, so replay outputs equal a
        direct single-column run through the planned kernel bit for bit."""
        requests = make_requests(5)
        service = InferenceService(plan, width=1)
        responses = service.replay(requests)
        model = PlannedModel(plan)
        weight = derive_weights(plan, service.weight_seed)[LAYER]
        for request, response in zip(requests, responses, strict=True):
            expected = model.matmul(LAYER, weight, request.to_array())
            assert response.output.tobytes() == expected.tobytes()

    def test_warm_cache_reruns_identically(self, plan, tmp_path):
        requests = make_requests(12)
        service = InferenceService(plan)
        cold = service.replay(requests, cache_dir=tmp_path)
        warm = service.replay(requests, cache_dir=tmp_path)
        for left, right in zip(cold, warm, strict=True):
            assert left.output.tobytes() == right.output.tobytes()

    def test_served_bytes_are_pinned(self, served_plan):
        """The bytes the transformer plan serves: 48 requests of one to
        three columns over its four vector-wise layers.  Changing them
        needs a new ``SERVE_SALT``, or cached replays return stale bytes."""
        model = PlannedModel(served_plan)
        layers = [assignment.layer for assignment in served_plan.assignments]
        rng = np.random.default_rng(5)
        requests = []
        for i in range(48):
            layer = layers[i % len(layers)]
            operand = rng.normal(size=(model.layers[layer].gemm.k, 1 + i % 3))
            requests.append(PredictRequest.from_array(layer, operand, request_id=str(i)))
        responses = InferenceService(served_plan, weight_seed=1).replay(requests)
        digest = hashlib.sha256(b"".join(r.output.tobytes() for r in responses))
        assert SERVE_SALT == "serve-v2"
        assert digest.hexdigest() == (
            "400691acd0920427897b9fc847d3baff24ec75cb059043047da432d1fa687bdc"
        )

    def test_multi_layer_stream(self, transformer_plan):
        rng = np.random.default_rng(3)
        requests = [
            PredictRequest.from_array(
                ("ffn1", "attn_out")[i % 2], rng.normal(size=1024), request_id=str(i)
            )
            for i in range(12)
        ]
        responses = InferenceService(transformer_plan).replay(requests, jobs=2)
        assert [r.request_id for r in responses] == [str(i) for i in range(12)]
        assert {r.layer for r in responses} == {"ffn1", "attn_out"}


class TestBackpressure:
    def test_submit_rejects_beyond_queue_bound(self, plan):
        service = InferenceService(plan, max_pending=4)
        requests = make_requests(5)
        for request in requests[:4]:
            service.submit(request)
        with pytest.raises(ServiceOverloadedError):
            service.submit(requests[4])
        assert service.stats.rejected == 1

    def test_unknown_layer_raises(self, plan):
        service = InferenceService(plan)
        with pytest.raises(KeyError):
            service.submit(make_requests(1, layer="absent")[0])


class TestLiveService:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_all_requests_served(self, plan, workers):
        requests = make_requests(24)
        with InferenceService(plan, workers=workers, max_pending=64) as service:
            handles = [service.submit(request) for request in requests]
            responses = [handle.result(timeout=60.0) for handle in handles]
        assert [r.request_id for r in responses] == [str(i) for i in range(24)]
        assert service.stats.served == 24
        assert service.stats.rejected == 0
        assert all(r.latency_s is not None and r.latency_s >= 0.0 for r in responses)
        assert all(r.output.shape == (256, 1) for r in responses)

    def test_deadlines_are_calibrated_to_host_time(self, plan):
        service = InferenceService(plan, max_pending=64)
        modelled = {layer: w.deadline_s for layer, w in service.windows.items()}
        service.start()
        try:
            calibrated = {layer: w.deadline_s for layer, w in service.windows.items()}
            # The functional engines run on the host, orders of magnitude
            # slower than the modelled GPU times the windows start from.
            for layer in modelled:
                assert calibrated[layer] > modelled[layer]
        finally:
            service.stop()

    def test_calibration_takes_the_faster_probe(self, plan, monkeypatch):
        """One slow probe run (here the second) must not inflate the
        calibrated deadline: both probes are steady state once the weights
        are prepared at load, and the faster one is the sample."""
        calls: dict[str, int] = {}
        real = service_module.execute_serve_batches

        def second_probe_stalls(batches):
            layer = batches[0].layer
            calls[layer] = calls.get(layer, 0) + 1
            if calls[layer] == 2:
                time.sleep(0.3)
            return real(batches)

        monkeypatch.setattr(service_module, "execute_serve_batches", second_probe_stalls)
        service = InferenceService(plan, max_pending=8)
        service.start()
        try:
            assert calls == {LAYER: 2}
            assert service.windows[LAYER].deadline_s < 0.3
        finally:
            service.stop()

    @pytest.mark.parametrize("deadline_s, probes", [(None, 2), (0.123, 1)])
    def test_probes_per_layer(self, transformer_plan, monkeypatch, deadline_s, probes):
        """Calibration takes the faster of two probes per layer; an explicit
        deadline discards the timing, so one probe (which still prepares
        what the workers inherit) is all ``start`` runs."""
        calls: dict[str, int] = {}
        real = service_module.execute_serve_batches

        def counted(batches):
            for batch in batches:
                calls[batch.layer] = calls.get(batch.layer, 0) + 1
            return real(batches)

        monkeypatch.setattr(service_module, "execute_serve_batches", counted)
        service = InferenceService(transformer_plan, deadline_s=deadline_s, max_pending=8)
        service.start()
        try:
            assert len(calls) > 1
            assert calls == dict.fromkeys(service.windows, probes)
        finally:
            service.stop()

    def test_explicit_deadline_survives_calibration(self, plan):
        with InferenceService(plan, deadline_s=0.123, max_pending=8) as service:
            assert service.windows[LAYER].deadline_s == 0.123

    def test_stop_drains_accepted_requests(self, plan):
        service = InferenceService(plan, max_pending=64)
        handles = [service.submit(request) for request in make_requests(6)]
        service.start()
        service.stop()
        responses = [handle.result(timeout=1.0) for handle in handles]
        assert len(responses) == 6


class TestDeadlinesAndCancellation:
    """PR 9: request deadlines, timed-out handles, and the leak fix."""

    def test_result_timeout_cancels_and_reclaims_slot(self, plan):
        """The leak regression: a timed-out result() must cancel the queued
        request — no stale ``_waiting`` entry, queue slot reclaimed, and
        ``stats.expired`` incremented exactly once."""
        service = InferenceService(plan, max_pending=4)
        handle = service.submit(make_requests(1)[0])
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)
        assert handle.cancelled
        assert service.stats.expired == 1
        assert not service._waiting
        assert service._batcher.pending == 0
        # Second timeout on the same handle is a no-op for the counter.
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)
        assert service.stats.expired == 1
        # The reclaimed slots accept the full bound again.
        for request in make_requests(4):
            service.submit(request)
        service.start()
        service.stop()
        assert service.stats.served == 4

    def test_request_deadline_shed_before_dispatch(self, plan):
        """A queued request whose own deadline passes is answered with an
        expired error instead of being served."""
        requests = make_requests(2)
        expiring = PredictRequest.from_array(
            LAYER,
            requests[0].to_array(),
            request_id="doomed",
            deadline_s=1e-4,
        )
        service = InferenceService(plan, width=1, max_pending=8)
        doomed = service.submit(expiring)
        time.sleep(0.05)  # let the deadline lapse before the loop runs
        service.start()
        live = service.submit(requests[1])
        response = doomed.result(timeout=30.0)
        assert not response.ok
        assert "expired" in response.error
        assert response.output is None
        survivor = live.result(timeout=30.0)
        service.stop()
        assert survivor.ok
        assert service.stats.expired == 1
        assert service.stats.served == 1

    def test_deadline_validation(self, plan):
        with pytest.raises(ValueError):
            PredictRequest.from_array(LAYER, np.zeros(256), deadline_s=-1.0)

    def test_deadline_not_in_wire_dict(self, plan):
        """deadline_s is scheduling metadata: it must stay out of to_dict()
        so batch cache hashes are unchanged by deadline annotations."""
        request = PredictRequest.from_array(LAYER, np.zeros(256), deadline_s=5.0)
        bare = PredictRequest.from_array(LAYER, np.zeros(256))
        assert request.to_dict() == bare.to_dict()


class TestStopReport:
    def test_clean_stop_reports_nothing_shed(self, plan):
        service = InferenceService(plan, max_pending=64)
        handles = [service.submit(request) for request in make_requests(4)]
        service.start()
        report = service.stop()
        assert report["shed"] == 0
        assert report["clean"] is True
        assert report["pool"] is None or report["pool"]["killed"] == 0
        assert all(handle.result(timeout=1.0).ok for handle in handles)

    def test_stop_is_idempotent(self, plan):
        service = InferenceService(plan)
        service.start()
        first = service.stop()
        second = service.stop()
        assert first["clean"] is True
        assert second["shed"] == 0

    def test_dispatcher_failure_answers_every_accepted_request(self, plan, monkeypatch):
        """An exception escaping the dispatcher loop must not strand the
        accepted requests: each is answered with a ``[dispatcher]`` error,
        later submits are refused and stop() reports the unclean shed."""

        def broken_dispatch(self, requests):
            raise RuntimeError("dispatch exploded")

        monkeypatch.setattr(InferenceService, "_dispatch", broken_dispatch)
        service = InferenceService(plan, workers=0, width=4, deadline_s=60.0)
        service.start()
        # The fourth request fills the window, so the (failing) first
        # dispatch happens only once all four are queued.
        handles = [service.submit(request) for request in make_requests(4)]
        responses = [handle.result(timeout=2) for handle in handles]
        assert not any(response.ok for response in responses)
        assert all(
            response.error == "[dispatcher] RuntimeError: dispatch exploded"
            for response in responses
        )
        with pytest.raises(RuntimeError, match="dispatch exploded"):
            service.submit(make_requests(5)[4])
        report = service.stop()
        assert report["clean"] is False
        assert report["shed"] == 4

    def test_stats_dict_has_robustness_counters(self, plan):
        snapshot = InferenceService(plan).stats.to_dict()
        for key in ("retried", "quarantined", "errors", "expired", "degraded"):
            assert key in snapshot

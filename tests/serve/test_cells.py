"""The serve cell: request payload contract and the prepared hot path."""

from __future__ import annotations

import pickle
from collections import OrderedDict

import numpy as np
import pytest

import repro.kernels.base as kernel_base
import repro.serve.cells as cells
from repro.serve import (
    InferenceService,
    PredictRequest,
    ServeBatch,
    derive_weights,
    execute_serve_batches,
)
from repro.tune.planned import PlannedModel

from conftest import LAYER, make_requests


class TestPredictRequest:
    def test_from_array_copies(self):
        source = np.arange(6.0).reshape(3, 2)
        request = PredictRequest.from_array(LAYER, source)
        source[0, 0] = 99.0
        assert request.to_array()[0, 0] == 0.0
        assert (request.rows, request.width) == (3, 2)

    def test_stored_array_is_read_only(self):
        request = PredictRequest.from_array(LAYER, np.ones(4))
        assert request.to_array().dtype == np.float64
        assert request.to_array().shape == (4, 1)
        with pytest.raises(ValueError):
            request.to_array()[0, 0] = 2.0
        # Workers receive requests by pickle; the copy stays read-only.
        shipped = pickle.loads(pickle.dumps(request))
        assert not shipped.to_array().flags.writeable
        assert shipped == request

    @pytest.mark.parametrize(
        "activations",
        [np.zeros(0), np.zeros((4, 0)), np.zeros((2, 2, 2)), [[1.0, 2.0], [3.0]]],
        ids=["empty", "no-columns", "3-d", "ragged"],
    )
    def test_malformed_activations_raise(self, activations):
        with pytest.raises(ValueError):
            PredictRequest.from_array(LAYER, activations)

    def test_ragged_rows_raise_in_constructor(self):
        with pytest.raises(ValueError):
            PredictRequest(LAYER, [[1.0, 2.0], [3.0]])

    def test_equality_ignores_cosmetic_fields(self):
        left = PredictRequest.from_array(LAYER, np.ones(4), request_id="a")
        right = PredictRequest.from_array(LAYER, np.ones(4), deadline_s=1.0)
        assert left == right and hash(left) == hash(right)
        assert left != PredictRequest.from_array(LAYER, np.zeros(4))

    def test_batch_digest_is_stable(self, plan):
        """A fixed batch keeps the digest it had when requests stored
        nested tuples, so replay cache keys survive the array payload."""
        rng = np.random.default_rng(5)
        requests = tuple(
            PredictRequest.from_array(LAYER, rng.normal(size=(256, 2)))
            for _ in range(3)
        )
        batch = ServeBatch(plan=plan, weight_seed=1, layer=LAYER, requests=requests)
        assert batch.config_hash() == "010cca03ce8e0d2ecba4da677e726bce"


class TestPreparedHotPath:
    def test_outputs_match_planned_matmul(self, plan):
        """A coalesced batch is bit-identical to ``PlannedModel.matmul`` on
        the same concatenated operand."""
        requests = tuple(make_requests(3, seed=11))
        batch = ServeBatch(plan=plan, weight_seed=7, layer=LAYER, requests=requests)
        record = execute_serve_batches([batch])[0]
        weight = derive_weights(plan, 7)[LAYER]
        operand = np.concatenate([r.to_array() for r in requests], axis=1)
        expected = PlannedModel(plan).matmul(LAYER, weight, operand)
        assert np.concatenate(record.outputs, axis=1).tobytes() == expected.tobytes()

    def test_weights_prepared_once_and_never_hashed(self, plan, monkeypatch):
        """Live inline serving and replay run every batch on the operand
        prepared at load: one ``prepare`` per layer, no weight hashing."""
        monkeypatch.setattr(cells, "_RUNTIME_MEMO", OrderedDict())
        kernel_cls = type(PlannedModel(plan).kernel_for(LAYER))
        prepares: list[int] = []
        keys: list[int] = []
        real_prepare = kernel_cls.prepare
        real_key = kernel_base.prepare_cache_key

        def counting_prepare(self, weight, **kwargs):
            prepares.append(1)
            return real_prepare(self, weight, **kwargs)

        def counting_key(weight, **kwargs):
            keys.append(1)
            return real_key(weight, **kwargs)

        monkeypatch.setattr(kernel_cls, "prepare", counting_prepare)
        monkeypatch.setattr(kernel_base, "prepare_cache_key", counting_key)

        requests = make_requests(8)
        with InferenceService(plan, workers=0, width=2, max_pending=64) as service:
            handles = [service.submit(request) for request in requests]
            assert all(handle.result(timeout=60.0).ok for handle in handles)
        assert service.stats.batches >= 4  # width 2; deadlines may flush singles
        replayed = service.replay(requests, jobs=1)
        assert len(replayed) == 8
        assert len(prepares) == 1
        assert keys == []

"""Micro-batcher semantics under a fake clock, and window planning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    DEFAULT_WIDTHS,
    BatchWindow,
    InferenceService,
    MicroBatcher,
    PredictRequest,
    QueueFullError,
    ServeBatch,
    replay_batches,
    serving_windows,
)
from repro.tune import Autotuner

from conftest import LAYER, make_requests


def window(*, width=4, deadline=1.0, layer=LAYER):
    return {
        layer: BatchWindow(
            layer=layer,
            width=width,
            deadline_s=deadline,
        )
    }


class TestServingWindows:
    def test_windows_cover_linear_layers(self, plan):
        windows = serving_windows(plan)
        assert set(windows) == {LAYER}
        w = windows[LAYER]
        assert w.width in DEFAULT_WIDTHS
        assert w.deadline_s > 0.0

    def test_width_maximises_modelled_throughput(self, plan):
        """The chosen width is the throughput argmax over the candidates.

        Without a forced deadline a window's deadline is its modelled batch
        time, so ``width / deadline_s`` is its modelled throughput."""
        windows = serving_windows(plan)
        w = windows[LAYER]
        best_throughput = w.width / w.deadline_s
        # No candidate width beats it (re-derive each candidate's estimate).
        for other in DEFAULT_WIDTHS:
            forced = serving_windows(plan, width=other)[LAYER]
            assert other / forced.deadline_s <= best_throughput + 1e-12

    def test_overrides(self, plan):
        forced = serving_windows(plan, width=8, deadline_s=0.25)[LAYER]
        assert forced.width == 8
        assert forced.deadline_s == 0.25

    def test_conv_layers_are_skipped(self):
        plan = Autotuner().plan("resnet50", "V100", 0.9)
        assert serving_windows(plan) == {}

    def test_multi_layer_plan(self, transformer_plan):
        windows = serving_windows(transformer_plan)
        assert set(windows) == {"attn_qkv", "attn_out", "ffn1", "ffn2"}


class TestMicroBatcher:
    def test_full_width_releases_immediately(self):
        batcher = MicroBatcher(window(width=4, deadline=100.0))
        for request in make_requests(4):
            batcher.push(request, now=0.0)
        batches = batcher.poll(now=0.0)
        assert [len(batch) for batch in batches] == [4]
        assert batcher.pending == 0

    def test_partial_batch_waits_for_deadline(self):
        batcher = MicroBatcher(window(width=4, deadline=1.0))
        requests = make_requests(2)
        batcher.push(requests[0], now=0.0)
        batcher.push(requests[1], now=0.5)
        assert batcher.poll(now=0.99) == []
        # The *oldest* request's deadline governs: released at t=1.0 even
        # though the second request has only waited 0.5s.
        batches = batcher.poll(now=1.0)
        assert [len(batch) for batch in batches] == [2]

    def test_request_never_waits_past_deadline(self):
        """Polling at any time >= arrival + deadline always releases."""
        batcher = MicroBatcher(window(width=64, deadline=0.125))
        request = make_requests(1)[0]
        batcher.push(request, now=10.0)
        assert batcher.poll(now=10.124) == []
        assert batcher.poll(now=10.125) == [[request]]

    def test_next_deadline_tracks_oldest(self):
        batcher = MicroBatcher(window(width=8, deadline=2.0))
        assert batcher.next_deadline() is None
        requests = make_requests(2)
        batcher.push(requests[0], now=3.0)
        batcher.push(requests[1], now=4.0)
        assert batcher.next_deadline() == pytest.approx(5.0)

    def test_width_counts_columns_not_requests(self):
        batcher = MicroBatcher(window(width=4, deadline=10.0))
        wide = PredictRequest.from_array(LAYER, np.ones((256, 3)))
        narrow = make_requests(1)[0]
        batcher.push(wide, now=0.0)
        assert batcher.poll(now=0.0) == []
        batcher.push(narrow, now=0.0)
        batches = batcher.poll(now=0.0)
        assert [sum(r.width for r in batch) for batch in batches] == [4]

    def test_unknown_layer_rejected(self):
        batcher = MicroBatcher(window())
        with pytest.raises(KeyError):
            batcher.push(
                PredictRequest.from_array("absent", np.ones(256)), now=0.0
            )

    def test_backpressure_rejects_beyond_bound(self):
        batcher = MicroBatcher(window(width=4, deadline=10.0), max_pending=3)
        requests = make_requests(4)
        for request in requests[:3]:
            batcher.push(request, now=0.0)
        with pytest.raises(QueueFullError):
            batcher.push(requests[3], now=0.0)
        # The reject left the accepted queue intact.
        assert batcher.pending == 3

    def test_drain_flushes_everything(self):
        batcher = MicroBatcher(window(width=4, deadline=100.0))
        for request in make_requests(6):
            batcher.push(request, now=0.0)
        batches = batcher.drain()
        assert [len(batch) for batch in batches] == [4, 2]
        assert batcher.pending == 0


class TestReplayBatches:
    def test_deterministic_chunking(self):
        requests = make_requests(10)
        batches = replay_batches(requests, window(width=4))
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert [r.request_id for batch in batches for r in batch] == [
            str(i) for i in range(10)
        ]

    def test_same_stream_same_batches(self):
        requests = make_requests(10)
        assert replay_batches(requests, window(width=4)) == replay_batches(
            requests, window(width=4)
        )

    def test_unknown_layer_raises(self):
        with pytest.raises(KeyError):
            replay_batches(
                [PredictRequest.from_array("absent", np.ones(4))], window()
            )


def deadline_request(deadline_s, *, request_id="d0", k=4):
    return PredictRequest.from_array(
        LAYER, np.ones(k), request_id=request_id, deadline_s=deadline_s
    )


class TestCancellationAndDeadlines:
    """PR 9: identity-based withdrawal and per-request shed deadlines."""

    def test_remove_withdraws_only_the_exact_request(self):
        batcher = MicroBatcher(window(width=4, deadline=100.0))
        first, second = make_requests(2)
        batcher.push(first, now=0.0)
        batcher.push(second, now=0.0)
        assert batcher.remove(first) is True
        assert batcher.remove(first) is False  # already gone
        assert batcher.pending == second.width
        released = batcher.poll(now=200.0)
        assert released == [[second]]

    def test_remove_unknown_layer_or_unqueued_is_false(self):
        batcher = MicroBatcher(window())
        assert batcher.remove(make_requests(1)[0]) is False
        foreign = PredictRequest.from_array("absent", np.ones(4))
        assert batcher.remove(foreign) is False

    def test_shed_expired_removes_only_expired_requests(self):
        batcher = MicroBatcher(window(width=8, deadline=100.0))
        doomed = deadline_request(0.5, request_id="doomed")
        patient = deadline_request(50.0, request_id="patient")
        eternal = make_requests(1)[0]
        for request in (doomed, patient, eternal):
            batcher.push(request, now=0.0)
        assert batcher.shed_expired(now=0.4) == []
        shed = batcher.shed_expired(now=1.0)
        assert [r.request_id for r in shed] == ["doomed"]
        assert batcher.pending == patient.width + eternal.width
        # Shedding is idempotent: the doomed request is gone for good.
        assert batcher.shed_expired(now=2.0) == []

    def test_next_deadline_covers_request_deadlines(self):
        batcher = MicroBatcher(window(width=8, deadline=10.0))
        batcher.push(make_requests(1)[0], now=0.0)
        assert batcher.next_deadline() == pytest.approx(10.0)
        # A tighter per-request deadline pulls the wake-up earlier.
        batcher.push(deadline_request(2.5), now=1.0)
        assert batcher.next_deadline() == pytest.approx(3.5)

    def test_request_deadline_validation(self):
        with pytest.raises(ValueError):
            deadline_request(-0.1)


    def test_remove_by_identity_among_equal_payloads(self):
        """Requests compare equal by payload; withdrawal must still take the
        exact request, even when an earlier equal one was queued at the
        same instant."""
        batcher = MicroBatcher(window(width=4, deadline=100.0))
        first, second = (
            PredictRequest.from_array(LAYER, np.ones(4), request_id=name)
            for name in ("first", "second")
        )
        assert first == second
        batcher.push(first, now=0.0)
        batcher.push(second, now=0.0)
        assert batcher.remove(second) is True
        released = batcher.drain()
        assert len(released) == 1 and released[0][0] is first


def two_layer_windows():
    return {
        **window(width=4, deadline=1.0, layer="a"),
        **window(width=8, deadline=0.5, layer="b"),
    }


def take(fifo, width):
    batch, filled = [], 0
    while fifo and filled < width:
        request, _ = fifo.pop(0)
        batch.append(request)
        filled += request.width
    return batch


def brute_force_poll(queued, windows, now, *, drain=False):
    """The batches ``poll`` (or ``drain``) must release, from a plain FIFO
    per layer whose width is re-summed on every check."""
    batches = []
    for layer in sorted(windows):
        fifo = [entry for entry in queued if entry[0].layer == layer]
        width = windows[layer].width
        while fifo and (drain or sum(r.width for r, _ in fifo) >= width):
            batches.append(take(fifo, width))
        if fifo and now - fifo[0][1] >= windows[layer].deadline_s:
            batches.append(take(fifo, width))
    return batches


def identities(batches):
    return [[id(request) for request in batch] for batch in batches]


#: One step of a random session: push a multi-column request (some carry
#: their own deadline), advance the fake clock, poll, withdraw one of the
#: last eight requests pushed, shed expired requests, or drain.
SESSION_STEPS = st.one_of(
    st.tuples(
        st.just("push"),
        st.sampled_from(("a", "b")),
        st.integers(1, 3),
        st.none() | st.sampled_from((0.0, 0.25, 1.5)),
    ),
    st.tuples(st.just("tick"), st.sampled_from((0.0, 0.125, 0.5, 2.0))),
    st.tuples(st.just("poll")),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("shed")),
    st.tuples(st.just("drain")),
)


class TestRunningCounters:
    """The batcher's running counters against brute-force recomputation."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(SESSION_STEPS, max_size=60))
    def test_counters_stay_exact(self, steps):
        windows = two_layer_windows()
        batcher = MicroBatcher(windows, max_pending=24)
        queued: list[tuple[PredictRequest, float]] = []  # arrival order
        pushed: list[PredictRequest] = []
        now = 0.0
        for step in steps:
            kind = step[0]
            if kind == "push":
                _, layer, width, deadline_s = step
                # Equal payloads on purpose: only identity tells them apart.
                request = PredictRequest.from_array(
                    layer, np.ones((2, width)), deadline_s=deadline_s
                )
                pushed.append(request)
                if sum(r.width for r, _ in queued) + width > batcher.max_pending:
                    with pytest.raises(QueueFullError):
                        batcher.push(request, now)
                else:
                    batcher.push(request, now)
                    queued.append((request, now))
            elif kind == "tick":
                now += step[1]
            elif kind == "poll":
                full = [
                    layer
                    for layer, w in windows.items()
                    if sum(r.width for r, _ in queued if r.layer == layer) >= w.width
                ]
                expected = brute_force_poll(queued, windows, now)
                released = batcher.poll(now)
                assert identities(released) == identities(expected)
                for layer in full:
                    assert any(
                        batch[0].layer == layer
                        and sum(r.width for r in batch) >= windows[layer].width
                        for batch in released
                    )
                gone = {id(r) for batch in released for r in batch}
                queued = [entry for entry in queued if id(entry[0]) not in gone]
            elif kind == "remove":
                if not pushed:
                    continue
                request = pushed[-1 - step[1] % len(pushed)]
                was_queued = any(r is request for r, _ in queued)
                assert batcher.remove(request) is was_queued
                queued = [entry for entry in queued if entry[0] is not request]
            elif kind == "shed":
                expected_shed = [
                    r
                    for layer in sorted(windows)
                    for r, enqueued in queued
                    if r.layer == layer
                    and r.deadline_s is not None
                    and now - enqueued >= r.deadline_s
                ]
                assert identities([batcher.shed_expired(now)]) == identities(
                    [expected_shed]
                )
                gone = {id(r) for r in expected_shed}
                queued = [entry for entry in queued if id(entry[0]) not in gone]
            else:
                expected = brute_force_poll(queued, windows, now, drain=True)
                assert identities(batcher.drain()) == identities(expected)
                queued = []

            assert batcher.pending == sum(r.width for r, _ in queued)
            deadlines = [
                next(t for r, t in queued if r.layer == layer) + w.deadline_s
                for layer, w in windows.items()
                if any(r.layer == layer for r, _ in queued)
            ]
            deadlines += [t + r.deadline_s for r, t in queued if r.deadline_s is not None]
            assert batcher.next_deadline() == min(deadlines, default=None)
        expected = brute_force_poll(queued, windows, now, drain=True)
        assert identities(batcher.drain()) == identities(expected)


def count_reads(monkeypatch, cls, name="width"):
    """Replace the property ``cls.name`` by one that counts its reads."""
    original = getattr(cls, name)
    reads = [0]

    def counted(self):
        reads[0] += 1
        return original.fget(self)

    monkeypatch.setattr(cls, name, property(counted))
    return reads


class TestConstantWork:
    """Bookkeeping cost pinned by counting reads, not by timing."""

    def test_burst_reads_each_request_width_a_bounded_number_of_times(
        self, monkeypatch
    ):
        layers = ("l0", "l1", "l2", "l3")
        windows = {}
        for layer in layers:
            windows.update(window(width=64, deadline=60.0, layer=layer))
        batcher = MicroBatcher(windows, max_pending=4096)
        requests = [
            PredictRequest.from_array(layers[i % 4], np.ones(4)) for i in range(2048)
        ]
        reads = count_reads(monkeypatch, PredictRequest)
        for request in requests:
            batcher.push(request, now=0.0)
        released = batcher.poll(now=0.0)
        assert [len(batch) for batch in released] == [64] * 32
        assert batcher.pending == 0
        # Re-summing the queue on every push reads ~N^2/2 widths.
        assert reads[0] <= 4 * len(requests)

    def test_completing_a_batch_reads_its_width_once(self, plan, monkeypatch):
        service = InferenceService(plan, width=64, deadline_s=60.0, max_pending=64)
        with service:
            reads = count_reads(monkeypatch, ServeBatch)
            handles = [service.submit(request) for request in make_requests(64)]
            responses = [handle.result(timeout=60.0) for handle in handles]
        assert [response.width for response in responses] == [64] * 64
        assert service.stats.batch_widths == [64]
        assert reads[0] == 1

    def test_replay_reads_each_batch_width_once(self, plan, monkeypatch):
        service = InferenceService(plan, width=64)
        reads = count_reads(monkeypatch, ServeBatch)
        responses = service.replay(make_requests(128))
        assert [response.width for response in responses] == [64] * 128
        assert reads[0] == 2

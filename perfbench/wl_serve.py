"""``serve``: the tuned Transformer plan served live by two worker processes.

Traffic is width-1 requests spread by seed over the plan's four layers
(K = 1024 and 4096), sent by one open-loop generator thread:

* ``r20`` and ``r50``: Poisson arrivals at 20 and 50 req/s; each request's
  latency counts from its *scheduled* send time, so a stalled generator or
  service shows as latency, and the generator's own lateness is reported;
* a search for the highest open-loop rate whose p90 stays within
  :data:`LIMIT_MS` without a growing backlog, bisecting a 1.25x rate grid
  that spans 10 to 1000 req/s;
* ``burst``: 512 requests, 128 per layer, submitted at once and drained.
  Every layer fills exactly two width-64 batches, so the drain never waits
  on a coalescing deadline; its wall time is the gated ``wall_s``.

Every response is checked against ``derive_weights(plan, seed)[layer] @ x``
and an offline ``replay`` of a seeded stream must be byte-identical at one
and two jobs.
"""

from __future__ import annotations

import gc
import pickle
import time
from statistics import median

import numpy as np

from common import (
    SETUP_REPEATS,
    Tracer,
    import_profile,
    import_seconds,
    install_program_tracing,
    layer_metrics,
    peak_rss_mb,
    percentile,
)

WORKERS = 2
GPU = "V100"
SPARSITY = 0.9
#: Requests per layer kept ready; every phase draws from this pool.
POOL_PER_LAYER = 160
BURST_PER_LAYER = 128
#: Bursts per run: at least this many, and one per ``--seconds``.
MIN_BURSTS = 10
REPLAY_REQUESTS = 48
#: Open-loop phases: (rate in req/s, requests); at least ten samples lie
#: beyond each reported p90.
PHASES = {"r20": (20.0, 120), "r50": (50.0, 150)}
#: Seconds of traffic per rate-search probe (never fewer than MIN_SAMPLES).
PROBE_S = 1.0
#: p90 latency limit of the rate search.
LIMIT_MS = 250.0
#: The rate search's 1.25x grid, 20 to 1110 req/s.
RATE_GRID = tuple(20.0 * 1.25**i for i in range(19))
MIN_SAMPLES = 100
ATOL = 1e-10


class Traffic:
    """The seeded request pool and the reference outputs it must produce."""

    def __init__(self, plan, seed: int) -> None:
        from repro.serve import PredictRequest
        from repro.serve.weights import derive_weights
        from repro.tune.planned import PlannedModel

        model = PlannedModel(plan)
        self.layers = [assignment.layer for assignment in plan.assignments]
        weights = derive_weights(plan, seed)
        rng = np.random.default_rng([seed, 1])
        self.by_layer: dict[str, list] = {}
        self.reference: dict[int, np.ndarray] = {}
        for layer in self.layers:
            k = model.layers[layer].gemm.k
            columns = rng.normal(size=(k, POOL_PER_LAYER))
            expected = weights[layer] @ columns
            requests = []
            for j in range(POOL_PER_LAYER):
                request = PredictRequest.from_array(
                    layer, columns[:, j], request_id=f"{layer}/{j}"
                )
                self.reference[id(request)] = expected[:, j]
                requests.append(request)
            self.by_layer[layer] = requests
        self.pool = [request for layer in self.layers for request in self.by_layer[layer]]
        self.rng = np.random.default_rng([seed, 2])

    def mixed(self, count: int) -> list:
        """``count`` distinct requests, layers spread by seed."""
        picks = self.rng.choice(len(self.pool), size=min(count, len(self.pool)), replace=False)
        return [self.pool[i] for i in picks]

    def burst(self) -> list:
        requests = [r for layer in self.layers for r in self.by_layer[layer][:BURST_PER_LAYER]]
        order = self.rng.permutation(len(requests))
        return [requests[i] for i in order]

    def mismatches(self, request, output) -> int:
        expected = self.reference[id(request)]
        if output is None or output.shape != (expected.shape[0], 1):
            return 1
        return int(np.max(np.abs(output[:, 0] - expected)) > ATOL)


class Phase:
    """Accounting of one traffic phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.rejected = 0
        self.expired = 0
        self.mismatched = 0
        self.counters: dict[str, int] = {}
        self.latencies_ms: list[float] = []
        self.lags_ms: list[float] = []
        self.widths: list[int] = []
        self.wall_s = 0.0
        self.aborted = False

    def summary(self) -> dict:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "mismatched": self.mismatched,
            **self.counters,
            "samples": len(self.latencies_ms),
            "p50_ms": percentile(self.latencies_ms, 50),
            "p90_ms": percentile(self.latencies_ms, 90),
            "send_lag_p90_ms": percentile(self.lags_ms, 90),
            "send_lag_max_ms": max(self.lags_ms) if self.lags_ms else None,
            "mean_batch_width": float(np.mean(self.widths)) if self.widths else None,
            "wall_s": self.wall_s,
        }


class Harness:
    def __init__(self, service, traffic: Traffic) -> None:
        self.service = service
        self.traffic = traffic
        self.phase: Phase | None = None

    def _settle(self, handles, phase: Phase, before: dict) -> None:
        """Wait for every accepted request and account for it, with the
        phase's share of the service's retry and error counters."""
        for scheduled, request, pending in handles:
            try:
                response = pending.result(timeout=120.0)
            except TimeoutError:
                phase.failed += 1
                phase.expired += 1
                continue
            if not response.ok:
                phase.failed += 1
                phase.expired += response.error.startswith("[expired]")
                continue
            phase.succeeded += 1
            phase.mismatched += self.traffic.mismatches(request, response.output)
            if scheduled is not None:
                done = pending.submitted_at + response.latency_s
                phase.latencies_ms.append((done - scheduled) * 1e3)
        after = self._counters()
        phase.counters = {key: after[key] - before[key] for key in after}

    def _counters(self) -> dict:
        stats = self.service.stats
        return {
            "retried": stats.retried,
            "errors": stats.errors,
            "quarantined": stats.quarantined,
            "service_expired": stats.expired,
        }

    def open_loop(self, name: str, rate: float, count: int, *, limit_ms: float | None = None):
        """Poisson arrivals at ``rate``.  With ``limit_ms`` the phase stops
        early (``aborted``) once more than a tenth of its requests are known
        to have missed the limit, which already puts its p90 above it."""
        from repro.serve import ServiceOverloadedError

        phase = Phase(name)
        self.phase = phase
        widths_before = len(self.service.stats.batch_widths)
        before = self._counters()
        requests = self.traffic.mixed(count)
        gaps = self.traffic.rng.exponential(1.0 / rate, size=len(requests))
        handles = []
        start = time.monotonic() + 0.02
        checked = late = 0
        for request, offset in zip(requests, np.cumsum(gaps)):
            due = start + float(offset)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            now = time.monotonic()
            phase.lags_ms.append((now - due) * 1e3)
            phase.sent += 1
            try:
                handles.append((due, request, self.service.submit(request)))
            except ServiceOverloadedError:
                phase.rejected += 1
                late += 1
            if limit_ms is not None:
                while checked < len(handles) and (now - handles[checked][0]) * 1e3 > limit_ms:
                    due_at, _, pending = handles[checked]
                    response = pending.response
                    if response is None or (
                        pending.submitted_at + response.latency_s - due_at
                    ) * 1e3 > limit_ms:
                        late += 1
                    checked += 1
                if late > 0.1 * len(requests):
                    phase.aborted = True
                    break
        self._settle(handles, phase, before)
        phase.wall_s = time.monotonic() - start
        phase.widths = self.service.stats.batch_widths[widths_before:]
        return phase

    def burst(self, name: str) -> Phase:
        phase = Phase(name)
        self.phase = phase
        widths_before = len(self.service.stats.batch_widths)
        before = self._counters()
        requests = self.traffic.burst()
        began = time.monotonic()
        handles = []
        for request in requests:
            phase.sent += 1
            handles.append((None, request, self.service.submit(request)))
        self._settle(handles, phase, before)
        phase.wall_s = time.monotonic() - began
        phase.widths = self.service.stats.batch_widths[widths_before:]
        return phase

    def max_rate(self, r20: Phase, r50: Phase) -> tuple[float | None, list[dict]]:
        """Bisect :data:`RATE_GRID` for the highest rate within the limit.

        The ``r20`` and ``r50`` phases are the first two probes: 20 req/s is
        the grid's first point, and a pass at 50 req/s implies one at the
        grid's 48.8.  None when ``r20`` already misses the limit.
        """
        if not _within_limit(r20):
            return None, []
        below_fifty = max(i for i, rate in enumerate(RATE_GRID) if rate <= PHASES["r50"][0])
        low, high = (below_fifty, len(RATE_GRID)) if _within_limit(r50) else (0, below_fifty + 1)
        probes = []
        while high - low > 1:
            index = (low + high) // 2
            rate = RATE_GRID[index]
            count = max(MIN_SAMPLES, int(rate * PROBE_S))
            phase = self.open_loop(f"probe{rate:.1f}", rate, count, limit_ms=LIMIT_MS)
            passed = _within_limit(phase)
            probes.append({"rate": rate, "passed": passed, **phase.summary()})
            if passed:
                low = index
            else:
                high = index
        return RATE_GRID[low], probes


def _within_limit(phase: Phase) -> bool:
    """The rate search's criterion: nothing failed, p90 within
    :data:`LIMIT_MS`, and no growing backlog (the last third's median within
    it too)."""
    p90 = percentile(phase.latencies_ms, 90)
    tail = phase.latencies_ms[-len(phase.latencies_ms) // 3 :]
    return (
        not phase.aborted
        and phase.failed == 0
        and phase.rejected == 0
        and p90 is not None
        and p90 <= LIMIT_MS
        and bool(tail)
        and median(tail) <= LIMIT_MS
    )


def _replay_identical(service, traffic: Traffic) -> tuple[bool, int]:
    """Offline replay at one and two jobs: byte-identical and correct."""
    stream = traffic.mixed(REPLAY_REQUESTS)
    serial = service.replay(stream, jobs=1)
    parallel = service.replay(stream, jobs=2)
    identical = all(
        a.output.tobytes() == b.output.tobytes() for a, b in zip(serial, parallel, strict=True)
    )
    wrong = sum(traffic.mismatches(r, resp.output) for r, resp in zip(stream, serial, strict=True))
    return identical, wrong


def run(seed: int, seconds: int, trace: bool) -> dict:
    import_s = median(import_seconds("import repro.serve, repro.tune", SETUP_REPEATS))

    from repro.serve import InferenceService
    from repro.serve.cells import ServeBatch, execute_serve_batches
    from repro.tune import Autotuner

    tracer = Tracer()
    submitted: dict[int, float] = {}
    sent: dict[int, float] = {}
    queue_waits: list[float] = []
    rtts: list[float] = []
    recorded: dict[str, list] = {}
    harness_ref: list[Harness] = []
    if trace:
        import repro.serve.pool as pool_module
        import repro.serve.service as service_module

        install_program_tracing(tracer)

        def on_submit(args, kwargs, result, seconds_):
            submitted[id(args[1])] = result.submitted_at

        def on_pool_submit(args, kwargs, result, seconds_):
            now = time.monotonic()
            batch = args[1]
            sent[batch.batch_id] = now
            phase = harness_ref[0].phase if harness_ref and harness_ref[0].phase else None
            if phase is not None and phase.name == "r20":
                queue_waits.extend(
                    (now - submitted[id(request)]) * 1e3 for request in batch.requests
                )
            recorded.setdefault(phase.name if phase else "setup", []).append(batch)

        def on_collect(args, kwargs, result, seconds_):
            now = time.monotonic()
            for item in result:
                began = sent.pop(item.batch.batch_id, None)
                if began is not None:
                    rtts.append((now - began) * 1e3)

        tracer.install(service_module.InferenceService, "submit", "serve.submit", hook=on_submit)
        tracer.install(pool_module.WorkerPool, "submit", "serve.pool_submit", hook=on_pool_submit)
        tracer.install(pool_module.WorkerPool, "collect", "serve.pool_collect", hook=on_collect)

    began = time.perf_counter()
    plan = Autotuner().plan("transformer", GPU, SPARSITY)
    service = InferenceService(plan, workers=WORKERS, weight_seed=seed, max_pending=4096)
    service.start()
    setup_s = import_s + (time.perf_counter() - began)
    setup_layers = layer_metrics(tracer)
    deadlines = {layer: w.deadline_s * 1e3 for layer, w in service.windows.items()}

    try:
        traffic = Traffic(plan, seed)
        # The pool is the harness's own input, held for the whole run; keep
        # the collector from rescanning its million-odd tuples mid-phase.
        gc.collect()
        gc.freeze()
        harness = Harness(service, traffic)
        harness_ref.append(harness)
        identical, replay_wrong = _replay_identical(service, traffic)

        phases = [harness.open_loop(name, *PHASES[name]) for name in PHASES]
        max_rate, probes = harness.max_rate(*phases)
        bursts = [harness.burst("burst") for _ in range(max(MIN_BURSTS, seconds))]
        untraced_bursts = []
        if trace:
            tracer.restore()
            untraced_bursts = [harness.burst("burst-untraced") for _ in bursts]
            install_program_tracing(tracer)
        phases.extend(bursts)
        harness.phase = None
    finally:
        report = service.stop(timeout=30.0)
        gc.unfreeze()

    stats = service.stats
    sent_total = sum(p.sent for p in phases)
    failed_total = sum(p.failed + p.rejected for p in phases)
    mismatched = sum(p.mismatched for p in phases) + replay_wrong
    wall_s = median([b.wall_s for b in bursts])
    info = {
        "serve.p50_ms.r20": phases[0].summary()["p50_ms"],
        "serve.p90_ms.r20": phases[0].summary()["p90_ms"],
        "serve.p50_ms.r50": phases[1].summary()["p50_ms"],
        "serve.p90_ms.r50": phases[1].summary()["p90_ms"],
        "serve.max_rate_rps": max_rate,
        "serve.burst_rps": len(traffic.layers) * BURST_PER_LAYER / wall_s,
        "serve.failed_share": failed_total / sent_total,
        "phases": {p.name: p.summary() for p in phases[:2]},
        "bursts": [b.summary() for b in bursts],
        "probes": probes,
        "service_stats": {
            key: value
            for key, value in stats.to_dict().items()
            if not key.endswith("_latency_ms")
        },
        "stop_report": report,
        "replay_identical": identical,
        "deadline_ms": deadlines,
    }
    checks = {
        "responses match derive_weights @ x": mismatched == 0,
        "replay byte-identical at 1 and 2 jobs": identical,
        "no failed, rejected or expired request": failed_total == 0 and stats.expired == 0,
        "stop drained cleanly": report["clean"] and report["shed"] == 0,
    }
    result = {
        "checks": checks,
        "attempted": sent_total,
        "failed": failed_total + mismatched,
        "metrics": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": info,
    }
    if trace:
        submit_us = [
            (end - start) * 1e6 for name, start, end, _ in tracer.spans if name == "serve.submit"
        ]
        batch_bytes = {}
        for width in (1, 64):
            layer = traffic.layers[1]
            batch = ServeBatch(
                plan=plan,
                weight_seed=seed,
                layer=layer,
                requests=tuple(traffic.by_layer[layer][:width]),
            )
            batch_bytes[width] = len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
        # Forked workers keep their spans, so the kernel split is measured by
        # re-executing a sample of the recorded batch compositions here.
        sample = []
        for name in ("r20", "r50", "burst"):
            batches = recorded.get(name, [])
            step = max(1, len(batches) // 6)
            sample.extend(batches[::step][:6])
        mark = len(tracer.spans)
        execute = tracer.wrap(execute_serve_batches, "serve.execute")
        for batch in sample:
            execute([batch])
        split = tracer.summary(since=mark)
        per_batch = 1e3 / max(1, len(sample))
        layers = layer_metrics(tracer)
        layers.update(import_profile("import repro.eval"))
        for name in ("serve.derive_weights_s", "kernels.prepare_s", "serve.pool_spawn_s"):
            layers[name] = setup_layers[name]
        layers.update(
            {
                "serve.submit_us": median(submit_us),
                "serve.queue_wait_ms": median(queue_waits),
                "serve.batch_width.r20": info["phases"]["r20"]["mean_batch_width"],
                "serve.batch_width.r50": info["phases"]["r50"]["mean_batch_width"],
                "serve.batch_width.burst": bursts[0].summary()["mean_batch_width"],
                "serve.pool_rtt_ms": median(rtts),
                "serve.batch_bytes.w1": batch_bytes[1],
                "serve.batch_bytes.w64": batch_bytes[64],
                "serve.execute_ms": split["serve.execute"]["total_s"] * per_batch,
                "kernels.prepare_key_ms": split.get("kernels.prepare_cache_key", {}).get(
                    "total_s", 0.0
                ) * per_batch,
                "kernels.run_ms": split.get("kernels.run", {}).get("total_s", 0.0) * per_batch,
                "trace.overhead_s": wall_s - median([b.wall_s for b in untraced_bursts]),
            }
        )
        for layer, value in deadlines.items():
            layers[f"serve.deadline_ms.{layer}"] = value
        result["layers"] = layers
        result["tracer"] = tracer
    return result

"""``python -m repro.serve`` — serve a tuning plan over stdin or a TCP port.

The line protocol is JSONL in both transports: one request object per line
(``{"id": ..., "layer": ..., "activations": [[...], ...]}``, activations as
a ``K x n`` column block or a flat length-``K`` vector, plus an optional
``deadline_ms`` after which the request is shed instead of served) and one
response object per line (``{"id", "layer", "status", "output", "width",
"latency_ms"}`` on success; ``status: "rejected"`` with an ``error`` when
backpressure sheds the request, ``status: "error"`` for malformed input or
a structured serving failure — executor error, quarantined batch, expired
deadline).  A malformed line *never* tears down the loop or the
connection: garbage bytes, truncated JSON and unknown layers all produce
one error reply and the stream continues.

``--stdin-jsonl`` reads every request from stdin, serves them, and prints
the responses in input order.  ``--port`` runs a threaded TCP server with
the same per-line protocol; concurrent connections coalesce into shared
micro-batches, and the literal line ``/health`` (or ``{"op": "health"}``)
answers with a one-line stats snapshot (served/rejected/retried/
quarantined/expired/degraded counters, latency percentiles, worker count).
``--replay`` switches the stdin mode onto the deterministic offline path
(byte-identical at any ``--workers`` count).
"""

from __future__ import annotations

import argparse
import json
import socketserver
import sys

from ..eval.runner import SweepRunner
from ..tune.planner import Autotuner
from .cells import PredictRequest
from .service import (
    DEFAULT_WEIGHT_SEED,
    InferenceService,
    ServiceOverloadedError,
)

__all__ = ["main", "build_parser", "load_service"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve predict() requests through a tuning plan.",
    )
    workload = parser.add_mutually_exclusive_group(required=True)
    workload.add_argument(
        "--model",
        help="named workload to plan and serve (transformer/gnmt/resnet50)",
    )
    workload.add_argument(
        "--gemm",
        nargs=3,
        type=int,
        metavar=("M", "N", "K"),
        help="explicit GEMM problem to plan and serve",
    )
    parser.add_argument("--gpu", default="V100", help="target GPU architecture")
    parser.add_argument(
        "--sparsity", type=float, default=0.9, help="weight sparsity of the plan"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cache directory for the tuning plan (tuned on a miss)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = execute inline on the dispatcher)",
    )
    parser.add_argument(
        "--width",
        type=int,
        default=None,
        help="force one coalescing width (default: timing-model argmax)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="force the coalescing deadline (default: calibrated batch time)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="queue bound in coalesced columns before requests are rejected",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="worker crashes per batch before it is quarantined (default 2)",
    )
    parser.add_argument(
        "--hang-timeout-s",
        type=float,
        default=30.0,
        help="declare a silent worker dead after this long (default 30)",
    )
    parser.add_argument(
        "--weight-seed",
        type=int,
        default=DEFAULT_WEIGHT_SEED,
        help="seed of the derived pruned weights",
    )
    transport = parser.add_mutually_exclusive_group(required=True)
    transport.add_argument(
        "--stdin-jsonl",
        action="store_true",
        help="serve one JSONL request per stdin line, respond on stdout",
    )
    transport.add_argument(
        "--port", type=int, default=None, help="serve the JSONL protocol over TCP"
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="with --stdin-jsonl: deterministic offline path "
        "(byte-identical at any worker count)",
    )
    return parser


def load_service(args: argparse.Namespace) -> InferenceService:
    """Tune (or load from ``--cache-dir``) the plan and build the service."""
    tuner = Autotuner(runner=SweepRunner(cache_dir=args.cache_dir))
    if args.model is not None:
        plan = tuner.plan(args.model, args.gpu, args.sparsity)
    else:
        plan = tuner.plan_gemm(tuple(args.gemm), args.gpu, args.sparsity)
    return InferenceService(
        plan,
        weight_seed=args.weight_seed,
        workers=args.workers,
        width=args.width,
        deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
        max_pending=args.max_pending,
        max_retries=args.max_retries,
        hang_timeout_s=args.hang_timeout_s,
    )


def _parse_request(line: str, fallback_layer: str) -> PredictRequest:
    """One JSONL line as a :class:`PredictRequest` (raises ``ValueError``).

    Every malformed payload — garbage bytes, truncated JSON, non-numeric
    or ragged activations, a bad deadline — surfaces as ``ValueError`` so
    the transports can answer with one structured error line and keep the
    stream alive.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict) or "activations" not in payload:
        raise ValueError("request object needs an 'activations' field")
    import numpy as np

    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
        raise ValueError("'deadline_ms' must be a number")
    try:
        activations = np.asarray(payload["activations"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"activations are not a numeric matrix: {exc}") from exc
    return PredictRequest.from_array(
        str(payload.get("layer", fallback_layer)),
        activations,
        request_id=None if payload.get("id") is None else str(payload["id"]),
        deadline_s=None if deadline_ms is None else float(deadline_ms) / 1e3,
    )


def _error_line(line: str, status: str, error: str) -> str:
    """A JSONL error/rejection response echoing the request id if present."""
    request_id = None
    try:
        payload = json.loads(line)
        if isinstance(payload, dict):
            request_id = payload.get("id")
    except json.JSONDecodeError:
        pass
    return json.dumps({"id": request_id, "status": status, "error": error})


def _health_line(service: InferenceService) -> str:
    """One JSON line summarising the live service (the ``/health`` reply)."""
    return json.dumps(
        {
            "status": "ok",
            "op": "health",
            "workers": service.workers,
            "layers": sorted(service.windows),
            "stats": service.stats.to_dict(),
        }
    )


def _is_health_probe(line: str) -> bool:
    """True for the ``/health`` literal or a ``{"op": "health"}`` payload."""
    if line.strip() == "/health":
        return True
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(payload, dict) and payload.get("op") == "health"


def _default_layer(service: InferenceService) -> str:
    """The layer a request may omit: single-layer plans have one obvious
    target (the gemm mode); multi-layer plans require an explicit layer."""
    layers = sorted(service.windows)
    return layers[0] if len(layers) == 1 else ""


def _serve_stdin(service: InferenceService, *, replay: bool) -> int:
    """The ``--stdin-jsonl`` transport: all requests in, all responses out."""
    fallback = _default_layer(service)
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    slots: list[str | None] = [None] * len(lines)
    requests: list[tuple[int, PredictRequest]] = []
    for index, line in enumerate(lines):
        try:
            request = _parse_request(line, fallback)
            service.validate(request)
            requests.append((index, request))
        except Exception as exc:
            slots[index] = _error_line(line, "error", str(exc))
    if replay:
        responses = service.replay(
            [request for _, request in requests],
            jobs=max(1, service.workers),
        )
        for (index, _), response in zip(requests, responses, strict=True):
            slots[index] = json.dumps(response.to_dict())
    else:
        with service:
            pending = []
            for index, request in requests:
                try:
                    pending.append((index, service.submit(request)))
                except ServiceOverloadedError as exc:
                    slots[index] = _error_line(lines[index], "rejected", str(exc))
                except Exception as exc:
                    slots[index] = _error_line(lines[index], "error", str(exc))
            for index, handle in pending:
                response = handle.result()
                slots[index] = json.dumps(response.to_dict())
    for slot in slots:
        assert slot is not None
        print(slot)
    return 0


def _serve_port(service: InferenceService, port: int) -> int:
    """The ``--port`` transport: a threaded line-per-request TCP server."""
    fallback = _default_layer(service)

    class Handler(socketserver.StreamRequestHandler):
        """One connection: JSONL request lines in, response lines out.

        Any per-line failure — malformed payload, unknown layer,
        backpressure, even an unexpected serving exception — is answered
        with one structured error line; only a dead socket ends the loop.
        """

        def handle(self) -> None:
            """Serve one client: a response line per request line."""
            for raw in self.rfile:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                if _is_health_probe(line):
                    reply = _health_line(service)
                else:
                    try:
                        request = _parse_request(line, fallback)
                        response = service.predict(request)
                        reply = json.dumps(response.to_dict())
                    except ServiceOverloadedError as exc:
                        reply = _error_line(line, "rejected", str(exc))
                    except Exception as exc:
                        reply = _error_line(line, "error", str(exc))
                try:
                    self.wfile.write((reply + "\n").encode("utf-8"))
                    self.wfile.flush()
                except (BrokenPipeError, OSError):
                    return  # client went away; the server keeps serving

    class Server(socketserver.ThreadingTCPServer):
        """Threaded so concurrent connections share the micro-batcher."""

        allow_reuse_address = True
        daemon_threads = True

    with service, Server(("127.0.0.1", port), Handler) as server:
        host, bound_port = server.server_address
        print(f"serving on {host}:{bound_port}", file=sys.stderr, flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    service = load_service(args)
    if args.stdin_jsonl:
        return _serve_stdin(service, replay=args.replay)
    return _serve_port(service, args.port)

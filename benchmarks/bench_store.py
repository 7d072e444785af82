#!/usr/bin/env python
"""Wall time of the sweep cache store on the Figure 6 grid: one cold flush, one warm read.

Two gated rows, each the best of ``--repeats`` runs over the full Figure 6
grid's 405 timing records (3 models x 3 GPUs x the kernel line-up x 4
sparsities):

* **cold flush** — a fresh :class:`~repro.eval.runner.ResultCache` with all
  405 records staged commits them to an empty directory
  (:meth:`ResultCache.flush`: one pack, one ``fsync``), gated at
  :data:`FLUSH_GATE_S`;
* **warm read** — a fresh :class:`ResultCache` over that directory reads
  and decodes every record back (:meth:`ResultCache.get`, the first miss of
  the index loads the pack), gated at :data:`READ_GATE_S`.  Every record
  must equal the one written.

Both gates are absolute bounds about 3x the local medians on a 2-core
container (flush ~5 ms, read ~4 ms).  The one-file-per-record store that
packs replaced took ~300 ms to flush the same records there and ~15 ms to
read them back, so a return to a file, temp file or ``fsync`` per record
fails both gates.

The measurements land in ``BENCH_store.json`` (override with ``--output``);
CI uploads it as an artifact on every run.

Run standalone::

    python benchmarks/bench_store.py
    python benchmarks/bench_store.py --repeats 9
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.eval.runner import TIMING_TASK, ResultCache, batched_executor
from repro.eval.speedup import figure6_spec

#: Gate on the best cold-flush time, in seconds.
FLUSH_GATE_S = 0.015

#: Gate on the best warm-read time of all 405 records, in seconds.
READ_GATE_S = 0.012


def run(repeats: int) -> dict:
    configs = figure6_spec().expand()
    records = batched_executor(configs)
    digests = [config.config_hash(salt=TIMING_TASK.salt) for config in configs]
    flush_s: list[float] = []
    read_s: list[float] = []
    pack_bytes = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as cache_dir:
            cache = ResultCache(cache_dir, TIMING_TASK)
            for digest, record in zip(digests, records, strict=True):
                cache.put(digest, record)
            start = time.perf_counter()
            cache.flush()
            flush_s.append(time.perf_counter() - start)
            pack_bytes = sum(path.stat().st_size for path in cache.path.iterdir())

            warm = ResultCache(cache_dir, TIMING_TASK)
            start = time.perf_counter()
            read = [warm.get(d, c) for d, c in zip(digests, configs, strict=True)]
            read_s.append(time.perf_counter() - start)
            if read != records:
                raise AssertionError("the warm read differs from the records written")
    return {
        "benchmark": "store",
        "records": len(records),
        "pack_bytes": pack_bytes,
        "repeats": repeats,
        "cold_flush": {
            "samples_s": flush_s,
            "best_s": min(flush_s),
            "median_s": statistics.median(flush_s),
            "gate_s": FLUSH_GATE_S,
        },
        "warm_read": {
            "samples_s": read_s,
            "best_s": min(read_s),
            "median_s": statistics.median(read_s),
            "gate_s": READ_GATE_S,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=7, help="timed flush/read rounds (default 7)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_store.json"),
        help="where to write the result JSON (default BENCH_store.json)",
    )
    args = parser.parse_args(argv)

    result = run(args.repeats)
    args.output.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"Figure-6 records: {result['records']} in one {result['pack_bytes']}-byte pack")
    failures = []
    for row, label in (("cold_flush", "cold flush"), ("warm_read", "warm read")):
        timing = result[row]
        print(
            f"{label:<10}: {timing['best_s'] * 1e3:7.2f} ms  (best of {args.repeats}, "
            f"median {timing['median_s'] * 1e3:.2f} ms; gate: <= "
            f"{timing['gate_s'] * 1e3:.0f} ms)"
        )
        if timing["best_s"] > timing["gate_s"]:
            failures.append(
                f"the {label} takes {timing['best_s'] * 1e3:.2f} ms "
                f"(gate: {timing['gate_s'] * 1e3:.0f} ms)"
            )
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: the cold flush and the warm read stay under their gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())

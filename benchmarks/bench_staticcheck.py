#!/usr/bin/env python
"""Cold/warm benchmark and perf gate for the staticcheck cache layer.

Runs ``repro.staticcheck`` over the full repo tree twice against one
``--cache-dir``: the cold run pays for parsing, the effect scanner, both
fixpoints and every rule; the warm run must be served by the content-hash
keyed parse and findings caches.  The gate (``--max-warm-s``, default
2 s) fails the build when a warm unchanged-tree run regresses past the
bar — the property that makes the linter cheap enough for CI and
pre-commit hooks.

Correctness rides along: the warm report must be byte-identical to the
cold one (a cache that changes findings is worse than no cache).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.staticcheck import main as staticcheck_main  # noqa: E402


def run_once(paths: list[str], cache_dir: Path) -> tuple[int, dict, float]:
    out = io.StringIO()
    began = time.perf_counter()
    with redirect_stdout(out):
        code = staticcheck_main(
            [*paths, "--format", "json", "--cache-dir", str(cache_dir)]
        )
    elapsed = time.perf_counter() - began
    return code, json.loads(out.getvalue()), elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paths",
        nargs="*",
        default=[str(REPO / "src"), str(REPO / "tests")],
        help="trees to lint (default: the repo's src and tests)",
    )
    parser.add_argument(
        "--max-warm-s",
        type=float,
        default=2.0,
        help="fail if the best warm run exceeds this many seconds",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="warm runs to take the best of"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=REPO / "BENCH_staticcheck.json",
        help="where to write the measured numbers",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="staticcheck-bench-") as tmp:
        cache_dir = Path(tmp) / "cache"
        cold_code, cold_report, cold_s = run_once(args.paths, cache_dir)
        warm_times: list[float] = []
        for _ in range(max(1, args.repeats)):
            warm_code, warm_report, warm_s = run_once(args.paths, cache_dir)
            warm_times.append(warm_s)
            if warm_code != cold_code or warm_report != cold_report:
                print("FAIL: warm cached report differs from the cold one")
                return 1
        best_warm = min(warm_times)

    speedup = cold_s / best_warm if best_warm > 0 else float("inf")
    numbers = {
        "files_scanned": cold_report["files_scanned"],
        "findings": len(cold_report["findings"]),
        "suppressed": cold_report["suppressed"],
        "cold_s": round(cold_s, 3),
        "warm_s": round(best_warm, 3),
        "warm_runs": [round(t, 3) for t in warm_times],
        "speedup": round(speedup, 2),
        "max_warm_s": args.max_warm_s,
    }
    args.json.write_text(json.dumps(numbers, indent=2) + "\n", encoding="utf-8")
    print(
        f"staticcheck over {numbers['files_scanned']} files: "
        f"cold {cold_s:.2f}s, warm {best_warm:.2f}s "
        f"({speedup:.1f}x), gate {args.max_warm_s:.1f}s"
    )
    if cold_code not in (0, 1):
        print(f"FAIL: staticcheck exited {cold_code} (usage error)")
        return 1
    if best_warm > args.max_warm_s:
        print(
            f"FAIL: warm cached run took {best_warm:.2f}s "
            f"(> {args.max_warm_s:.1f}s); the cache layer regressed"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line entry point: ``python -m repro.eval <experiment> [options]``.

Examples
--------
Regenerate the Figure 6 speedup tables::

    python -m repro.eval figure6

Fan the sweep out over 4 worker processes and export the structured records::

    python -m repro.eval figure6 --jobs 4 --json figure6.json --csv figure6.csv

Re-run against a persistent result cache (only the delta is computed; the
hit rate is reported after the tables)::

    python -m repro.eval figure6 --cache-dir .sweep-cache

Autotune per-layer kernel plans and compare them against the best
single-kernel baseline; plans are cells like any other, so ``--cache-dir``
persists them too::

    python -m repro.eval autotune --cache-dir .sweep-cache

Run the Table 1 accuracy protocol at full scale (slower)::

    python -m repro.eval table1 --full

Inspect and maintain a cache directory (one content-addressed blob store
per cell family)::

    python -m repro.eval cache stats --cache-dir .sweep-cache
    python -m repro.eval cache gc --cache-dir .sweep-cache

List the available experiments::

    python -m repro.eval --list
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..tune import Autotuner
from .experiments import (
    ACCURACY_EXPERIMENTS,
    RUNNER_EXPERIMENTS,
    TUNABLE_EXPERIMENTS,
    available_experiments,
    resolve_experiment,
    run_experiment,
)
from .runner import SweepRunner


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        # Cache maintenance is its own CLI surface (stats / gc),
        # routed before the experiment parser so its subcommand flags never
        # collide with experiment options.
        from .runner import ACCURACY_SALT, MODEL_VERSION, PATTERN_SEARCH_SALT, SERVE_SALT
        from .store import cache_main

        # Each cell family's blob root (``<CellTask.name>-cache``) keeps its
        # own current salt; any other root (tuning plans) keeps the timing one.
        family_salts = {
            "sweep-cache": MODEL_VERSION,
            "accuracy-cache": ACCURACY_SALT,
            "pattern-search-cache": PATTERN_SEARCH_SALT,
            "serve-cache": SERVE_SALT,
        }
        return cache_main(argv[1:], family_salts=family_salts, default_salt=MODEL_VERSION)
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures on the simulated substrate.",
        epilog=(
            "Cache maintenance: python -m repro.eval cache {stats,gc} "
            "--cache-dir PATH"
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment id ({', '.join(available_experiments())})",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--full",
        action="store_true",
        help="run accuracy experiments at full scale (slower, smoother numbers)",
    )
    scale.add_argument(
        "--tiny",
        action="store_true",
        help=(
            "run accuracy experiments at smoke scale (seconds per cell, noisy "
            "metrics; for CI and cache demonstrations)"
        ),
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown instead of plain text"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep experiments (default: serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result cache directory for sweep experiments",
    )
    parser.add_argument(
        "--tune",
        action="store_true",
        help=(
            "run the autotuner alongside the experiment: figure6/headline gain "
            "an 'Autotuned plan' entry (autotune always tunes)"
        ),
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="OUT",
        help="also write the report (tables, notes, metadata, records) as JSON",
    )
    parser.add_argument(
        "--csv",
        dest="csv_out",
        default=None,
        metavar="OUT",
        help="also write the report's records as CSV",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        print("Available experiments:")
        for name in available_experiments():
            print(f"  {name}")
        return 0

    try:
        experiment = resolve_experiment(args.experiment)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    kwargs = {}
    if experiment in ACCURACY_EXPERIMENTS:
        kwargs["quick"] = not args.full
        kwargs["tiny"] = args.tiny
    elif experiment == "pattern-search":
        kwargs["quick"] = not args.full
        if args.tiny:
            print(
                "note: pattern-search has no tiny scale (--full raises its "
                "Lloyd iteration budget); --tiny ignored",
                file=sys.stderr,
            )
    elif args.full or args.tiny:
        print(
            f"note: --full/--tiny only apply to the accuracy and "
            f"pattern-search experiments "
            f"({', '.join(sorted(ACCURACY_EXPERIMENTS | {'pattern-search'}))}); "
            f"ignored for {experiment!r}",
            file=sys.stderr,
        )
    runner = None
    if experiment in RUNNER_EXPERIMENTS:
        runner = SweepRunner(jobs=args.jobs, cache_dir=args.cache_dir)
        kwargs["runner"] = runner
    elif args.jobs is not None or args.cache_dir is not None:
        print(
            f"note: --jobs/--cache-dir only apply to sweep experiments "
            f"({', '.join(sorted(RUNNER_EXPERIMENTS))}); ignored for {experiment!r}",
            file=sys.stderr,
        )

    if experiment == "autotune" or (args.tune and experiment in TUNABLE_EXPERIMENTS):
        kwargs["tuner"] = Autotuner(runner=runner)
    elif args.tune:
        print(
            f"note: --tune only applies to tunable experiments "
            f"({', '.join(sorted(TUNABLE_EXPERIMENTS))}); ignored for {experiment!r}",
            file=sys.stderr,
        )

    report = run_experiment(experiment, **kwargs)
    print(report.to_markdown() if args.markdown else report.to_text())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json(), encoding="utf-8")
        print(f"wrote JSON report to {args.json_out}")
    if args.csv_out:
        Path(args.csv_out).write_text(report.to_csv(), encoding="utf-8")
        print(f"wrote CSV records to {args.csv_out}")
    if runner is not None and args.cache_dir is not None:
        stats = runner.stats
        print(
            f"cache: {stats.hits} hits, {stats.misses} misses "
            f"({stats.hit_rate:.0%} hit rate) in {args.cache_dir}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

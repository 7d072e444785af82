"""Run ``python -m repro.eval`` with the benchmark's tracing wrappers installed.

Usage: ``python3 perfbench/cli_traced.py SPANS.json <repro.eval arguments>``,
with ``src`` on ``PYTHONPATH``.  The CLI runs exactly as under ``-m``; when
it exits, the recorded spans and counters are written to ``SPANS.json``.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

from common import Tracer, install_program_tracing


def main() -> None:
    out = Path(sys.argv[1])
    sys.argv = ["repro.eval", *sys.argv[2:]]
    tracer = Tracer()
    install_program_tracing(tracer)
    try:
        runpy.run_module("repro.eval", run_name="__main__", alter_sys=True)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    main()

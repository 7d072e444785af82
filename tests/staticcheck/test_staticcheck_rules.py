"""Per-rule fixture tests: each contract rule catches its violation and
stays quiet on the compliant twin."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.staticcheck import Finding, ProjectIndex, all_rules


def build_index(tmp_path: Path, files: dict[str, str]) -> ProjectIndex:
    """Write a mini package tree and parse it into a ProjectIndex."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    paths = [root / "__init__.py"]
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        paths.append(path)
    return ProjectIndex.from_files(paths)


def run_rule(rule_id: str, index: ProjectIndex) -> list[Finding]:
    (rule,) = [r for r in all_rules() if r.rule_id == rule_id]
    return rule.run(index)


# --------------------------------------------------------------------------- #
# SC001 — cell purity
# --------------------------------------------------------------------------- #

RUNNER_SCAFFOLD = """
class CellTask:
    def __init__(self, execute=None):
        self.execute = execute
"""


class TestCellPurity:
    def test_flags_wall_clock_reachable_from_celltask(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "runner.py": RUNNER_SCAFFOLD,
                "cells.py": """
from .runner import CellTask


def _helper():
    import time

    return time.monotonic()


def execute_cells(cells):
    return [_helper() for _ in cells]


TASK = CellTask(execute=execute_cells)
""",
            },
        )
        findings = run_rule("SC001", index)
        assert any(
            "time.monotonic" in f.message and f.symbol.endswith("_helper")
            for f in findings
        )

    def test_flags_legacy_rng_and_environ_in_executor(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "runner.py": RUNNER_SCAFFOLD
                + """

def custom_executor(cells):
    import os

    import numpy as np

    seed = os.environ["SEED"]
    return np.random.rand(len(cells)), seed


TASK = CellTask(execute=custom_executor)
""",
            },
        )
        findings = run_rule("SC001", index)
        messages = " | ".join(f.message for f in findings)
        assert "numpy.random.rand" in messages
        assert "os.environ" in messages

    def test_flags_set_iteration_into_ordered_output(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "runner.py": RUNNER_SCAFFOLD,
                "cells.py": """
from .runner import CellTask


def execute_cells(cells):
    names = list({c for c in cells})
    for item in {1, 2, 3}:
        names.append(item)
    return names


TASK = CellTask(execute=execute_cells)
""",
            },
        )
        findings = run_rule("SC001", index)
        assert len([f for f in findings if "set" in f.message]) == 2

    def test_clean_seeded_rng_and_sorted_sets_pass(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "runner.py": RUNNER_SCAFFOLD,
                "cells.py": """
from .runner import CellTask


def execute_cells(cells):
    import numpy as np

    rng = np.random.default_rng(1234)
    names = sorted({c for c in cells})
    return rng.random(len(names)), names


TASK = CellTask(execute=execute_cells)
""",
            },
        )
        assert run_rule("SC001", index) == []

    def test_unreachable_impurity_is_not_flagged(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "runner.py": RUNNER_SCAFFOLD,
                "cells.py": """
from .runner import CellTask


def execute_cells(cells):
    return list(cells)


def benchmark_wrapper():
    import time

    return time.perf_counter()


TASK = CellTask(execute=execute_cells)
""",
            },
        )
        assert run_rule("SC001", index) == []


# --------------------------------------------------------------------------- #
# SC002 — oracle parity
# --------------------------------------------------------------------------- #


class TestOracleParity:
    def test_flags_signature_drift(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "reference.py": """
def spmm_loop(values, dense, out=None):
    return out
""",
                "engine.py": """
def spmm(values, dense, *, out=None, alpha=1.0):
    return out
""",
            },
        )
        findings = run_rule("SC002", index)
        assert len(findings) == 1
        assert "signature drift" in findings[0].message
        assert "alpha" in findings[0].message

    def test_flags_missing_counterpart(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "reference.py": """
def orphan_loop(values):
    return values
""",
                "engine.py": """
def something_else(values):
    return values
""",
            },
        )
        findings = run_rule("SC002", index)
        assert len(findings) == 1
        assert "no engine counterpart" in findings[0].message

    def test_matching_pair_is_clean(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "reference.py": """
def spmm_loop(values, dense, out=None):
    return out
""",
                "engine.py": """
def spmm(values, dense, out=None):
    return out
""",
            },
        )
        assert run_rule("SC002", index) == []

    def test_pairs_with_class_method_stripping_receivers(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "reference.py": """
def csr_from_dense_loop(dense, tol=0.0):
    return dense


def csr_to_dense_loop(matrix, order="C"):
    return matrix
""",
                "formats.py": """
class CSRMatrix:
    @classmethod
    def from_dense(cls, dense, tol=0.0):
        return cls()

    def to_dense(self, order="C"):
        return None
""",
            },
        )
        assert run_rule("SC002", index) == []

    def test_method_counterpart_drift_is_flagged(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "reference.py": """
def csr_to_dense_loop(matrix, order="C"):
    return matrix
""",
                "formats.py": """
class CSRMatrix:
    def to_dense(self, order="F"):
        return None
""",
            },
        )
        findings = run_rule("SC002", index)
        assert len(findings) == 1
        assert "signature drift" in findings[0].message


# --------------------------------------------------------------------------- #
# SC003 — cache-key coverage
# --------------------------------------------------------------------------- #


class TestCacheKeyCoverage:
    def test_flags_field_missing_from_to_dict(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "cells.py": """
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    m: int
    n: int

    def to_dict(self):
        return {"m": self.m}

    def config_hash(self):
        return str(self.to_dict())
""",
            },
        )
        findings = run_rule("SC003", index)
        assert len(findings) == 1
        assert findings[0].symbol.endswith("Cell.n")

    def test_flags_cosmetic_field_in_to_dict(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "cells.py": """
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Cell:
    m: int
    label: str = field(default="", compare=False)

    def to_dict(self):
        return {"m": self.m, "label": self.label}

    def config_hash(self):
        return str(self.to_dict())
""",
            },
        )
        findings = run_rule("SC003", index)
        assert len(findings) == 1
        assert "cosmetic" in findings[0].message

    def test_flags_hand_rolled_config_hash(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "cells.py": """
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    m: int

    def to_dict(self):
        return {"m": self.m}

    def config_hash(self):
        return str(hash((self.m,)))
""",
            },
        )
        findings = run_rule("SC003", index)
        assert len(findings) == 1
        assert "to_dict" in findings[0].message

    def test_flags_missing_to_dict_entirely(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "cells.py": """
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    m: int

    def config_hash(self):
        return str(hash((self.m,)))
""",
            },
        )
        findings = run_rule("SC003", index)
        assert len(findings) == 1
        assert "without a to_dict" in findings[0].message

    def test_covered_cell_is_clean(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "cells.py": """
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass(frozen=True)
class Cell:
    m: int
    n: int
    label: str = field(default="", compare=False)
    _cache: ClassVar[dict] = {}

    def to_dict(self):
        return {"m": self.m, "n": self.n}

    def config_hash(self):
        return str(self.to_dict())
""",
            },
        )
        assert run_rule("SC003", index) == []


# --------------------------------------------------------------------------- #
# SC004 — kernel conformance
# --------------------------------------------------------------------------- #

KERNEL_BASE = """
class SpMMKernel:
    launch_arch_agnostic = False

    def prepare(self, problem):
        raise NotImplementedError

    def run(self, problem):
        raise NotImplementedError

    def build_launch_batch(self, shapes, arch):
        raise NotImplementedError
"""


class TestKernelConformance:
    def test_flags_arch_use_in_declared_agnostic_kernel(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "base.py": KERNEL_BASE,
                "kern.py": """
from .base import SpMMKernel


class LyingKernel(SpMMKernel):
    launch_arch_agnostic = True

    def prepare(self, problem):
        return problem

    def run(self, problem):
        return problem

    def build_launch_batch(self, shapes, arch):
        return [shape.size * arch.sm_count for shape in shapes]
""",
            },
        )
        findings = run_rule("SC004", index)
        assert len(findings) == 1
        assert "launch_arch_agnostic=True" in findings[0].message
        assert findings[0].symbol.endswith("build_launch_batch")

    def test_super_forwarding_is_sanctioned(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "base.py": KERNEL_BASE,
                "kern.py": """
from .base import SpMMKernel


class ForwardingKernel(SpMMKernel):
    launch_arch_agnostic = True

    def prepare(self, problem):
        return problem

    def run(self, problem):
        return problem

    def build_launch_batch(self, shapes, arch):
        return super().build_launch_batch(shapes, arch)
""",
            },
        )
        assert run_rule("SC004", index) == []

    def test_flags_abstract_kernel_in_registry(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "base.py": KERNEL_BASE,
                "registry.py": """
from .base import SpMMKernel


class GhostKernel(SpMMKernel):
    pass


class NotAKernel:
    pass


_FACTORIES = {
    "ghost": GhostKernel,
    "impostor": NotAKernel,
}
""",
            },
        )
        findings = run_rule("SC004", index)
        messages = " | ".join(f.message for f in findings)
        assert "without concrete prepare/run/build_launch_batch" in messages
        assert "does not inherit" in messages

    def test_concrete_registered_kernel_is_clean(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "base.py": KERNEL_BASE,
                "kern.py": """
from .base import SpMMKernel


class GoodKernel(SpMMKernel):
    def prepare(self, problem):
        return problem

    def run(self, problem):
        return problem

    def build_launch_batch(self, shapes, arch):
        return shapes


_FACTORIES = {"good": GoodKernel}
""",
            },
        )
        assert run_rule("SC004", index) == []


# --------------------------------------------------------------------------- #
# SC005 — reply protocol
# --------------------------------------------------------------------------- #


class TestReplyProtocol:
    def test_flags_fall_through_without_reply(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "handler.py": """
def handle(conn):
    while True:
        msg = conn.recv()
        if msg is None:
            break
        if msg == "skip":
            pass
        else:
            conn.send(msg)
""",
            },
        )
        findings = run_rule("SC005", index)
        assert any("falls through without emitting a reply" in f.message for f in findings)

    def test_flags_double_reply(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "handler.py": """
def handle(conn):
    while True:
        msg = conn.recv()
        conn.send(msg)
        conn.send("ack")
""",
            },
        )
        findings = run_rule("SC005", index)
        assert any("two or more replies" in f.message for f in findings)

    def test_flags_raise_before_reply(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "handler.py": """
def handle(conn):
    while True:
        msg = conn.recv()
        if not msg:
            raise ValueError("bad request")
        conn.send(msg)
""",
            },
        )
        findings = run_rule("SC005", index)
        assert any("raises before any reply" in f.message for f in findings)

    def test_passes_one_reply_per_path_with_error_handler(
        self, tmp_path: Path
    ) -> None:
        index = build_index(
            tmp_path,
            {
                "handler.py": """
def _process(msg):
    return msg * 2


def handle(conn):
    while True:
        msg = conn.recv()
        if msg is None:
            break
        try:
            result = _process(msg)
        except Exception as exc:
            conn.send(("err", str(exc)))
            continue
        conn.send(("ok", result))
""",
            },
        )
        assert run_rule("SC005", index) == []

    def test_helper_reply_charged_when_channel_is_passed(
        self, tmp_path: Path
    ) -> None:
        index = build_index(
            tmp_path,
            {
                "handler.py": """
def _reply(conn, payload):
    conn.send(payload)


def handle(conn):
    while True:
        msg = conn.recv()
        if msg is None:
            return
        _reply(conn, msg)
""",
            },
        )
        assert run_rule("SC005", index) == []

    def test_client_end_loop_is_not_a_handler(self, tmp_path: Path) -> None:
        # Receives on one pipe, sends on *other* pipes: the client end of
        # those pipes, not a request handler — never flagged.
        index = build_index(
            tmp_path,
            {
                "client.py": """
def collect(jobs, pipes):
    while True:
        msg = jobs.recv()
        if msg is None:
            break
        for pipe in pipes:
            pipe.send(msg)
""",
            },
        )
        assert run_rule("SC005", index) == []


# --------------------------------------------------------------------------- #
# SC006 — resource lifecycle
# --------------------------------------------------------------------------- #


class TestResourceLifecycle:
    def test_flags_thread_bound_and_never_released(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "spawn.py": """
import threading


def run(fn):
    worker = threading.Thread(target=fn)
    worker.start()
""",
            },
        )
        findings = run_rule("SC006", index)
        assert any("'worker' is never released" in f.message for f in findings)

    def test_flags_discarded_resource_construction(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "spawn.py": """
import multiprocessing


def make():
    multiprocessing.Queue()
""",
            },
        )
        findings = run_rule("SC006", index)
        assert any("constructed and discarded" in f.message for f in findings)

    def test_flags_self_attr_without_class_release(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "owner.py": """
import multiprocessing


class Owner:
    def start(self):
        self.queue = multiprocessing.Queue()
""",
            },
        )
        findings = run_rule("SC006", index)
        assert any(
            "stored on self.queue but no method of Owner releases it" in f.message
            for f in findings
        )

    def test_flags_shared_memory_never_released(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "slots.py": """
import mmap


def fill(data):
    slot = mmap.mmap(-1, len(data))
    slot.write(data)
""",
            },
        )
        findings = run_rule("SC006", index)
        assert any("'slot' is never released" in f.message for f in findings)

    def test_flags_bare_join(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "stop.py": """
def stop(worker):
    worker.join()
""",
            },
        )
        findings = run_rule("SC006", index)
        assert any("bare worker.join()" in f.message for f in findings)

    def test_passes_finally_release_and_bounded_join(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "clean.py": """
def read(path):
    fh = open(path)
    try:
        return fh.read()
    finally:
        fh.close()


def stop(worker):
    worker.join(timeout=5.0)
    if worker.is_alive():
        worker.terminate()
""",
            },
        )
        assert run_rule("SC006", index) == []

    def test_passes_class_owned_resource_with_release_method(
        self, tmp_path: Path
    ) -> None:
        index = build_index(
            tmp_path,
            {
                "owner.py": """
import threading


class Owner:
    def start(self):
        self.worker = threading.Thread(target=self._run)
        self.worker.start()

    def _run(self):
        pass

    def close(self):
        self.worker.join(timeout=2.0)
""",
            },
        )
        assert run_rule("SC006", index) == []

    def test_passes_handoff_by_return(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "factory.py": """
import multiprocessing


def make_queue():
    q = multiprocessing.Queue()
    return q
""",
            },
        )
        assert run_rule("SC006", index) == []


# --------------------------------------------------------------------------- #
# SC007 — lock discipline
# --------------------------------------------------------------------------- #


class TestLockDiscipline:
    def test_flags_blocking_read_under_lock(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "locked.py": """
import threading

_LOCK = threading.Lock()


def drain(queue):
    with _LOCK:
        return queue.get()
""",
            },
        )
        findings = run_rule("SC007", index)
        assert any(
            "blocking operation" in f.message and "_LOCK" in f.message
            for f in findings
        )

    def test_flags_transitively_blocking_callee_under_lock(
        self, tmp_path: Path
    ) -> None:
        index = build_index(
            tmp_path,
            {
                "locked.py": """
import threading

_LOCK = threading.Lock()


def _slow(queue):
    return queue.get()


def locked_drain(queue):
    with _LOCK:
        return _slow(queue)
""",
            },
        )
        findings = run_rule("SC007", index)
        assert any("transitively" in f.message for f in findings)

    def test_flags_lock_order_cycle(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "order.py": """
import threading

_A = threading.Lock()
_B = threading.Lock()


def forward():
    with _A:
        with _B:
            pass


def backward():
    with _B:
        with _A:
            pass
""",
            },
        )
        findings = run_rule("SC007", index)
        assert any("lock-order cycle" in f.message for f in findings)

    def test_passes_consistent_order_and_outside_blocking(
        self, tmp_path: Path
    ) -> None:
        index = build_index(
            tmp_path,
            {
                "order.py": """
import threading

_A = threading.Lock()
_B = threading.Lock()


def one():
    with _A:
        with _B:
            pass


def two():
    with _A:
        with _B:
            pass


def drain(queue):
    with _A:
        count = 1
    del count
    return queue.get()
""",
            },
        )
        assert run_rule("SC007", index) == []

    def test_passes_condition_wait_on_held_lock(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "cond.py": """
import threading

_COND = threading.Condition()


def wait_for_work():
    with _COND:
        _COND.wait()
""",
            },
        )
        assert run_rule("SC007", index) == []


# --------------------------------------------------------------------------- #
# The real tree
# --------------------------------------------------------------------------- #


def test_repo_tree_is_clean(capsys) -> None:
    """Snapshot: the full repo (src + tests) has an empty finding set.

    Runs the real CLI so inline suppressions (which all carry reasons, or
    SC008 would fire) are honoured, exactly as CI runs it.
    """
    repo = Path(__file__).resolve().parents[2]
    src = repo / "src"
    if not src.is_dir():
        pytest.skip("src/ layout not available (installed package)")
    from repro.staticcheck import main

    assert main([str(src), str(repo / "tests"), "--format", "json"]) == 0, (
        "staticcheck regressed on the repo tree:\n" + capsys.readouterr().out
    )
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []
    assert report["parse_errors"] == []

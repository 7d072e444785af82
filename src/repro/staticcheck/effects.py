"""Per-function effect extraction: which observable effects one body has.

This module is the *intraprocedural* half of the dataflow layer
(:mod:`repro.staticcheck.flow` is the interprocedural half).  One
:class:`EffectScanner` pass over a function body produces a list of
:class:`EffectSite` records — each pins one effect kind to a source
location with a human-readable detail string.  The scanner records only
the kinds a contract rule reads:

* the four *purity* kinds SC001 scans for (wall-clock reads, unseeded
  RNG, environment reads, set-order-dependent outputs),
* process/thread spawning (SC007),
* lock acquisition, resolved to project-wide lock identities by a
  caller-supplied resolver (SC007),
* potentially blocking primitives — queue ``put``/``get``, pipe
  ``send``/``recv``, ``join``, ``wait``, ``sleep``, ``result``... (SC005
  and SC007),
* reply emission: pipe/socket sends and ``wfile`` writes, the ops the
  SC005 reply-protocol rule counts.

Everything here is purely syntactic; receiver types are unknown, so the
classifiers use argument-shape heuristics (a zero-argument ``.get()`` is
a queue read, a two-argument one is a mapping lookup) documented in
``docs/staticcheck.md``.
"""

from __future__ import annotations

import ast
from collections.abc import Callable
from dataclasses import dataclass

from .project import FunctionInfo, ModuleInfo, dotted_chain

__all__ = [
    "BLOCKING",
    "ENVIRON",
    "LOCK_ACQUIRE",
    "PURITY_KINDS",
    "REPLY",
    "SET_ORDER",
    "SPAWN",
    "UNSEEDED_RNG",
    "WALL_CLOCK",
    "EffectSite",
    "EffectScanner",
    "FunctionSummary",
    "blocking_detail",
    "is_bare_join",
    "is_lock_constructor",
    "receive_receiver",
    "reply_receiver",
    "resource_kind",
    "spawn_detail",
]

# ----------------------------- effect kinds ----------------------------- #
WALL_CLOCK = "wall-clock"
UNSEEDED_RNG = "unseeded-rng"
ENVIRON = "environ"
SET_ORDER = "set-order"
SPAWN = "spawn"
LOCK_ACQUIRE = "lock-acquire"
BLOCKING = "blocking"
REPLY = "reply"

#: The nondeterminism kinds the SC001 purity rule reports.
PURITY_KINDS = frozenset({WALL_CLOCK, UNSEEDED_RNG, ENVIRON, SET_ORDER})

#: ``numpy.random`` attributes that are deterministic-by-construction entry
#: points (explicitly seeded generators), not legacy global-state APIs.
_SEEDED_RNG_APIS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Builtins that construct sets, and builtins that materialise an iterable
#: into an *ordered* output (the combination is the set-order hazard).
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_ORDERING_CONSUMERS = frozenset({"list", "tuple", "enumerate"})

#: Trailing components of process/thread/executor constructors.
_SPAWN_CTORS = frozenset(
    {"Process", "Thread", "Timer", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)

#: Trailing components of lock constructors (threading/multiprocessing).
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Methods that receive one message from a channel (handler-loop anchors).
_RECEIVE_METHODS = frozenset({"recv", "recv_bytes", "readline"})

#: Methods that emit one message on a channel.
_SEND_METHODS = frozenset({"send", "sendall", "send_bytes"})


@dataclass(frozen=True, order=True)
class EffectSite:
    """One effect occurrence at one source location."""

    kind: str
    line: int
    col: int
    #: Human-readable fragment: for purity kinds the exact SC001 message;
    #: for lock kinds the resolved lock identity; otherwise a short
    #: description of the operation.
    detail: str


@dataclass(frozen=True)
class FunctionSummary:
    """The compositional summary of one function, after fixpoint.

    ``sites``/``direct`` describe the body itself; ``effects`` and
    ``acquires`` additionally fold in every analyzed callee (transitively,
    through call-graph cycles); ``reply_counts`` is the set of possible
    reply-emission counts of one complete call, capped at 2 (= "two or
    more").
    """

    qualname: str
    sites: tuple[EffectSite, ...]
    direct: frozenset[str]
    effects: frozenset[str]
    reply_counts: frozenset[int]
    acquires: frozenset[str]


# ----------------------------- classifiers ----------------------------- #
def _receiver_chain(node: ast.Call) -> str | None:
    """Dotted chain of an attribute call's receiver (``a.b`` for ``a.b.c()``)."""
    if not isinstance(node.func, ast.Attribute):
        return None
    return dotted_chain(node.func.value)


def _last_component(chain: str) -> str:
    return chain.rsplit(".", 1)[-1]


def is_lock_constructor(module: ModuleInfo, node: ast.Call) -> bool:
    """Whether the call constructs a threading/multiprocessing lock object."""
    chain = dotted_chain(node.func)
    if chain is None:
        return False
    return _last_component(module.resolve(chain)) in _LOCK_CTORS


def spawn_detail(module: ModuleInfo, node: ast.Call) -> str | None:
    """A description when the call spawns a process, thread or executor."""
    chain = dotted_chain(node.func)
    if chain is None:
        return None
    resolved = module.resolve(chain)
    last = _last_component(resolved)
    if last in _SPAWN_CTORS:
        return f"{chain}(...)"
    if resolved.startswith("subprocess.") or resolved == "os.fork":
        return f"{resolved}(...)"
    return None


def resource_kind(module: ModuleInfo, node: ast.Call) -> str | None:
    """The resource class a call constructs, for the lifecycle rule.

    Returns ``"process"``, ``"thread"``, ``"executor"``, ``"queue"``,
    ``"pipe"``, ``"socket"``, ``"shared memory"`` or ``"file"`` — or
    ``None`` for calls that do not create a releasable resource.
    """
    chain = dotted_chain(node.func)
    if chain is None:
        return None
    resolved = module.resolve(chain)
    last = _last_component(resolved)
    if last in ("Process", "Timer"):
        return "process"
    if last == "Thread":
        return "thread"
    if last in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
        return "executor"
    if last in ("Queue", "SimpleQueue", "JoinableQueue"):
        return "queue"
    if last == "Pipe":
        return "pipe"
    if resolved in ("socket.socket", "socket.create_connection"):
        return "socket"
    if resolved == "mmap.mmap":
        return "shared memory"
    if resolved == "open" or (isinstance(node.func, ast.Attribute) and last == "open"):
        return "file"
    return None


def is_bare_join(node: ast.Call) -> bool:
    """A ``x.join()`` with no timeout: the unbounded-shutdown hazard."""
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "join"
        and not node.args
        and not node.keywords
        and not isinstance(node.func.value, ast.Constant)
    )


def _kwarg_names(node: ast.Call) -> set[str]:
    return {kw.arg for kw in node.keywords if kw.arg is not None}


def blocking_detail(module: ModuleInfo, node: ast.Call) -> str | None:
    """A description when the call is a potentially blocking primitive.

    Receiver types are unknown, so the queue heuristics go by argument
    shape: ``.get()`` with no positional argument is a queue read (a
    mapping ``get`` needs a key), ``.put(item)`` with exactly one is a
    queue write (the repo's cache ``put(config, record)`` takes two).
    """
    chain = dotted_chain(node.func)
    resolved = module.resolve(chain) if chain is not None else None
    if resolved == "time.sleep" or resolved == "select.select":
        return f"{resolved}(...)"
    if resolved is not None and resolved.endswith("connection.wait"):
        return f"{resolved}(...)"
    if not isinstance(node.func, ast.Attribute):
        return None
    attr = node.func.attr
    receiver = _receiver_chain(node)
    shown = f"{receiver}.{attr}" if receiver is not None else attr
    if isinstance(node.func.value, ast.Constant):
        return None  # "sep".join(...) and friends
    if attr == "join":
        if not node.args and not node.keywords:
            return f"{shown}() without a timeout"
        if "timeout" in _kwarg_names(node):
            return f"{shown}(timeout=...)"
        if len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
            return f"{shown}(...)"
        return None
    if attr == "get" and not node.args and _kwarg_names(node) <= {"timeout", "block"}:
        return f"{shown}() queue read"
    if attr == "put" and len(node.args) == 1 and _kwarg_names(node) <= {"timeout", "block"}:
        return f"{shown}(...) queue write"
    if attr in _RECEIVE_METHODS or attr == "accept":
        return f"{shown}()"
    if attr in _SEND_METHODS:
        return f"{shown}(...) channel write"
    if attr == "poll" and (node.args or node.keywords):
        return f"{shown}(timeout)"
    if attr in ("wait", "result"):
        return f"{shown}(...)"
    return None


def reply_receiver(node: ast.Call) -> str | None:
    """The receiver chain when the call emits one reply on a channel.

    Reply operations are pipe/socket ``send``/``sendall``/``send_bytes``
    and ``.write`` on a chain containing a ``wfile`` component (the
    ``socketserver`` stream-handler convention).
    """
    if not isinstance(node.func, ast.Attribute):
        return None
    receiver = _receiver_chain(node)
    if node.func.attr in _SEND_METHODS:
        return receiver if receiver is not None else "<channel>"
    if node.func.attr == "write" and receiver is not None:
        if "wfile" in receiver.split("."):
            return receiver
    return None


def receive_receiver(node: ast.Call) -> str | None:
    """The receiver chain when the call receives one message from a channel."""
    if not isinstance(node.func, ast.Attribute):
        return None
    if node.func.attr in _RECEIVE_METHODS and not node.args:
        return _receiver_chain(node)
    return None


def _is_set_display(module: ModuleInfo, node: ast.expr) -> bool:
    """Whether the expression is syntactically a set: a ``{...}`` display, a
    set comprehension, or a direct ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = dotted_chain(node.func)
        if chain is not None and module.resolve(chain) in _SET_CONSTRUCTORS:
            return True
    return False


class EffectScanner(ast.NodeVisitor):
    """Collects the direct :class:`EffectSite` list of one function body.

    ``resolve_lock`` maps a dotted receiver chain (``self._condition``,
    ``_CACHE_LOCK``) to a project-wide lock identity, or ``None`` when the
    chain is not a known lock; function-local lock constructions are
    tracked by the scanner itself.
    """

    def __init__(
        self,
        info: FunctionInfo,
        resolve_lock: Callable[[str], str | None],
    ) -> None:
        self.info = info
        self.module = info.module
        self._resolve_lock = resolve_lock
        self._local_locks: dict[str, str] = {}
        self.sites: list[EffectSite] = []

    def scan(self) -> list[EffectSite]:
        """Run the pass and return the collected sites (sorted)."""
        for stmt in self.info.node.body:
            self.visit(stmt)
        return sorted(self.sites)

    def _add(self, node: ast.AST, kind: str, detail: str) -> None:
        line = getattr(node, "lineno", self.info.node.lineno)
        col = getattr(node, "col_offset", 0)
        self.sites.append(EffectSite(kind=kind, line=line, col=col, detail=detail))

    def _lock_identity(self, chain: str | None) -> str | None:
        if chain is None:
            return None
        local = self._local_locks.get(chain)
        if local is not None:
            return local
        return self._resolve_lock(chain)

    # ------------------------------ calls ------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_chain(node.func)
        if chain is not None:
            self._check_purity_call(node, self.module.resolve(chain))
        spawn = spawn_detail(self.module, node)
        if spawn is not None:
            self._add(node, SPAWN, f"spawns {spawn}")
        self._check_lock_call(node)
        blocking = blocking_detail(self.module, node)
        if blocking is not None:
            self._add(node, BLOCKING, blocking)
        reply = reply_receiver(node)
        if reply is not None:
            self._add(node, REPLY, f"reply via {reply}")
        self.generic_visit(node)

    def _check_lock_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute) or node.func.attr != "acquire":
            return
        identity = self._lock_identity(_receiver_chain(node))
        if identity is not None:
            self._add(node, LOCK_ACQUIRE, identity)

    def _check_purity_call(self, node: ast.Call, resolved: str) -> None:
        """The SC001 nondeterminism sources; details are the rule messages."""
        if resolved == "time" or resolved.startswith("time."):
            self._add(
                node,
                WALL_CLOCK,
                f"calls {resolved}: wall-clock reads make cell results "
                "irreproducible",
            )
        elif resolved == "random" or resolved.startswith("random."):
            self._add(
                node,
                UNSEEDED_RNG,
                f"calls {resolved}: the global random module is unseeded "
                "process state; use a seeded np.random.default_rng",
            )
        elif resolved.startswith("numpy.random."):
            api = resolved.split(".", 2)[2].partition(".")[0]
            if api not in _SEEDED_RNG_APIS:
                self._add(
                    node,
                    UNSEEDED_RNG,
                    f"calls {resolved}: legacy numpy global-state RNG; use a "
                    "seeded np.random.default_rng",
                )
        elif resolved in ("os.getenv", "os.environ.get"):
            self._add(
                node,
                ENVIRON,
                f"calls {resolved}: environment reads differ between hosts "
                "and worker processes",
            )
        if resolved in _ORDERING_CONSUMERS and node.args:
            if _is_set_display(self.module, node.args[0]):
                self._add(
                    node,
                    SET_ORDER,
                    f"{resolved}() over a set materialises salted set order "
                    "into an ordered output; wrap the set in sorted(...)",
                )

    # ------------------------ environment reads ------------------------ #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = dotted_chain(node)
        if chain is not None and self.module.resolve(chain) == "os.environ":
            self._add(
                node,
                ENVIRON,
                "reads os.environ: environment state differs between hosts "
                "and worker processes",
            )
            return  # the nested Name is part of the same chain
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if self.module.resolve(node.id) == "os.environ":
                self._add(
                    node,
                    ENVIRON,
                    "reads os.environ: environment state differs between "
                    "hosts and worker processes",
                )
        self.generic_visit(node)

    # ----------------------- locks (with / local) ----------------------- #
    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call) and is_lock_constructor(
            self.module, node.value
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._local_locks[target.id] = (
                        f"{self.info.qualname}.<{target.id}>"
                    )
        self.generic_visit(node)

    def _visit_with_items(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            identity = self._lock_identity(dotted_chain(item.context_expr))
            if identity is not None:
                self._add(item.context_expr, LOCK_ACQUIRE, identity)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with_items(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with_items(node)

    # ------------------------- set iteration --------------------------- #
    def _check_iteration(self, iterable: ast.expr) -> None:
        if _is_set_display(self.module, iterable):
            self._add(
                iterable,
                SET_ORDER,
                "iterates a set into an ordered output; set order is salted "
                "per process — wrap it in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(
        self, node: ast.ListComp | ast.GeneratorExp | ast.DictComp | ast.SetComp
    ) -> None:
        for comp in node.generators:
            self._check_iteration(comp.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

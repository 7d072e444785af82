"""Shared dataflow layer: call graph, effect summaries, reply-path evaluation.

Every interprocedural rule builds on the same three artifacts, computed once
per :class:`~repro.staticcheck.project.ProjectIndex` and memoised:

* a **call graph** over every analyzed function, using one resolution
  semantics (module-level names through import tables, ``self.``/``cls.``
  methods through the ancestor walk, class constructors into
  ``__init__``/``__post_init__``, and bounded attribute-call fan-out over
  ``methods_by_name`` for receivers that cannot be typed statically);
* per-function **effect summaries** (:class:`~repro.staticcheck.effects.\
FunctionSummary`): the direct :class:`EffectSite` list from one
  :class:`~repro.staticcheck.effects.EffectScanner` pass, plus the
  transitive effect kinds and acquired-lock identities folded bottom-up
  through the call graph with worklist fixpoint iteration (the lattice is
  finite set union, so cycles converge);
* **reply counts**: for every function that can transitively emit a reply,
  the set of possible emission counts per call (capped at 2 = "two or
  more"), computed by an abstract path evaluator that tracks
  ``fall``/``break``/``continue``/``return``/``raise`` outcomes through
  ``if``/loops/``try``/``finally`` — the engine behind the SC005
  exactly-one-reply rule.

The layer is compositional in the RacerD sense: each function is summarised
once, callers consume summaries instead of re-walking callee bodies, and a
rule is an (index, summaries) -> findings function.  ``docs/staticcheck.md``
documents the semantics and how to write a new rule against this module.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple
from weakref import WeakKeyDictionary

from . import effects
from .effects import EffectScanner, EffectSite, FunctionSummary
from .project import FunctionInfo, ModuleInfo, ProjectIndex, dotted_chain

__all__ = [
    "FALL",
    "BREAK",
    "CONTINUE",
    "RETURN",
    "RAISE",
    "CallGraph",
    "FlowAnalysis",
    "LockRegistry",
    "Outcome",
    "ReplyEvaluator",
    "ReplyVal",
    "ZERO",
    "reachable",
    "resolve_call_targets",
]

#: Attribute-call fan-out: calls like ``kernel.estimate(...)`` cannot be
#: resolved to a receiver type statically, so they conservatively reach every
#: analyzed class method of that name — unless the name is so generic that it
#: is defined by more than this many classes (a dict-like ``get`` would drag
#: in the whole tree).
_FANOUT_CAP = 16


# ----------------------------- call graph ----------------------------- #
def resolve_call_targets(
    index: ProjectIndex, info: FunctionInfo, func: ast.expr
) -> list[FunctionInfo]:
    """Analyzed functions one call expression can reach (deduplicated)."""
    chain = dotted_chain(func)
    if chain is None:
        return []
    targets: list[FunctionInfo] = []
    head, _, rest = chain.partition(".")
    if head in ("self", "cls") and info.cls is not None and rest:
        method_name, _, deeper = rest.partition(".")
        target = index.resolve_method(info.cls, method_name)
        if target is not None and not deeper:
            return [target]
        # ``self.attr.method(...)``: the attribute's type is unknown, so
        # fan out over analyzed methods named like the final component.
        if deeper and isinstance(func, ast.Attribute):
            candidates = index.methods_by_name.get(func.attr, [])
            if 0 < len(candidates) <= _FANOUT_CAP:
                return list(candidates)
        return [target] if target is not None else []
    module = info.module
    resolved = module.resolve(chain)
    direct = index.functions.get(resolved)
    if direct is not None:
        return [direct]
    # A class constructor is an edge into ``__init__`` / ``__post_init__``.
    cls = index.resolve_class(module, chain)
    if cls is not None:
        for name in ("__init__", "__post_init__"):
            method = index.resolve_method(cls, name)
            if method is not None:
                targets.append(method)
        return targets
    # Unresolved attribute call: fan out over analyzed methods of that
    # name (receiver types are unknown statically).
    if isinstance(func, ast.Attribute):
        candidates = index.methods_by_name.get(func.attr, [])
        if 0 < len(candidates) <= _FANOUT_CAP:
            targets.extend(candidates)
    return targets


def _function_call_targets(
    index: ProjectIndex, info: FunctionInfo
) -> list[FunctionInfo]:
    """Every call target out of one function body, deduplicated in order."""
    seen: dict[str, FunctionInfo] = {}
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            for target in resolve_call_targets(index, info, node.func):
                seen.setdefault(target.qualname, target)
    return list(seen.values())


@dataclass
class CallGraph:
    """Module-resolved call edges over every analyzed function."""

    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def callees(self, qualname: str) -> tuple[str, ...]:
        """Qualnames this function calls (empty for unknown functions)."""
        return self.edges.get(qualname, ())

    @classmethod
    def build(cls, index: ProjectIndex) -> CallGraph:
        graph = cls()
        for info in index.iter_functions():
            graph.edges[info.qualname] = tuple(
                target.qualname for target in _function_call_targets(index, info)
            )
        return graph


def reachable(
    graph: CallGraph,
    roots: Iterable[tuple[FunctionInfo, str]],
) -> dict[str, str]:
    """Qualname -> root provenance for every function reachable from roots."""
    provenance: dict[str, str] = {}
    queue: list[str] = []
    for info, origin in roots:
        if info.qualname not in provenance:
            provenance[info.qualname] = origin
            queue.append(info.qualname)
    while queue:
        qualname = queue.pop(0)
        origin = provenance[qualname]
        for callee in graph.callees(qualname):
            if callee not in provenance:
                provenance[callee] = origin
                queue.append(callee)
    return provenance


# ----------------------------- lock identity ----------------------------- #
class LockRegistry:
    """Project-wide lock identities: where every lock object is defined.

    * A module-level ``X = threading.Lock()`` has identity ``module.X``.
    * An instance attribute ``self.X = threading.Condition()`` assigned in
      any method has identity ``module.Class.X`` (the *defining* class, so
      subclasses share the parent's identity through the ancestor walk).
    * Function-local locks are tracked by the
      :class:`~repro.staticcheck.effects.EffectScanner` itself.
    """

    def __init__(self) -> None:
        self.module_locks: set[str] = set()
        #: class qualname -> attribute names holding locks.
        self.class_locks: dict[str, set[str]] = {}

    @classmethod
    def build(cls, index: ProjectIndex) -> LockRegistry:
        registry = cls()
        for module in index.all_modules:
            for stmt in module.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                    and effects.is_lock_constructor(module, stmt.value)
                ):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            registry.module_locks.add(f"{module.name}.{target.id}")
        for class_info in index.classes.values():
            attrs: set[str] = set()
            for method in class_info.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not isinstance(node.value, ast.Call):
                        continue
                    if not effects.is_lock_constructor(class_info.module, node.value):
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
            if attrs:
                registry.class_locks[class_info.qualname] = attrs
        return registry

    def resolve(
        self, index: ProjectIndex, info: FunctionInfo, chain: str
    ) -> str | None:
        """The lock identity a dotted chain denotes inside ``info``, if any."""
        head, _, rest = chain.partition(".")
        if head in ("self", "cls") and info.cls is not None:
            if rest and "." not in rest:
                for ancestor in index.ancestors(info.cls):
                    if rest in self.class_locks.get(ancestor.qualname, set()):
                        return f"{ancestor.qualname}.{rest}"
            return None
        resolved = info.module.resolve(chain)
        if resolved in self.module_locks:
            return resolved
        # A bare name for a lock defined in this same module resolves to
        # nothing through the import table; qualify it explicitly.
        if info.module.name:
            qualified = f"{info.module.name}.{chain}"
            if qualified in self.module_locks:
                return qualified
        return None


# --------------------------- reply evaluation --------------------------- #
FALL = "fall"
BREAK = "break"
CONTINUE = "continue"
RETURN = "return"
RAISE = "raise"


class ReplyVal(NamedTuple):
    """Replies emitted so far on one abstract path (count capped at 2)."""

    count: int
    #: Line of the first reply on the path (``None`` while count is 0).
    first: int | None
    #: Line of the reply that pushed the count to >= 2.
    second: int | None


ZERO = ReplyVal(0, None, None)


def _combine(a: ReplyVal, b: ReplyVal) -> ReplyVal:
    count = min(2, a.count + b.count)
    first = a.first if a.count > 0 else b.first
    if a.count >= 2:
        second = a.second
    elif a.count == 1 and b.count >= 1:
        second = b.first
    else:
        second = b.second
    return ReplyVal(count, first, second)


def _cross(left: set[ReplyVal], right: set[ReplyVal]) -> set[ReplyVal]:
    return {_combine(a, b) for a in left for b in right}


class Outcome(NamedTuple):
    """One way a statement block can terminate."""

    exit: str
    val: ReplyVal
    #: Line of the exiting statement (``raise``/``return``...), for anchors.
    line: int | None


#: A full-coverage exception handler drops tracked ``raise`` outcomes.
_CATCH_ALL = ("Exception", "BaseException")


class ReplyEvaluator:
    """Abstract path evaluation of reply emission over one statement block.

    ``counts_of`` supplies the fixpoint's current reply-count sets for
    analyzed callees.  With ``channel`` set (a receive-channel chain such as
    ``conn`` or ``self.rfile``), only operations on that channel count: a
    direct reply op must match the channel (``rfile`` pairs with ``wfile``)
    and a callee's counts are charged only when the call passes the channel
    along (an argument or receiver sharing the channel's head variable) —
    a helper can only answer our client if it was handed our channel.  With
    ``channel=None`` every reply op counts (summary mode).
    """

    def __init__(
        self,
        index: ProjectIndex,
        info: FunctionInfo,
        counts_of: Callable[[str], frozenset[int]],
        channel: str | None = None,
    ) -> None:
        self.index = index
        self.info = info
        self.module: ModuleInfo = info.module
        self.counts_of = counts_of
        self.channel = channel

    # -------------------------- channel matching -------------------------- #
    def _channel_heads(self) -> set[str]:
        assert self.channel is not None
        return {self.channel.partition(".")[0]}

    def _reply_matches_channel(self, receiver: str) -> bool:
        if self.channel is None:
            return True
        paired = ".".join(
            "wfile" if part == "rfile" else part for part in self.channel.split(".")
        )
        if receiver in (self.channel, paired):
            return True
        return receiver.partition(".")[0] == self.channel.partition(".")[0]

    def _call_passes_channel(self, node: ast.Call) -> bool:
        if self.channel is None:
            return True
        heads = self._channel_heads()
        exprs: list[ast.expr] = list(node.args)
        exprs.extend(kw.value for kw in node.keywords)
        if isinstance(node.func, ast.Attribute):
            exprs.append(node.func.value)
        for expr in exprs:
            chain = dotted_chain(expr)
            if chain is not None and chain.partition(".")[0] in heads:
                return True
        return False

    # ------------------------- expression values ------------------------- #
    def _call_vals(self, node: ast.Call) -> set[ReplyVal] | None:
        receiver = effects.reply_receiver(node)
        if receiver is not None:
            if self._reply_matches_channel(receiver):
                return {ReplyVal(1, node.lineno, None)}
            return None
        if not self._call_passes_channel(node):
            return None
        counts: set[int] = set()
        for target in resolve_call_targets(self.index, self.info, node.func):
            counts.update(self.counts_of(target.qualname))
        if not counts or counts == {0}:
            return None
        return {
            ReplyVal(
                count,
                node.lineno if count > 0 else None,
                node.lineno if count >= 2 else None,
            )
            for count in counts
        }

    def call_emits(self, node: ast.Call) -> bool:
        """Whether this call can emit at least one reply on our channel.

        The handler-loop detector uses it: a loop only counts as a handler
        loop when some call in its body can answer on the loop's *own*
        channel — a pool dispatch loop that receives results and resubmits
        work over other pipes is the client end, not a server.
        """
        vals = self._call_vals(node)
        return vals is not None and any(val.count > 0 for val in vals)

    def _walk_expr(self, node: ast.AST) -> Iterable[ast.Call]:
        """Calls inside one expression, not descending into lambdas."""
        stack: list[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, ast.Lambda):
                continue
            if isinstance(current, ast.Call):
                yield current
            stack.extend(ast.iter_child_nodes(current))

    def _expr_vals(self, node: ast.expr | None) -> set[ReplyVal]:
        vals = {ZERO}
        if node is None:
            return vals
        for call in self._walk_expr(node):
            contribution = self._call_vals(call)
            if contribution is not None:
                vals = _cross(vals, contribution)
        return vals

    def _stmt_expr_vals(self, stmt: ast.stmt) -> set[ReplyVal]:
        """Contributions of every expression directly under a simple stmt."""
        vals = {ZERO}
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                vals = _cross(vals, self._expr_vals(child))
        return vals

    # --------------------------- statement flow --------------------------- #
    def eval_block(
        self, stmts: list[ast.stmt], entry: set[ReplyVal]
    ) -> tuple[set[Outcome], set[ReplyVal]]:
        """All outcomes of a block entered with the given path values.

        Also returns every value observable at a statement boundary inside
        the block — the ``try`` approximation uses it as the set of counts
        an exception handler may start from.
        """
        outcomes: set[Outcome] = set()
        observed: set[ReplyVal] = set(entry)
        vals = set(entry)
        for stmt in stmts:
            if not vals:
                break
            result, inner = self._eval_stmt(stmt, vals)
            observed |= inner
            vals = {o.val for o in result if o.exit == FALL}
            outcomes |= {o for o in result if o.exit != FALL}
            observed |= vals
        outcomes |= {Outcome(FALL, val, None) for val in vals}
        return outcomes, observed

    def _eval_stmt(
        self, stmt: ast.stmt, vals: set[ReplyVal]
    ) -> tuple[set[Outcome], set[ReplyVal]]:
        if isinstance(stmt, ast.If):
            return self._eval_if(stmt, vals)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._eval_loop(stmt, vals)
        if isinstance(stmt, (ast.Try, ast.TryStar)):
            return self._eval_try(stmt, vals)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            item_vals = vals
            for item in stmt.items:
                item_vals = _cross(item_vals, self._expr_vals(item.context_expr))
            return self.eval_block(stmt.body, item_vals)
        if isinstance(stmt, ast.Return):
            exit_vals = _cross(vals, self._expr_vals(stmt.value))
            return {Outcome(RETURN, v, stmt.lineno) for v in exit_vals}, exit_vals
        if isinstance(stmt, ast.Raise):
            exit_vals = _cross(vals, self._stmt_expr_vals(stmt))
            return {Outcome(RAISE, v, stmt.lineno) for v in exit_vals}, exit_vals
        if isinstance(stmt, ast.Break):
            return {Outcome(BREAK, v, stmt.lineno) for v in vals}, set(vals)
        if isinstance(stmt, ast.Continue):
            return {Outcome(CONTINUE, v, stmt.lineno) for v in vals}, set(vals)
        if isinstance(stmt, ast.Match):
            return self._eval_match(stmt, vals)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return {Outcome(FALL, v, None) for v in vals}, set(vals)
        after = self._cross_observe(vals, self._stmt_expr_vals(stmt))
        return {Outcome(FALL, v, None) for v in after}, after

    @staticmethod
    def _cross_observe(vals: set[ReplyVal], more: set[ReplyVal]) -> set[ReplyVal]:
        return _cross(vals, more)

    def _eval_if(
        self, stmt: ast.If, vals: set[ReplyVal]
    ) -> tuple[set[Outcome], set[ReplyVal]]:
        base = _cross(vals, self._expr_vals(stmt.test))
        body_out, body_obs = self.eval_block(stmt.body, base)
        if stmt.orelse:
            else_out, else_obs = self.eval_block(stmt.orelse, base)
        else:
            else_out = {Outcome(FALL, v, None) for v in base}
            else_obs = set(base)
        return body_out | else_out, body_obs | else_obs

    def _eval_match(
        self, stmt: ast.Match, vals: set[ReplyVal]
    ) -> tuple[set[Outcome], set[ReplyVal]]:
        base = _cross(vals, self._expr_vals(stmt.subject))
        outcomes = {Outcome(FALL, v, None) for v in base}
        observed = set(base)
        for case in stmt.cases:
            case_out, case_obs = self.eval_block(case.body, base)
            outcomes |= case_out
            observed |= case_obs
        return outcomes, observed

    def _eval_loop(
        self, stmt: ast.For | ast.AsyncFor | ast.While, vals: set[ReplyVal]
    ) -> tuple[set[Outcome], set[ReplyVal]]:
        head = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) else stmt.test
        base = _cross(vals, self._expr_vals(head))
        body_out, body_obs = self.eval_block(stmt.body, {ZERO})
        per_iter = {o.val for o in body_out if o.exit in (FALL, CONTINUE)}
        totals = self._iteration_closure(per_iter)
        at_loop = _cross(base, totals)
        exit_vals = set(at_loop)
        for outcome in body_out:
            if outcome.exit == BREAK:
                exit_vals |= _cross(at_loop, {outcome.val})
        outcomes = set()
        for outcome in body_out:
            if outcome.exit in (RETURN, RAISE):
                for val in _cross(at_loop, {outcome.val}):
                    outcomes.add(Outcome(outcome.exit, val, outcome.line))
        if stmt.orelse:
            else_out, else_obs = self.eval_block(stmt.orelse, exit_vals)
            outcomes |= else_out
            observed = _cross(at_loop, body_obs) | else_obs
        else:
            outcomes |= {Outcome(FALL, v, None) for v in exit_vals}
            observed = _cross(at_loop, body_obs) | exit_vals
        return outcomes, observed

    @staticmethod
    def _iteration_closure(per_iter: set[ReplyVal]) -> set[ReplyVal]:
        """All possible accumulations over 0..n loop iterations (capped)."""
        totals = {ZERO}
        while True:
            grown = totals | {
                _combine(total, val) for total in totals for val in per_iter
            }
            if grown == totals:
                return totals
            totals = grown

    def _eval_try(
        self, stmt: ast.Try | ast.TryStar, vals: set[ReplyVal]
    ) -> tuple[set[Outcome], set[ReplyVal]]:
        body_out, body_obs = self.eval_block(stmt.body, vals)
        catch_all = False
        for handler in stmt.handlers:
            if handler.type is None:
                catch_all = True
                continue
            chain = dotted_chain(handler.type)
            if chain is not None and self.module.resolve(chain) in _CATCH_ALL:
                catch_all = True
        # Any count observable inside the body (including at an explicit
        # raise) is a count a handler may start from.
        prefix = set(body_obs) | {o.val for o in body_out if o.exit == RAISE}
        outcomes: set[Outcome] = set()
        observed = set(body_obs)
        for outcome in body_out:
            if outcome.exit == RAISE and (stmt.handlers and catch_all):
                continue  # swallowed by a catch-all handler
            if outcome.exit == FALL and stmt.orelse:
                continue  # falls into the else block instead
            outcomes.add(outcome)
        for handler in stmt.handlers:
            h_out, h_obs = self.eval_block(handler.body, prefix)
            outcomes |= h_out
            observed |= h_obs
        if stmt.orelse:
            fall_vals = {o.val for o in body_out if o.exit == FALL}
            e_out, e_obs = self.eval_block(stmt.orelse, fall_vals)
            outcomes |= e_out
            observed |= e_obs
        if stmt.finalbody:
            f_out, f_obs = self.eval_block(stmt.finalbody, {ZERO})
            final: set[Outcome] = set()
            for outcome in outcomes:
                for f_outcome in f_out:
                    val = _combine(outcome.val, f_outcome.val)
                    if f_outcome.exit == FALL:
                        final.add(Outcome(outcome.exit, val, outcome.line))
                    else:
                        final.add(Outcome(f_outcome.exit, val, f_outcome.line))
            outcomes = final
            observed |= {_combine(v, f) for v in observed for f in f_obs}
        return outcomes, observed


def _is_generator(node: ast.AST) -> bool:
    """Whether the function body yields (calls don't run generator bodies)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(current, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(current))
    return False


# ------------------------------ the facade ------------------------------ #
@dataclass
class FlowAnalysis:
    """The computed dataflow artifacts of one project index."""

    index: ProjectIndex
    graph: CallGraph
    summaries: dict[str, FunctionSummary]
    locks: LockRegistry

    def summary(self, qualname: str) -> FunctionSummary | None:
        return self.summaries.get(qualname)

    def reply_counts(self, qualname: str) -> frozenset[int]:
        summary = self.summaries.get(qualname)
        return summary.reply_counts if summary is not None else frozenset({0})

    # ------------------------------ building ------------------------------ #
    @classmethod
    def for_index(cls, index: ProjectIndex) -> FlowAnalysis:
        """The (memoised) analysis of ``index``.

        The first call computes everything; rule functions hitting the memo
        afterwards share the artifacts.  Nothing is persisted: a warm
        ``--cache-dir`` run over an unchanged tree is served by the findings
        cache and never asks for the analysis.
        """
        cached = _MEMO.get(index)
        if cached is not None:
            return cached
        analysis = cls._compute(index)
        _MEMO[index] = analysis
        return analysis

    @classmethod
    def _compute(cls, index: ProjectIndex) -> FlowAnalysis:
        graph = CallGraph.build(index)
        locks = LockRegistry.build(index)
        summaries = cls._summarise(index, graph, locks)
        return cls(index=index, graph=graph, summaries=summaries, locks=locks)

    @classmethod
    def _summarise(
        cls, index: ProjectIndex, graph: CallGraph, locks: LockRegistry
    ) -> dict[str, FunctionSummary]:
        sites: dict[str, list[EffectSite]] = {}
        for info in index.iter_functions():

            def resolver(chain: str, _info: FunctionInfo = info) -> str | None:
                return locks.resolve(index, _info, chain)

            sites[info.qualname] = EffectScanner(info, resolver).scan()
        direct = {
            qualname: frozenset(site.kind for site in site_list)
            for qualname, site_list in sites.items()
        }
        acquired = {
            qualname: frozenset(
                site.detail
                for site in site_list
                if site.kind == effects.LOCK_ACQUIRE
            )
            for qualname, site_list in sites.items()
        }
        transitive = cls._propagate(graph, direct)
        acquires = cls._propagate(graph, acquired)
        counts = cls._reply_fixpoint(index, graph, transitive)
        return {
            qualname: FunctionSummary(
                qualname=qualname,
                sites=tuple(sites[qualname]),
                direct=direct[qualname],
                effects=transitive[qualname],
                reply_counts=counts.get(qualname, frozenset({0})),
                acquires=acquires[qualname],
            )
            for qualname in sites
        }

    @staticmethod
    def _propagate(
        graph: CallGraph, direct: dict[str, frozenset[str]]
    ) -> dict[str, frozenset[str]]:
        """Bottom-up set-union fixpoint of per-function facts over the graph."""
        merged = dict(direct)
        callers: dict[str, list[str]] = {}
        for caller, callees in graph.edges.items():
            for callee in callees:
                callers.setdefault(callee, []).append(caller)
        worklist = list(merged)
        pending = set(worklist)
        while worklist:
            qualname = worklist.pop()
            pending.discard(qualname)
            combined = merged.get(qualname, frozenset())
            for callee in graph.callees(qualname):
                combined |= merged.get(callee, frozenset())
            if combined != merged.get(qualname, frozenset()):
                merged[qualname] = combined
                for caller in callers.get(qualname, ()):
                    if caller not in pending:
                        pending.add(caller)
                        worklist.append(caller)
        return merged

    @staticmethod
    def _reply_fixpoint(
        index: ProjectIndex,
        graph: CallGraph,
        transitive: dict[str, frozenset[str]],
    ) -> dict[str, frozenset[int]]:
        """Per-call reply-count sets for every reply-relevant function."""
        relevant = [
            qualname
            for qualname, kinds in transitive.items()
            if effects.REPLY in kinds and qualname in index.functions
        ]
        counts: dict[str, frozenset[int]] = {q: frozenset({0}) for q in relevant}

        def counts_of(qualname: str) -> frozenset[int]:
            return counts.get(qualname, frozenset({0}))

        changed = True
        while changed:
            changed = False
            for qualname in relevant:
                info = index.functions[qualname]
                if _is_generator(info.node):
                    continue
                evaluator = ReplyEvaluator(index, info, counts_of, channel=None)
                outcomes, _ = evaluator.eval_block(list(info.node.body), {ZERO})
                new = frozenset(o.val.count for o in outcomes) or frozenset({0})
                if new != counts[qualname]:
                    counts[qualname] = new
                    changed = True
        return counts


_MEMO: WeakKeyDictionary[ProjectIndex, FlowAnalysis] = WeakKeyDictionary()

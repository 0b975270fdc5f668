"""The ``repro lint`` rule set: determinism (D) and protocol-contract (P) rules.

Each rule mirrors one invariant the differential/resume/shard suites pin at
runtime — the linter's job is to catch the violation *before* a sweep runs.
Rules are deliberately narrow: a finding should be a near-certain hazard,
not a style opinion, because every finding gates CI.  A rule stays only
while it catches something tier-1 and CI would not (DESIGN.md, "Lint
census"); each rule's example pair lives in ``tests/lint_fixtures/``.

Determinism rules
-----------------
* ``D101 unseeded-random`` — module-level ``random.*`` / ``numpy.random.*``
  draws (process-global RNG state: results change across worker counts).
* ``D102 global-rng-seed`` — ``random.seed`` / ``numpy.random.seed``
  (reseeding shared state leaks across cells in the same worker).
* ``D103 unsorted-set-iteration`` — iterating a set into ordered output
  (sends, appends, heap pushes, joins) without ``sorted(...)``.
* ``D105 wall-clock`` — wall-clock reads outside :mod:`repro.bench`
  (measured rows must never embed timing).
* ``D107 environ-read`` — ``os.environ`` / ``os.getenv`` outside the
  plugin-discovery path (hidden config axes break cell reproducibility).

Protocol-contract rules
-----------------------
* ``P202 context-retention`` — storing the ``ctx``/``inbox`` argument on
  ``self`` (both are runner-pooled and invalid across rounds).
"""

from __future__ import annotations

import ast

from .engine import FileContext, Rule

__all__ = ["RULES"]

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _import_map(ctx: FileContext) -> dict:
    """``{local name: canonical dotted module/object}`` for the file."""
    cached = getattr(ctx, "_lint_imports", None)
    if cached is not None:
        return cached
    imports: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    ctx._lint_imports = imports
    return imports


def _dotted_parts(node: ast.AST) -> list | None:
    """``a.b.c`` expression -> ``["a", "b", "c"]`` (None when not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _qualified(node: ast.AST, ctx: FileContext) -> str | None:
    """Canonical dotted name of an expression, resolved through imports.

    ``np.random.rand`` under ``import numpy as np`` resolves to
    ``numpy.random.rand``; an unimported root keeps its literal spelling
    (so snippets without imports still lint).  Chains rooted in anything
    but a plain name (``self.rng.random``) return ``None`` — the rule set
    never guesses at attribute types.
    """
    parts = _dotted_parts(node)
    if parts is None:
        return None
    resolved = _import_map(ctx).get(parts[0])
    if resolved is not None:
        parts = resolved.split(".") + parts[1:]
    return ".".join(parts)


def _terminal_name(func: ast.AST) -> str | None:
    """The rightmost name of a call target (``x.y.send`` -> ``send``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _scopes(tree: ast.Module):
    """Yield ``(scope_node, scope_statements)`` for the module and each def.

    Nested defs are their own scope; statements of a scope exclude the
    bodies of the functions/classes it contains.
    """
    def direct(body):
        out = []
        stack = list(body)
        while stack:
            node = stack.pop()
            out.append(node)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # its body is a separate scope, yielded later
            stack.extend(ast.iter_child_nodes(node))
        return out

    pending = [tree]
    while pending:
        scope = pending.pop()
        body = scope.body
        nodes = direct(body)
        yield scope, nodes
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                pending.append(node)


# ----------------------------------------------------------------------
# D-rules: determinism
# ----------------------------------------------------------------------
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle", "sample",
    "uniform", "triangular", "betavariate", "expovariate", "gammavariate",
    "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "randbytes",
})
_NUMPY_RANDOM_FNS = frozenset({
    "rand", "randn", "randint", "random", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "random_sample", "bytes", "sample",
})


class UnseededRandom(Rule):
    id = "D101"
    name = "unseeded-random"
    severity = "error"
    summary = (
        "module-level random.* / numpy.random.* draw: process-global RNG "
        "state makes results depend on worker count and call history"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qual = _qualified(node.func, self.ctx)
        if qual is not None:
            head, _, tail = qual.rpartition(".")
            if head == "random" and tail in _GLOBAL_RANDOM_FNS:
                self.report(
                    node,
                    f"{qual}() draws from the process-global RNG; build a "
                    f"random.Random(seed) instead",
                )
            elif qual == "random.Random" and not node.args and not node.keywords:
                self.report(
                    node,
                    "random.Random() with no arguments seeds from OS entropy; "
                    "pass an explicit seed",
                )
            elif qual == "random.SystemRandom":
                self.report(
                    node, "random.SystemRandom is OS entropy and never reproducible"
                )
            elif head.endswith("numpy.random") and tail in _NUMPY_RANDOM_FNS:
                self.report(
                    node,
                    f"{qual}() draws from numpy's process-global RNG; use "
                    f"numpy.random.default_rng(seed)",
                )
            elif (
                qual.endswith("numpy.random.default_rng")
                and not node.args
                and not node.keywords
            ):
                self.report(
                    node,
                    "numpy.random.default_rng() with no seed is OS entropy; "
                    "pass an explicit seed",
                )
        self.generic_visit(node)


class GlobalRngSeed(Rule):
    id = "D102"
    name = "global-rng-seed"
    severity = "error"
    summary = (
        "random.seed / numpy.random.seed mutates process-global state that "
        "leaks across every cell the worker runs afterwards"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qual = _qualified(node.func, self.ctx)
        if qual == "random.seed" or (
            qual is not None and qual.endswith("numpy.random.seed")
        ):
            self.report(
                node,
                f"{qual}() reseeds the process-global RNG — state leaks into "
                f"every later cell on this worker; use a local "
                f"random.Random(seed)",
            )
        self.generic_visit(node)


_ORDER_SINKS = frozenset({
    "send", "broadcast", "heappush", "heappushpop", "append", "extend",
    "appendleft", "write", "writerow", "writelines", "put", "emit", "update",
})
_ORDER_SAFE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "min", "max", "sum", "len", "any", "all",
    "Counter",
})
_MATERIALIZERS = frozenset({"tuple", "list", "iter", "enumerate"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


class UnsortedSetIteration(Rule):
    id = "D103"
    name = "unsorted-set-iteration"
    severity = "warning"
    summary = (
        "iterating a set into ordered output (sends, appends, heap pushes, "
        "joins) — set order is hash order, which varies per process for "
        "str/tuple elements; wrap the set in sorted(...)"
    )

    def run(self):
        for _scope, nodes in _scopes(self.ctx.tree):
            self._check_scope(nodes)
        return self.findings

    # -- scope analysis -------------------------------------------------
    def _check_scope(self, nodes: list) -> None:
        set_names: set[str] = set()
        unset_names: set[str] = set()
        for node in nodes:
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target] if isinstance(node.target, ast.Name) else []
                value = node.value
            else:
                continue
            for target in targets:
                if self._is_set_expr(value, set_names):
                    set_names.add(target.id)
                else:
                    unset_names.add(target.id)
        set_names -= unset_names  # ambiguous rebinding: give the benefit of doubt

        safe: set[int] = set()
        for node in nodes:
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name in _ORDER_SAFE_CONSUMERS:
                    for arg in node.args:
                        safe.add(id(arg))
                        if isinstance(arg, ast.Call) and _terminal_name(
                            arg.func
                        ) in _MATERIALIZERS:
                            safe.update(id(inner) for inner in arg.args)

        for node in nodes:
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_names) and self._has_sink(
                    node.body
                ):
                    self.report(
                        node,
                        "loop over a set feeds ordered output; iterate "
                        "sorted(...) instead",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if id(node) in safe:
                    continue
                for comp in node.generators:
                    if self._is_set_expr(comp.iter, set_names):
                        self.report(
                            node,
                            "comprehension over a set materializes hash order; "
                            "iterate sorted(...) instead",
                        )
                        break
            elif isinstance(node, ast.Call) and id(node) not in safe:
                name = _terminal_name(node.func)
                if (
                    name in _MATERIALIZERS or name == "join"
                ) and node.args and self._is_set_expr(node.args[0], set_names):
                    self.report(
                        node,
                        f"{name}(...) over a set materializes hash order; "
                        f"wrap the set in sorted(...)",
                    )

    def _is_set_expr(self, node: ast.AST, set_names: set) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and name in _SET_METHODS
                and self._is_set_expr(node.func.value, set_names)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False

    def _has_sink(self, body: list) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(node, ast.Call) and _terminal_name(
                    node.func
                ) in _ORDER_SINKS:
                    return True
        return False


_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClock(Rule):
    id = "D105"
    name = "wall-clock"
    severity = "error"
    summary = (
        "wall-clock read outside repro.bench: measured rows and digests "
        "must be pure functions of (scenario, n, seed)"
    )
    exempt_paths = ("repro/bench.py",)

    def visit_Call(self, node: ast.Call) -> None:
        qual = _qualified(node.func, self.ctx)
        if qual in _WALL_CLOCK:
            self.report(
                node,
                f"{qual}() is a wall-clock read; timing belongs in "
                f"repro.bench, never in measured results",
            )
        self.generic_visit(node)


class EnvironRead(Rule):
    id = "D107"
    name = "environ-read"
    severity = "error"
    summary = (
        "os.environ read outside plugin discovery: an environment variable "
        "is a hidden sweep axis no digest records"
    )
    exempt_paths = ("repro/api/algorithms.py",)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _qualified(node, self.ctx) == "os.environ":
            self.report(
                node,
                "os.environ read: environment state is a hidden axis that "
                "never reaches rows or digests; take it as a parameter "
                "(plugin discovery in repro.api.algorithms is the one "
                "sanctioned reader)",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _qualified(node.func, self.ctx) == "os.getenv":
            self.report(
                node,
                "os.getenv read: environment state is a hidden axis that "
                "never reaches rows or digests; take it as a parameter",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# P-rules: protocol / spec contracts
# ----------------------------------------------------------------------
def _on_round_params(node) -> "tuple[str | None, str, str] | None":
    """``(self_name, ctx_name, inbox_name)`` of an ``on_round`` definition."""
    if node.name != "on_round":
        return None
    names = [arg.arg for arg in (*node.args.posonlyargs, *node.args.args)]
    self_name = None
    if names and names[0] == "self":
        self_name, names = names[0], names[1:]
    if len(names) < 2:
        return None
    return self_name, names[0], names[1]


class ContextRetention(Rule):
    id = "P202"
    name = "context-retention"
    severity = "error"
    summary = (
        "on_round storing ctx/inbox on self: both are runner-pooled views, "
        "invalid outside the current round (and across restarts)"
    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        params = _on_round_params(node)
        if params is not None and params[0] is not None:
            self_name, ctx_name, inbox_name = params
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Assign):
                    continue
                value = sub.value
                if not (
                    isinstance(value, ast.Name)
                    and value.id in (ctx_name, inbox_name)
                ):
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        self.report(
                            sub,
                            f"on_round stores {value.id!r} on self; Context "
                            f"and Inbox are pooled per-round views — keep "
                            f"values, not the view",
                        )
        self.generic_visit(node)


#: Every registered rule, id-sorted; the engine and CLI consume this.
RULES = sorted(
    (
        UnseededRandom,
        GlobalRngSeed,
        UnsortedSetIteration,
        WallClock,
        EnvironRead,
        ContextRetention,
    ),
    key=lambda rule: rule.id,
)

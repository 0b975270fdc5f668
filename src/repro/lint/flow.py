"""Summary-based interprocedural taint analysis for the F-rule family.

Design: **call summaries, not inlining**.  Each function is analyzed
once per fixpoint round against the *current* summaries of its callees,
producing its own :class:`Summary` — which parameters it consumes (reach
an RNG/keyed-hash sink, a return, a store, or escape into an unresolved
call), which reach a digest sink, which it mutates in place, and what
taints its return value carries.  Rounds repeat until no summary grows;
because every summary field only ever grows, the iteration is monotone
and terminates even across import/call cycles.  Inlining call bodies
would be exponential in chain depth and would loop forever on recursion;
summaries make the cost linear in (functions x rounds) and make cycles a
non-event.

Within one function the analysis is a flow-insensitive def-use worklist:
the local environment maps names to tag sets (``param:<name>``,
``taint:<kind>``, ``set``, ``csr``, ``hashobj``) and statements are
re-walked until the environment stabilizes.  Tags only accumulate, so a
name rebound after use keeps its old tags — deliberately conservative:
the linter would rather follow a dead binding than miss a live one.

Unresolved calls never produce false findings: a value passed into a
call the :class:`~repro.lint.project.ProjectModel` cannot resolve is
treated as *consumed* (so F301 never fires on evidence the model does
not have) and the unresolved edge itself stays visible through
``ProjectModel.unresolved_edges`` — counted in the ``flow`` block of
``repro lint --json`` rather than reported as a gating finding.
"""

from __future__ import annotations

import ast

from .project import FunctionInfo, ModuleInfo, ProjectModel, _dotted

__all__ = ["FlowAnalysis", "Summary"]

#: Seeding an RNG (or reseeding the global one) consumes the seed.
RNG_SINKS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "random.seed",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.seed",
    }
)

#: Aggregates whose result cannot leak iteration order (or, for sorted,
#: whose result order is canonical).  They still propagate param tags —
#: the *value* remains derived from the argument.
ORDER_SANITIZERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "Counter"}
)

#: Builtins that materialize their argument's iteration order.
MATERIALIZERS = frozenset({"list", "tuple", "iter", "enumerate", "str", "repr", "format"})

#: In-place container/array mutators (superset of the P-rule list: numpy
#: in-place methods join the usual list/dict/set suspects).
MUTATOR_METHODS = frozenset(
    {
        "clear", "append", "extend", "insert", "pop", "remove", "sort",
        "reverse", "popleft", "appendleft", "add", "discard", "update",
        "setdefault", "fill", "put", "partition", "byteswap", "resize",
        "itemset",
    }
)

_APPENDERS = frozenset({"append", "add", "extend", "insert", "appendleft"})

#: Human description of each taint kind, used in F302 messages.
TAINT_TEXT = {
    "set-order": "set-iteration order",
    "wall-clock": "a wall-clock read",
    "environ": "an environment read",
    "process-identity": "a process-identity value (id()/hash())",
}


def _wall_clock() -> frozenset:
    from .rules import _WALL_CLOCK

    return _WALL_CLOCK


def _csr_attr(name: str) -> bool:
    from .rules import _CSR_ATTRS

    trimmed = name.lstrip("_")
    if trimmed.startswith("np_"):
        trimmed = trimmed[3:]
    return trimmed in _CSR_ATTRS


class Summary:
    """What one function does with its parameters and return value."""

    def __init__(self) -> None:
        self.consumes: set[str] = set()  # param reaches any accepting sink
        self.rng: set[str] = set()  # param reaches an RNG/keyed-hash sink
        self.to_digest: set[str] = set()  # param reaches a hashlib sink
        self.to_return: set[str] = set()  # param flows into the return value
        self.mutates: set[str] = set()  # param mutated in place
        self.returns_taint: set[str] = set()  # taint kinds of the return
        self.returns_set: bool = False

    def key(self) -> tuple:
        return (
            frozenset(self.consumes),
            frozenset(self.rng),
            frozenset(self.to_digest),
            frozenset(self.to_return),
            frozenset(self.mutates),
            frozenset(self.returns_taint),
            self.returns_set,
        )


class FlowAnalysis:
    """Fixpoint summaries plus the findings the reporting pass collected."""

    MAX_ROUNDS = 25

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.summaries: dict[str, Summary] = {}
        # Reporting-pass products, keyed for the F-rules to pick up:
        self.digest_flows: list = []  # (FunctionInfo, node, taint_kind, detail)
        self.csr_flows: list = []  # (FunctionInfo, node, detail)
        self.handoffs: dict = {}  # qualname -> {param: [callee names]}
        self._functions = [
            info
            for info in model.functions.values()
            if isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        self._run()

    @classmethod
    def of(cls, model: ProjectModel) -> "FlowAnalysis":
        cached = getattr(model, "_flow_analysis", None)
        if cached is None:
            cached = cls(model)
            model._flow_analysis = cached
        return cached

    def _run(self) -> None:
        for info in self._functions:
            self.summaries[info.qualname] = Summary()
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for info in self._functions:
                before = self.summaries[info.qualname].key()
                passer = _FunctionPass(self, info)
                self.summaries[info.qualname] = passer.summary
                if passer.summary.key() != before:
                    changed = True
            if not changed:
                break
        for info in self._functions:  # converged: one collecting pass
            _FunctionPass(self, info, collect=True)

    def summary_for(self, info: FunctionInfo) -> Summary:
        return self.summaries.get(info.qualname, Summary())


class _FunctionPass:
    """One flow-insensitive pass over a single function body."""

    MAX_LOCAL_ROUNDS = 8

    def __init__(
        self, analysis: FlowAnalysis, info: FunctionInfo, collect: bool = False
    ) -> None:
        self.analysis = analysis
        self.model = analysis.model
        self.info = info
        self.module: ModuleInfo = analysis.model.modules[info.module]
        self.collect = collect
        self.summary = Summary()
        self.env: dict[str, set] = {p: {f"param:{p}"} for p in info.params}
        self._types = self.model._instance_types(self.module, info.node.body)
        for _ in range(self.MAX_LOCAL_ROUNDS):
            before = (
                {k: frozenset(v) for k, v in self.env.items()},
                self.summary.key(),
            )
            for stmt in info.node.body:
                self._stmt(stmt)
            after = (
                {k: frozenset(v) for k, v in self.env.items()},
                self.summary.key(),
            )
            if after == before:
                break
        if collect:
            self._emit = True
            for stmt in info.node.body:
                self._stmt(stmt)

    _emit = False

    # -- helpers ---------------------------------------------------------

    def _params_in(self, tags: set) -> set:
        return {t.partition(":")[2] for t in tags if t.startswith("param:")}

    def _taints_in(self, tags: set) -> set:
        return {t.partition(":")[2] for t in tags if t.startswith("taint:")}

    def _consume(self, tags: set) -> None:
        self.summary.consumes.update(self._params_in(tags))

    def _expanded(self, qual: str | None) -> str | None:
        """Resolve the chain's root through the module's import map."""
        if qual is None:
            return None
        head, dot, rest = qual.partition(".")
        target = self.module.imports.get(head)
        if target is None:
            return qual
        return f"{target}.{rest}" if rest else target

    # -- statements ------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs have their own summaries
        if isinstance(node, ast.Assign):
            tags = self._eval(node.value)
            for target in node.targets:
                self._assign(target, tags)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._eval(node.value))
        elif isinstance(node, ast.AugAssign):
            tags = self._eval(node.value) | self._eval(node.target)
            self._assign(node.target, tags)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                tags = self._eval(node.value)
                params = self._params_in(tags)
                self.summary.to_return.update(params)
                self.summary.consumes.update(params)
                self.summary.returns_taint.update(self._taints_in(tags))
                if "set" in tags:
                    self.summary.returns_set = True
        elif isinstance(node, ast.Expr):
            self._eval(node.value)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._consume(self._eval(node.exc))
        elif isinstance(node, ast.Assert):
            self._eval(node.test)
        elif isinstance(node, ast.For):
            iter_tags = self._eval(node.iter)
            self._assign(node.target, iter_tags - {"set"})
            if "set" in iter_tags:
                self._mark_order_appends(node.body)
            for stmt in [*node.body, *node.orelse]:
                self._stmt(stmt)
        elif isinstance(node, ast.While):
            self._eval(node.test)
            for stmt in [*node.body, *node.orelse]:
                self._stmt(stmt)
        elif isinstance(node, ast.If):
            self._eval(node.test)
            for stmt in [*node.body, *node.orelse]:
                self._stmt(stmt)
        elif isinstance(node, ast.With):
            for item in node.items:
                tags = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tags)
            for stmt in node.body:
                self._stmt(stmt)
        elif isinstance(node, ast.Try):
            for stmt in node.body:
                self._stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._stmt(stmt)
            for stmt in [*node.orelse, *node.finalbody]:
                self._stmt(stmt)

    def _assign(self, target: ast.AST, tags: set) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(tags)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, tags)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tags)
        elif isinstance(target, ast.Subscript):
            self._consume(tags)  # value stored into a container
            root = self._root_name(target.value)
            if root is not None and root in self.info.params:
                self.summary.mutates.add(root)
            key = self._env_key(target.value)
            if key is not None:
                self.env.setdefault(key, set()).update(tags)
            self._eval(target.slice)
        elif isinstance(target, ast.Attribute):
            self._consume(tags)  # value stored onto an object
            if isinstance(target.value, ast.Name):
                key = f"{target.value.id}.{target.attr}"
                self.env.setdefault(key, set()).update(tags)

    def _root_name(self, node: ast.AST) -> str | None:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _env_key(self, node: ast.AST) -> str | None:
        """The environment key a value expression writes through.

        ``name`` and ``name.attr`` get precise keys; deeper chains fall
        back to the terminal ``name.attr`` pair so tainting ``a.b.c``
        never smears onto every other attribute of ``a``.
        """
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return f"{node.value.id}.{node.attr}"
        return None

    def _mark_order_appends(self, body) -> None:
        """``for x in some_set: out.append(...)`` taints ``out``."""
        wrapper = ast.Module(body=list(body), type_ignores=[])
        for node in ast.walk(wrapper):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _APPENDERS
                and isinstance(node.func.value, ast.Name)
            ):
                self.env.setdefault(node.func.value.id, set()).add(
                    "taint:set-order"
                )

    # -- expressions -----------------------------------------------------

    def _eval(self, node: ast.AST | None) -> set:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Attribute):
            qual = _dotted(node)
            if qual is not None:
                expanded = self._expanded(qual)
                if expanded in ("os.environ",):
                    return {"taint:environ"}
                if isinstance(node.value, ast.Name):
                    key = f"{node.value.id}.{node.attr}"
                    if key in self.env:
                        tags = set(self.env[key])
                        if _csr_attr(node.attr):
                            tags.add("csr")
                        return tags
            tags = self._eval(node.value)
            if _csr_attr(node.attr):
                tags = tags | {"csr"}
            return tags
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            tags: set = set()
            for value in node.values:
                tags |= self._eval(value)
            return tags
        if isinstance(node, ast.Compare):
            tags = self._eval(node.left)
            for comparator in node.comparators:
                tags |= self._eval(comparator)
            return tags
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value) | self._eval(node.slice)
        if isinstance(node, ast.Slice):
            return self._eval(node.lower) | self._eval(node.upper) | self._eval(node.step)
        if isinstance(node, (ast.Tuple, ast.List)):
            tags = set()
            for element in node.elts:
                tags |= self._eval(element)
            return tags - {"set"}
        if isinstance(node, (ast.Set,)):
            tags = set()
            for element in node.elts:
                tags |= self._eval(element)
            return (tags - {"taint:set-order"}) | {"set"}
        if isinstance(node, ast.Dict):
            tags = set()
            for key in node.keys:
                if key is not None:
                    tags |= self._eval(key)
            for value in node.values:
                tags |= self._eval(value)
            return tags
        if isinstance(node, ast.JoinedStr):
            tags = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    tags |= self._eval(value.value)
            if "set" in tags:
                tags = (tags - {"set"}) | {"taint:set-order"}
            return tags
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, ordered=True)
        if isinstance(node, ast.SetComp):
            return (self._eval_comprehension(node, ordered=False)) | {"set"}
        if isinstance(node, ast.DictComp):
            gen_tags = self._eval_generators(node.generators)
            tags = gen_tags | self._eval(node.key) | self._eval(node.value)
            if "set" in gen_tags:  # dict built in set order leaks it
                tags = tags | {"taint:set-order"}
            return tags - {"set"}
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                tags = self._eval(node.value)
                self._consume(tags)  # yielded values escape to the caller
                return tags
            return set()
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, ast.NamedExpr):
            tags = self._eval(node.value)
            self._assign(node.target, tags)
            return tags
        return set()

    def _eval_generators(self, generators) -> set:
        tags: set = set()
        for gen in generators:
            iter_tags = self._eval(gen.iter)
            self._assign(gen.target, iter_tags - {"set"})
            tags |= iter_tags
            for cond in gen.ifs:
                self._eval(cond)
        return tags

    def _eval_comprehension(self, node, ordered: bool) -> set:
        gen_tags = self._eval_generators(node.generators)
        element = node.elt if hasattr(node, "elt") else None
        tags = gen_tags | (self._eval(element) if element is not None else set())
        if ordered and "set" in gen_tags:
            tags = tags | {"taint:set-order"}
        if not ordered:
            tags = tags - {"taint:set-order"}
        return tags - {"set"}

    # -- calls -----------------------------------------------------------

    def _arg_exprs(self, call: ast.Call) -> list:
        out = list(call.args)
        out.extend(keyword.value for keyword in call.keywords)
        return out

    def _eval_call(self, call: ast.Call) -> set:
        arg_tags_list = [self._eval(arg) for arg in self._arg_exprs(call)]
        arg_tags: set = set()
        for tags in arg_tags_list:
            arg_tags |= tags
        qual = _dotted(call.func)
        expanded = self._expanded(qual)
        terminal = qual.rpartition(".")[2] if qual else None
        receiver_tags: set = set()
        if isinstance(call.func, ast.Attribute):
            receiver_tags = self._eval(call.func.value)

        # Category sinks and sources, checked on the expanded name.
        if expanded in RNG_SINKS:
            params = self._params_in(arg_tags)
            self.summary.rng.update(params)
            self.summary.consumes.update(params)
            return {"rngobj"}
        if expanded is not None and expanded.startswith("hashlib."):
            self._digest_sink(call, arg_tags_list)
            return {"hashobj"}
        if "hashobj" in receiver_tags and terminal in ("update", "new"):
            self._digest_sink(call, arg_tags_list)
            return {"hashobj"}
        if expanded in _wall_clock():
            return {"taint:wall-clock"}
        if expanded in ("os.getenv", "os.environ.get"):
            return {"taint:environ"}
        if isinstance(call.func, ast.Name) and call.func.id in ("id", "hash"):
            return {"taint:process-identity"}
        if isinstance(call.func, ast.Name) and call.func.id in ORDER_SANITIZERS:
            params = self._params_in(arg_tags)
            return {f"param:{p}" for p in params}
        if isinstance(call.func, ast.Name) and call.func.id in ("set", "frozenset"):
            params = self._params_in(arg_tags)
            return {f"param:{p}" for p in params} | {"set"}
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in MATERIALIZERS
            and "set" in arg_tags
        ):
            return (arg_tags - {"set"}) | {"taint:set-order"}
        if terminal == "join" and "set" in arg_tags:
            return (arg_tags - {"set"}) | {"taint:set-order"} | receiver_tags

        # Resolved project calls: apply the callee's summary.
        callee, _, _ = self.model.resolve_call(
            self.module, self.info, call, self._types
        )
        if callee is not None:
            return self._apply_summary(call, callee, receiver_tags)

        # Unresolved: arguments escape (consumed), result stays tainted
        # by whatever went in — conservative in both directions.
        self._consume(arg_tags | receiver_tags)
        if terminal in MUTATOR_METHODS and isinstance(call.func, ast.Attribute):
            root = self._root_name(call.func.value)
            if root is not None and root in self.info.params:
                self.summary.mutates.add(root)
            key = self._env_key(call.func.value)
            if key is not None:
                self.env.setdefault(key, set()).update(arg_tags)
        return (arg_tags | receiver_tags) - {"set", "hashobj", "rngobj"}

    def _digest_sink(self, call: ast.Call, arg_tags_list: list) -> None:
        for arg, tags in zip(self._arg_exprs(call), arg_tags_list):
            params = self._params_in(tags)
            self.summary.to_digest.update(params)
            self.summary.rng.update(params)  # keyed hash = keyed draw
            self.summary.consumes.update(params)
            if self._emit:
                for kind in sorted(self._taints_in(tags)):
                    self.analysis.digest_flows.append(
                        (self.info, arg, kind, "feeds a hashlib digest here")
                    )

    def _apply_summary(
        self, call: ast.Call, callee: FunctionInfo, receiver_tags: set
    ) -> set:
        summary = self.analysis.summary_for(callee)
        pairs = self.model.bind_arguments(call, callee)
        bound_exprs = {id(expr) for _, expr in pairs}
        result: set = set()
        handed_off: set = set()
        for param, expr in pairs:
            tags = self._eval(expr)
            params = self._params_in(tags)
            taints = self._taints_in(tags)
            if param in summary.consumes:
                self.summary.consumes.update(params)
            if param in summary.rng:
                self.summary.rng.update(params)
            if param in summary.to_digest:
                self.summary.to_digest.update(params)
                self.summary.consumes.update(params)
                if self._emit and taints:
                    for kind in sorted(taints):
                        self.analysis.digest_flows.append(
                            (
                                self.info,
                                call,
                                kind,
                                f"reaches a digest sink via {callee.name}()",
                            )
                        )
            if param in summary.mutates:
                for own in params:
                    self.summary.mutates.add(own)
                if self._emit and "csr" in tags:
                    self.analysis.csr_flows.append(
                        (
                            self.info,
                            call,
                            f"{ast.unparse(expr)} is mutated inside "
                            f"{callee.name}()",
                        )
                    )
                key = self._env_key(expr)
                if key is not None:
                    self.env.setdefault(key, set()).update(tags)
            if param in summary.to_return:
                result |= tags
            if self._emit and params and param not in summary.consumes:
                for own in params:
                    handed_off.add((own, callee.name))
        # Arguments the binding could not place still escape.
        for expr in self._arg_exprs(call):
            if id(expr) not in bound_exprs:
                self._consume(self._eval(expr))
        if self._emit and handed_off:
            per_function = self.analysis.handoffs.setdefault(
                self.info.qualname, {}
            )
            for own, name in sorted(handed_off):
                per_function.setdefault(own, [])
                if name not in per_function[own]:
                    per_function[own].append(name)
        result |= {f"taint:{k}" for k in summary.returns_taint}
        if summary.returns_set:
            result |= {"set"}
        return result

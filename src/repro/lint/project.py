"""Whole-program model for flow rules: modules, symbols, calls, processes.

The visitor rules in :mod:`repro.lint.rules` see one file at a time; the
two worst historical bug classes in this repo (PR 4's ignored-seed
corruption, the fork-boundary store hazards around ``api/run.py``) are
*interprocedural* — a seed accepted here and dropped two calls away, a
pipe end written from both sides of a fork.  This module builds the
shared substrate those checks need:

* :class:`ProjectModel` — parses every file of a lint invocation once,
  derives dotted module names (walking up through ``__init__.py``
  packages), records per-module import maps (``import x as y``, absolute
  and relative ``from`` imports), symbol tables for functions, nested
  functions, classes and methods, and a package-wide **call graph**.
* Call resolution is best effort and honest about it: every call site
  becomes a :class:`CallEdge`; edges the model cannot resolve to a
  project function carry ``callee=None`` and a reason, and are counted
  (never silently dropped) via :meth:`ProjectModel.unresolved_edges`;
  ``repro lint --json`` reports that count in its ``flow`` block.
* :class:`Topology` — classifies functions as supervisor-side vs
  worker-side from ``Process(target=...)`` and pool dispatch sites, with
  the argument binding at each spawn site (which caller value lands in
  which worker parameter).  This is what lets F304 tell a legitimate
  worker ``result_pipe.send`` from a second writer on the same end.

The model never imports the analyzed code; everything is derived from
the ASTs, so linting a plugin cannot execute it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ProjectModel",
    "ModuleInfo",
    "FunctionInfo",
    "ClassInfo",
    "CallEdge",
    "SpawnSite",
    "Topology",
]

#: Attribute names that dispatch a callable to a worker pool.  These are
#: only recognized as *attribute* calls (``pool.imap_unordered(f, ...)``)
#: so the ``map`` builtin never classifies its argument as worker-side.
POOL_DISPATCH = frozenset(
    {
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "submit",
    }
)


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # "repro.api.drivers:drive_sssp", "mod:Cls.m", "mod:f.inner"
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    params: list = field(default_factory=list)
    has_varargs: bool = False
    class_name: str | None = None  # enclosing class for methods
    parent: str | None = None  # qualname of the enclosing function, if nested

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2].rpartition(":")[2]

    @property
    def bindable_params(self) -> list:
        """Positional parameter names, minus the method receiver."""
        if self.class_name is not None and self.params:
            return self.params[1:]
        return list(self.params)


@dataclass
class ClassInfo:
    name: str
    module: str
    node: ast.ClassDef
    methods: dict = field(default_factory=dict)  # name -> FunctionInfo
    bases: list = field(default_factory=list)  # dotted base-name strings


@dataclass
class CallEdge:
    """One call site: resolved (``callee`` set) or explicitly unresolved."""

    caller: FunctionInfo
    call: ast.Call
    qual: str | None  # best-effort dotted text of the callee expression
    callee: FunctionInfo | None = None
    reason: str | None = None  # why resolution failed, when callee is None

    @property
    def resolved(self) -> bool:
        return self.callee is not None


@dataclass
class SpawnSite:
    """A ``Process(target=...)`` / pool dispatch call and its binding."""

    caller: FunctionInfo
    call: ast.Call
    target: FunctionInfo
    kind: str  # "process" | "pool"
    # (param_name, arg_expr) pairs for Process(args=...) tuples; empty for
    # pool dispatch (pools pickle their payloads, no shared objects).
    bindings: list = field(default_factory=list)


class Topology:
    """Supervisor/worker classification derived from spawn sites."""

    def __init__(self) -> None:
        self.spawn_sites: list[SpawnSite] = []
        self.worker_side: set[str] = set()  # qualnames reachable from targets
        self.supervisor_side: set[str] = set()  # spawners + their callees

    def is_worker(self, info: FunctionInfo) -> bool:
        return info.qualname in self.worker_side

    def is_supervisor(self, info: FunctionInfo) -> bool:
        return info.qualname in self.supervisor_side


def _module_name(path: Path) -> str:
    """Dotted module name: walk up while the directory is a package."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else path.stem


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleInfo:
    """Symbols and imports of one parsed file."""

    def __init__(self, name: str, path: str, tree: ast.Module, source: str) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.source = source
        self.imports: dict[str, str] = {}  # local name -> dotted target
        self.functions: dict[str, FunctionInfo] = {}  # local qualpath -> info
        self.classes: dict[str, ClassInfo] = {}
        self.module_body = FunctionInfo(
            qualname=f"{name}:<module>",
            module=name,
            path=path,
            node=tree,
            params=[],
        )
        self._collect()

    # -- construction --------------------------------------------------

    def _package(self, level: int) -> str:
        """The package ``level`` relative-import dots resolve against."""
        parts = self.name.split(".")
        if not Path(self.path).name == "__init__.py":
            parts = parts[:-1]
        drop = level - 1
        if drop:
            parts = parts[:-drop] if drop <= len(parts) else []
        return ".".join(parts)

    def _collect(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    package = self._package(node.level)
                    base = f"{package}.{base}" if base else package
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name
        self._collect_defs(self.tree.body, prefix="", class_name=None, parent=None)

    def _collect_defs(self, body, prefix: str, class_name, parent) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = f"{prefix}{node.name}"
                args = node.args
                params = [
                    a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                ]
                info = FunctionInfo(
                    qualname=f"{self.name}:{local}",
                    module=self.name,
                    path=self.path,
                    node=node,
                    params=params,
                    has_varargs=args.vararg is not None or args.kwarg is not None,
                    class_name=class_name,
                    parent=parent,
                )
                self.functions[local] = info
                if class_name is not None and prefix.count(".") == 1:
                    self.classes[class_name].methods[node.name] = info
                # Nested defs: methods of nested classes keep the outer
                # prefix; functions nested in functions record a parent.
                self._collect_defs(
                    node.body,
                    prefix=f"{local}.",
                    class_name=None,
                    parent=info.qualname,
                )
            elif isinstance(node, ast.ClassDef):
                if class_name is None and prefix == "":
                    self.classes[node.name] = ClassInfo(
                        name=node.name,
                        module=self.name,
                        node=node,
                        bases=[b for b in map(_dotted, node.bases) if b],
                    )
                    self._collect_defs(
                        node.body,
                        prefix=f"{node.name}.",
                        class_name=node.name,
                        parent=None,
                    )
                else:  # nested class: collect defs, skip method indexing
                    self._collect_defs(
                        node.body,
                        prefix=f"{prefix}{node.name}.",
                        class_name=None,
                        parent=parent,
                    )


class ProjectModel:
    """Cross-module symbol resolution, call graph, and topology."""

    def __init__(self, files) -> None:
        """``files`` is an iterable of ``(path, source, tree)`` triples."""
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        for path, source, tree in files:
            name = _module_name(Path(path))
            if name in self.modules:  # same stem outside packages: keep 1st
                name = f"{name}@{len(self.modules)}"
            info = ModuleInfo(name, str(path), tree, source)
            self.modules[name] = info
            self.by_path[str(path)] = info
        self.functions: dict[str, FunctionInfo] = {}
        for module in self.modules.values():
            for info in module.functions.values():
                self.functions[info.qualname] = info
            self.functions[module.module_body.qualname] = module.module_body
        self.edges: list[CallEdge] = []
        self.calls_by_caller: dict[str, list[CallEdge]] = {}
        self._build_call_graph()
        self.topology = self._build_topology()

    # -- symbol resolution ---------------------------------------------

    def resolve_dotted(self, module: ModuleInfo, dotted: str, _depth: int = 0):
        """Resolve ``a.b.c`` seen inside ``module`` to a project symbol.

        Returns a :class:`FunctionInfo`, a :class:`ClassInfo`, or ``None``
        (external / unknown).  Follows import aliases across modules with
        a small depth bound so re-export chains terminate.
        """
        if _depth > 6:
            return None
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        # Local definitions first: functions, then classes.
        if not rest and head in module.functions:
            return module.functions[head]
        if head in module.classes:
            cls = module.classes[head]
            if not rest:
                return cls
            if len(rest) == 1 and rest[0] in cls.methods:
                return cls.methods[rest[0]]
            return None
        if head in module.imports:
            target = module.imports[head]
            full = ".".join([target, *rest]) if rest else target
            return self._resolve_global(full, _depth + 1)
        return self._resolve_global(dotted, _depth + 1)

    def _resolve_global(self, dotted: str, _depth: int = 0):
        """Resolve a fully-qualified dotted name against project modules."""
        if _depth > 6:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module_name = ".".join(parts[:cut])
            module = self.modules.get(module_name)
            if module is None:
                continue
            rest = parts[cut:]
            if not rest:
                return module
            local = ".".join(rest)
            if local in module.functions:
                return module.functions[local]
            if rest[0] in module.classes:
                cls = module.classes[rest[0]]
                if len(rest) == 1:
                    return cls
                if len(rest) == 2 and rest[1] in cls.methods:
                    return cls.methods[rest[1]]
                return None
            if rest[0] in module.imports:  # re-export: follow one hop
                target = ".".join([module.imports[rest[0]], *rest[1:]])
                return self._resolve_global(target, _depth + 1)
            return None
        return None

    # -- call graph -----------------------------------------------------

    def _enclosing_functions(self, module: ModuleInfo):
        """Yield ``(info, body_statements)`` for every def plus the module
        body, with nested defs excluded from their parents' statements."""

        def strip_nested(body):
            out = []
            for stmt in body:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                out.append(stmt)
            return out

        for info in module.functions.values():
            yield info, info.node.body
        yield module.module_body, strip_nested(module.tree.body)

    def _instance_types(self, module: ModuleInfo, body) -> dict:
        """``var -> ClassInfo`` for ``var = SomeClass(...)`` assignments."""
        types: dict[str, ClassInfo] = {}
        for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            qual = _dotted(stmt.value.func)
            if qual is None:
                continue
            resolved = self.resolve_dotted(module, qual)
            if isinstance(resolved, ClassInfo):
                types[target.id] = resolved
        return types

    def resolve_call(
        self, module: ModuleInfo, caller: FunctionInfo, call: ast.Call, types: dict
    ):
        """Resolve one call expression; return ``(callee, qual, reason)``."""
        func = call.func
        qual = _dotted(func)
        if qual is None:
            return None, None, "callee is a computed expression"
        parts = qual.split(".")
        # self.method() inside a method body.
        if parts[0] == "self" and caller.class_name is not None:
            cls = module.classes.get(caller.class_name)
            if cls is not None and len(parts) == 2:
                method = cls.methods.get(parts[1])
                if method is not None:
                    return method, qual, None
                base_method = self._base_method(module, cls, parts[1])
                if base_method is not None:
                    return base_method, qual, None
            return None, qual, f"unknown attribute on self: {qual!r}"
        # instance.method() where the instance type is locally evident.
        if parts[0] in types and len(parts) == 2:
            cls = types[parts[0]]
            method = cls.methods.get(parts[1])
            if method is not None:
                return method, qual, None
            base_method = self._base_method(
                self.modules.get(cls.module, module), cls, parts[1]
            )
            if base_method is not None:
                return base_method, qual, None
            return None, qual, f"no method {parts[1]!r} on {cls.name}"
        # Nested defs visible from the enclosing function chain.
        if len(parts) == 1:
            scope = caller.qualname.partition(":")[2]
            while scope:
                nested = module.functions.get(f"{scope}.{parts[0]}")
                if nested is not None:
                    return nested, qual, None
                scope = scope.rpartition(".")[0]
        resolved = self.resolve_dotted(module, qual)
        if isinstance(resolved, FunctionInfo):
            return resolved, qual, None
        if isinstance(resolved, ClassInfo):
            init = resolved.methods.get("__init__")
            if init is not None:
                return init, qual, None
            return None, qual, f"constructor of {resolved.name} has no __init__"
        if isinstance(resolved, ModuleInfo):
            return None, qual, f"{qual!r} names a module, not a callable"
        root = module.imports.get(parts[0], parts[0])
        if root.partition(".")[0] in {m.partition(".")[0] for m in self.modules}:
            return None, qual, f"cannot resolve {qual!r} inside the project"
        return None, qual, f"external callable {qual!r}"

    def _base_method(self, module: ModuleInfo, cls: ClassInfo, name: str):
        for base in cls.bases:
            resolved = self.resolve_dotted(module, base)
            if isinstance(resolved, ClassInfo):
                method = resolved.methods.get(name)
                if method is not None:
                    return method
        return None

    def _build_call_graph(self) -> None:
        for module in self.modules.values():
            for info, body in self._enclosing_functions(module):
                types = self._instance_types(module, body)
                wrapper = ast.Module(body=list(body), type_ignores=[])
                for node in ast.walk(wrapper):
                    if not isinstance(node, ast.Call):
                        continue
                    callee, qual, reason = self.resolve_call(
                        module, info, node, types
                    )
                    edge = CallEdge(
                        caller=info,
                        call=node,
                        qual=qual,
                        callee=callee,
                        reason=reason,
                    )
                    self.edges.append(edge)
                    self.calls_by_caller.setdefault(info.qualname, []).append(edge)

    def unresolved_edges(self) -> list[CallEdge]:
        """Call sites the model could not resolve, for visible reporting."""
        return [edge for edge in self.edges if not edge.resolved]

    def bind_arguments(self, call: ast.Call, callee: FunctionInfo) -> list:
        """``(param_name, arg_expr)`` pairs for a resolved call.

        Starred/double-starred arguments bind conservatively to every
        remaining parameter — flow rules must assume the value may reach
        any of them.
        """
        params = callee.bindable_params
        pairs: list = []
        index = 0
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                for param in params[index:]:
                    pairs.append((param, arg.value))
                index = len(params)
                continue
            if index < len(params):
                pairs.append((params[index], arg))
            index += 1
        for keyword in call.keywords:
            if keyword.arg is None:  # **kwargs
                for param in params:
                    pairs.append((param, keyword.value))
            elif keyword.arg in params:
                pairs.append((keyword.arg, keyword.value))
        return pairs

    # -- process topology -----------------------------------------------

    def _function_reference(self, module: ModuleInfo, node: ast.AST):
        """A Name/Attribute argument that names a project function."""
        qual = _dotted(node)
        if qual is None:
            return None
        resolved = self.resolve_dotted(module, qual)
        return resolved if isinstance(resolved, FunctionInfo) else None

    def _build_topology(self) -> Topology:
        topology = Topology()
        for module in self.modules.values():
            for info, body in self._enclosing_functions(module):
                wrapper = ast.Module(body=list(body), type_ignores=[])
                for node in ast.walk(wrapper):
                    if not isinstance(node, ast.Call):
                        continue
                    site = self._spawn_site(module, info, node)
                    if site is not None:
                        topology.spawn_sites.append(site)
        worker_roots = {site.target.qualname for site in topology.spawn_sites}
        topology.worker_side = self._reachable(worker_roots)
        spawners = {site.caller.qualname for site in topology.spawn_sites}
        topology.supervisor_side = self._reachable(spawners) - worker_roots
        return topology

    def _spawn_site(self, module, caller, call: ast.Call):
        qual = _dotted(call.func)
        if qual is None:
            return None
        terminal = qual.rpartition(".")[2]
        if terminal == "Process":
            target_expr = None
            for keyword in call.keywords:
                if keyword.arg == "target":
                    target_expr = keyword.value
            if target_expr is None and call.args:
                target_expr = call.args[0]
            if target_expr is None:
                return None
            target = self._function_reference(module, target_expr)
            if target is None:
                return None
            bindings: list = []
            for keyword in call.keywords:
                if keyword.arg == "args" and isinstance(
                    keyword.value, (ast.Tuple, ast.List)
                ):
                    params = target.bindable_params
                    for index, element in enumerate(keyword.value.elts):
                        if index < len(params):
                            bindings.append((params[index], element))
            return SpawnSite(
                caller=caller, call=call, target=target, kind="process",
                bindings=bindings,
            )
        if terminal in POOL_DISPATCH and isinstance(call.func, ast.Attribute):
            if not call.args:
                return None
            target = self._function_reference(module, call.args[0])
            if target is None:
                return None
            return SpawnSite(caller=caller, call=call, target=target, kind="pool")
        return None

    def _reachable(self, roots: set) -> set:
        """Transitive closure over resolved call edges *and* function
        references passed as arguments (covers ``functools.partial``)."""
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            module = None
            info = self.functions.get(current)
            if info is not None:
                module = self.modules.get(info.module)
            for edge in self.calls_by_caller.get(current, ()):
                targets = []
                if edge.callee is not None:
                    targets.append(edge.callee.qualname)
                if module is not None:
                    for arg in [*edge.call.args, *[k.value for k in edge.call.keywords]]:
                        ref = self._function_reference(module, arg)
                        if ref is not None:
                            targets.append(ref.qualname)
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
        return seen

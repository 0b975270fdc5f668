"""Declarative algorithm registry: :class:`AlgorithmSpec` + discovery.

Every algorithm the sweep can run is described by one
:class:`AlgorithmSpec` — name, dotted entry point, execution model, oracle,
and a parameter schema — instead of an ad hoc driver closure.  The driver
callable itself is resolved lazily from ``entry_point`` (``"module:attr"``),
so registration is import-light and the registry is fully serializable (a
registry dump is just a list of spec dicts).

Third-party scenarios plug in without editing this module, via either

* Python entry points in the ``repro.scenarios`` group — an installed
  distribution declares ``[project.entry-points."repro.scenarios"]`` and the
  loaded object (a module or zero-argument callable) registers its
  algorithms/scenarios on import/call; or
* the ``REPRO_PLUGINS`` environment variable — a comma-separated list of
  ``module`` or ``module:callable`` strings, same contract, no packaging
  required.

:func:`discover` runs both once per process; the scenario registry invokes
it automatically before resolving names, so ``repro sweep --scenarios
yourpkg/custom`` works as soon as the plugin is importable.  A plugin's
driver owes the built-ins' determinism contract (no clock, environment or
global-RNG reads; no hash-order dependence), which the test suite checks
at run time for every scenario registered when it runs.
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = [
    "AlgorithmSpec",
    "PARAM_TYPES",
    "check_params",
    "register_algorithm_spec",
    "get_algorithm_spec",
    "list_algorithm_specs",
    "resolve_entry_point",
    "discover",
]

#: Type names a ``param_schema`` may declare, with their Python types.
#: ``bool`` precedes the ``int`` check (``bool`` is an ``int`` subclass).
PARAM_TYPES: dict[str, type] = {"bool": bool, "int": int, "float": float, "str": str}


def _accepts_var_keyword(signature) -> bool:
    """Whether a driver signature takes ``**kwargs`` (accepts any param)."""
    import inspect

    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )

#: Entry-point group scanned by :func:`discover`.
PLUGIN_GROUP = "repro.scenarios"
#: Environment variable naming extra plugin modules (comma-separated).
PLUGIN_ENV = "REPRO_PLUGINS"


def resolve_entry_point(entry_point: str) -> Callable:
    """Resolve ``"pkg.module:attr"`` (or dotted ``attr.sub``) to the object."""
    module_name, sep, attr_path = entry_point.partition(":")
    if not sep or not module_name or not attr_path:
        raise ValueError(
            f"entry point {entry_point!r} must look like 'package.module:attribute'"
        )
    obj = importlib.import_module(module_name)
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm, declaratively.

    ``entry_point`` names the uniform driver ``driver(graph, seed, metrics,
    **params)`` as ``"module:attr"``; ``oracle`` (optional, same syntax)
    names the sequential ground truth the driver self-verifies against.
    ``model`` records the execution model the costs are metered in
    (``"congest"`` or ``"sleeping"``), and ``param_schema`` is a tuple of
    ``(param_name, type_name)`` pairs documenting the driver's keyword
    parameters.  ``fault_tolerance`` declares which fault kinds
    (``"drop"``, ``"dup"``, ``"crash"`` — see :mod:`repro.sim.faults`) the
    algorithm provably survives; the sweep layer refuses to inject other
    kinds without an explicit override.  The callable is resolved lazily
    and cached per process, so forked sweep workers resolve it
    independently via a plain import.
    """

    name: str
    entry_point: str
    model: str = "congest"
    oracle: str | None = None
    param_schema: tuple = ()
    description: str = ""
    fault_tolerance: tuple = ()
    # Escape hatch for in-process registration (tests, notebooks): a direct
    # callable wins over entry_point but cannot be serialized or re-imported.
    driver: Callable | None = field(default=None, compare=False, repr=False)

    def resolve(self) -> Callable:
        """The driver callable behind this spec."""
        if self.driver is not None:
            return self.driver
        resolved = _RESOLVED.get(self.name)
        if resolved is None:
            resolved = resolve_entry_point(self.entry_point)
            _RESOLVED[self.name] = resolved
        return resolved

    def check_schema_shape(self) -> "AlgorithmSpec":
        """Validate the declared schema itself, without resolving the driver.

        Import-light (no entry-point resolution), so
        :func:`register_algorithm_spec` can run it on every registration:
        a mistyped schema fails loudly at registration, never as a raw
        ``KeyError`` deep inside a sweep.
        """
        if self.model not in ("congest", "sleeping"):
            raise ValueError(
                f"algorithm {self.name!r}: model must be 'congest' or "
                f"'sleeping', got {self.model!r}"
            )
        for pair in self.param_schema:
            if len(tuple(pair)) != 2:
                raise ValueError(
                    f"algorithm {self.name!r}: param_schema entries must be "
                    f"(name, type) pairs, got {pair!r}"
                )
            param, type_name = pair
            if type_name not in PARAM_TYPES:
                raise ValueError(
                    f"algorithm {self.name!r}: param {param!r} has unknown "
                    f"type {type_name!r} (options: {sorted(PARAM_TYPES)})"
                )
        for kind in self.fault_tolerance:
            if kind not in ("drop", "dup", "crash"):
                raise ValueError(
                    f"algorithm {self.name!r}: unknown fault kind {kind!r} "
                    f"in fault_tolerance (options: ['crash', 'drop', 'dup'])"
                )
        return self

    def validate(self) -> "AlgorithmSpec":
        """Check the spec is internally consistent; return ``self``.

        Everything :meth:`check_schema_shape` checks, plus that the
        resolved driver actually accepts each declared parameter as a
        keyword argument (so a schema can never drift from its driver).
        Resolving imports the driver's module, so this runs on demand (and
        in the registry test suite), not at registration.
        """
        import inspect

        self.check_schema_shape()
        driver = self.resolve()
        signature = inspect.signature(driver)
        if not _accepts_var_keyword(signature):
            for param, _type_name in self.param_schema:
                if param not in signature.parameters:
                    raise ValueError(
                        f"algorithm {self.name!r}: param_schema declares "
                        f"{param!r} but driver {driver.__name__} does not "
                        f"accept it"
                    )
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "entry_point": self.entry_point,
            "model": self.model,
            "oracle": self.oracle,
            "param_schema": [list(pair) for pair in self.param_schema],
            "description": self.description,
            "fault_tolerance": list(self.fault_tolerance),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AlgorithmSpec":
        data = dict(data)
        data["param_schema"] = tuple(tuple(pair) for pair in data.get("param_schema", ()))
        data["fault_tolerance"] = tuple(data.get("fault_tolerance", ()))
        return cls(**data)


def check_params(spec: AlgorithmSpec, params: dict) -> None:
    """Validate scenario ``params`` against ``spec.param_schema``.

    Every parameter must be declared in the schema and carry a value of
    the declared type.  When the spec declares *no* schema (a bare
    ``driver`` callable with an empty ``entry_point``), the driver is
    resolved and its signature checked instead, so an unknown keyword
    still fails here — at registration, with a pinpointed ``ValueError``
    — rather than as a ``TypeError`` inside a forked sweep worker.
    """
    if not params:
        return
    schema = dict(spec.param_schema)
    if not schema:
        import inspect

        signature = inspect.signature(spec.resolve())
        if not _accepts_var_keyword(signature):
            for name in params:
                if name not in signature.parameters:
                    raise ValueError(
                        f"algorithm {spec.name!r}: driver does not accept "
                        f"param {name!r} (and the spec declares no schema)"
                    )
        return
    for name, value in params.items():
        if name not in schema:
            raise ValueError(
                f"algorithm {spec.name!r}: unknown param {name!r} "
                f"(declared: {sorted(schema)})"
            )
        expected = PARAM_TYPES.get(schema[name])
        if expected is None:
            # Registration validates schema shape, but stay defensive
            # for specs constructed outside register_algorithm_spec.
            raise ValueError(
                f"algorithm {spec.name!r}: param {name!r} declares "
                f"unknown type {schema[name]!r} (options: {sorted(PARAM_TYPES)})"
            )
        if expected is not bool and isinstance(value, bool):
            raise ValueError(
                f"algorithm {spec.name!r}: param {name!r} must be "
                f"{schema[name]}, got {value!r}"
            )
        if not isinstance(value, expected) and not (
            expected is float and isinstance(value, int)
        ):
            raise ValueError(
                f"algorithm {spec.name!r}: param {name!r} must be "
                f"{schema[name]}, got {value!r}"
            )


_SPECS: dict[str, AlgorithmSpec] = {}
_RESOLVED: dict[str, Callable] = {}


def register_algorithm_spec(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec`` (replacing any same-named entry) and return it.

    Validates the schema *shape* (model tag, param names/types) without
    resolving the entry point — registration stays import-light, but a
    drifted schema fails here instead of deep inside a sweep worker.
    """
    if not spec.name:
        raise ValueError("algorithm spec needs a non-empty name")
    if spec.driver is None and not spec.entry_point:
        raise ValueError(f"algorithm spec {spec.name!r} needs an entry_point or driver")
    spec.check_schema_shape()
    _SPECS[spec.name] = spec
    _RESOLVED.pop(spec.name, None)
    return spec


def get_algorithm_spec(name: str) -> AlgorithmSpec:
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {sorted(_SPECS)}"
        ) from None


def list_algorithm_specs() -> list[AlgorithmSpec]:
    """All registered specs, name-sorted."""
    return [_SPECS[name] for name in sorted(_SPECS)]


# ----------------------------------------------------------------------
# plugin discovery
# ----------------------------------------------------------------------
_discovered = False


def _load_plugin(target) -> None:
    """Import/call one plugin target; registration is its import side effect."""
    obj = target
    if isinstance(target, str):
        obj = (
            resolve_entry_point(target) if ":" in target
            else importlib.import_module(target)
        )
    if callable(obj):
        obj()


def discover(*, force: bool = False) -> list[str]:
    """Load scenario plugins from entry points and ``REPRO_PLUGINS``.

    Runs at most once per process unless ``force=True``.  Returns the list
    of plugin names that loaded; failures raise so a broken plugin is loud
    rather than silently absent.
    """
    global _discovered
    if _discovered and not force:
        return []
    _discovered = True
    loaded: list[str] = []
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - py3.7 fallback, not supported
        metadata = None
    if metadata is not None:
        try:
            entry_points = metadata.entry_points(group=PLUGIN_GROUP)
        except TypeError:  # pragma: no cover - pre-3.10 select API
            entry_points = metadata.entry_points().get(PLUGIN_GROUP, ())
        for entry in entry_points:
            _load_plugin(entry.load())
            loaded.append(entry.name)
    for target in filter(None, os.environ.get(PLUGIN_ENV, "").split(",")):
        _load_plugin(target.strip())
        loaded.append(target.strip())
    return loaded

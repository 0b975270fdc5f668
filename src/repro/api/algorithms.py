"""In-process algorithm registry: one :class:`AlgorithmSpec` per driver.

Every algorithm the sweep can run is one :class:`AlgorithmSpec`: a name,
the driver callable ``driver(graph, seed, metrics, **params)``, the
execution model its costs are metered in, the oracle it self-verifies
against (display text), and the fault kinds it survives.  The driver's
signature is its parameter schema: the keyword parameters after
``(graph, seed, metrics)``, each with a default whose type is the
parameter's type (:meth:`AlgorithmSpec.params`).

Registering an algorithm is one call made before the sweep starts,
``register_algorithm_spec(AlgorithmSpec(name, fn))``; forked sweep workers
inherit the registry.  A registered driver owes the built-ins' determinism
contract (no clock, environment or global-RNG reads; no hash-order
dependence), which the test suite checks at run time for every scenario
registered when it runs.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "AlgorithmSpec",
    "check_params",
    "register_algorithm_spec",
    "get_algorithm_spec",
    "list_algorithm_specs",
]

#: Execution models a spec may declare.
MODELS = ("congest", "sleeping")
#: Fault kinds a spec may declare tolerance for (see :mod:`repro.sim.faults`).
FAULT_KINDS = ("crash", "drop", "dup")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm.

    ``driver`` is the uniform driver ``driver(graph, seed, metrics,
    **params)``; ``oracle`` names the sequential ground truth it
    self-verifies against (shown by ``repro info``).  ``model`` records
    the execution model the costs are metered in (``"congest"`` or
    ``"sleeping"``).  ``fault_tolerance`` declares which fault kinds
    (``"drop"``, ``"dup"``, ``"crash"``) the algorithm provably survives;
    the sweep layer refuses to inject other kinds without an explicit
    override.
    """

    name: str
    driver: Callable
    model: str = "congest"
    oracle: str = ""
    description: str = ""
    fault_tolerance: tuple = ()

    def resolve(self) -> Callable:
        """The driver callable: the one place a cell fetches it (and a tracer wraps it)."""
        return self.driver

    def params(self) -> dict:
        """The driver's parameters after ``(graph, seed, metrics)``: name -> default."""
        return {p.name: p.default for p in _driver_params(self.driver)}


def _driver_params(driver: Callable) -> list:
    return list(inspect.signature(driver).parameters.values())[3:]


def check_params(spec: AlgorithmSpec, params: dict) -> None:
    """Validate scenario ``params`` against the driver's signature.

    Every parameter must be one the driver declares and carry a value of
    its default's type (a ``bool`` is not an ``int``), so a drifted name
    or type fails at registration, not inside a forked sweep worker.
    """
    declared = spec.params()
    for name, value in params.items():
        if name not in declared:
            raise ValueError(
                f"algorithm {spec.name!r}: unknown param {name!r} "
                f"(declared: {sorted(declared)})"
            )
        expected = type(declared[name])
        if not isinstance(value, expected) or (
            isinstance(value, bool) and expected is not bool
        ):
            raise ValueError(
                f"algorithm {spec.name!r}: param {name!r} must be "
                f"{expected.__name__}, got {value!r}"
            )


_SPECS: dict[str, AlgorithmSpec] = {}


def register_algorithm_spec(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec`` (replacing any same-named entry) and return it.

    Rejects an unknown model or fault kind, and a driver parameter with no
    default: the default is what types the parameter.
    """
    if not spec.name:
        raise ValueError("algorithm spec needs a non-empty name")
    if spec.model not in MODELS:
        raise ValueError(
            f"algorithm {spec.name!r}: model must be 'congest' or "
            f"'sleeping', got {spec.model!r}"
        )
    for kind in spec.fault_tolerance:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"algorithm {spec.name!r}: unknown fault kind {kind!r} "
                f"in fault_tolerance (options: {list(FAULT_KINDS)})"
            )
    for param in _driver_params(spec.driver):
        if param.default is inspect.Parameter.empty:
            raise ValueError(
                f"algorithm {spec.name!r}: driver parameter {param.name!r} "
                f"needs a default (its type is the parameter's type)"
            )
    _SPECS[spec.name] = spec
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

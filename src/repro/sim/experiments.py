"""Scenario registry and the per-cell experiment engine.

Every result in the paper is a *metered execution*: run a protocol over a
graph family at a sweep of sizes and read off the four complexity currencies
(rounds, messages, congestion, energy).  This module turns that pattern into
data:

* a **scenario** is a named triple *(graph family x algorithm x params)* —
  e.g. ``sssp/er`` is "the paper's SSSP on weighted random connected
  graphs".  Scenarios live in a registry (:func:`register_scenario`,
  :func:`get_scenario`, :func:`list_scenarios`) so new workloads are one
  registration, not a new benchmark harness;
* an **algorithm** is one :class:`repro.api.AlgorithmSpec` (name, driver
  callable, model, oracle, fault tolerance) whose driver signature is its
  parameter schema — the built-ins live in :mod:`repro.api.drivers`, and
  any other module registers its own with
  :func:`repro.api.register_algorithm_spec` before the sweep starts;
* :func:`run_scenario` executes one *(scenario, size, seed)* cell on a
  freshly built graph instance and returns its tidy row.

Orchestration lives one layer up, in :mod:`repro.api`: build a
:class:`~repro.api.SweepSpec` and hand it to
:func:`~repro.api.run_sweep_spec`, which shards the cross product across
``multiprocessing`` workers, streams rows into a resumable
:class:`~repro.api.ResultSet`, and skips cells an earlier (possibly
interrupted) run already finished.

Example::

    from repro.api import SweepSpec, run_sweep_spec
    rows = run_sweep_spec(SweepSpec(scenarios=("sssp/er", "bellman-ford/er"),
                                    sizes=(16, 32, 64), seeds=(0, 1),
                                    workers=4))

Notes on parallelism: workers are forked, so scenarios registered at import
time (including any registered by your own modules before the sweep starts)
are visible to them.  On platforms without ``fork`` the sweep silently runs
sequentially — same rows, just slower.

Graph ownership: scenario cells that share a ``(family, max_weight, n,
seed)`` instance (:meth:`Scenario.instance_key`) — e.g. ``sssp/er`` and
``bellman-ford/er`` at the same size and seed — form one locality group,
and the sweep executor (:mod:`repro.api.run`) runs each group on one graph
object, which also carries the frozen :class:`~repro.graphs.IndexedGraph`
view across its cells.  The group builds that graph once (a parallel
worker attaches it from the group's shared-memory segment instead) and
drops it when the group ends; no module-level map keeps a graph alive.
The executor then restores cross-product row order before returning: the
tidy table is bit-identical at any worker count.  Algorithms must treat
graphs as read-only (the library-wide append-only convention).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..api.algorithms import check_params, get_algorithm_spec, list_algorithm_specs
from ..api.drivers import BUILTIN_ALGORITHMS, DriverError  # noqa: F401 (registers built-ins)
from ..graphs import generators
from .events import canonical_latency, choose_engine, simulation_engine
from .faults import canonical_fault, parse_fault_model
from .kernels import current_backend
from .metrics import Metrics

__all__ = [
    "Scenario",
    "SweepError",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "list_algorithms",
    "run_scenario",
    "scenario_digest",
    "clear_graph_cache",
    "ROW_FIELDS",
]

#: Column order of a tidy sweep row (all deterministic — no wall-clock).
#: ``params_digest`` pins the scenario *definition* the cell ran under (see
#: :func:`scenario_digest`); drivers may append scenario-specific quality
#: columns after these (sorted by name — see :func:`run_scenario`).
ROW_FIELDS = (
    "scenario",
    "family",
    "algorithm",
    "n",
    "m",
    "seed",
    "size",
    "params_digest",
    "latency_model",
    "rounds",
    "messages",
    "lost_messages",
    "congestion",
    "energy",
)


class SweepError(RuntimeError):
    """Raised for unknown scenarios/algorithms or in-run verification failures."""


@dataclass(frozen=True)
class Scenario:
    """One registered workload: a graph family, an algorithm, and parameters.

    ``family`` keys into :data:`repro.graphs.generators.FAMILIES`;
    ``algorithm`` keys into the :class:`~repro.api.AlgorithmSpec` registry.
    ``max_weight`` is an int ``>= 1`` (registration rejects anything
    else); ``max_weight > 1`` gives instances random integer weights in
    ``[1, max_weight]`` drawn from the per-run seed, so every ``(size,
    seed)`` cell is a distinct instance.  ``params`` is a tuple of ``(key,
    value)`` pairs forwarded to the driver (kept as a tuple so scenarios
    stay hashable and picklable).

    ``latency_model`` is the network model the cell runs under (see
    :func:`repro.sim.parse_latency_model` for the grammar).  The default
    ``"unit"`` is the paper's synchronous network and runs on the
    synchronous engine; anything else runs on the event engine with
    per-edge delays seeded by the cell's sweep seed, making latency a real
    sweep axis — same protocol, same instance, different network.

    ``fault_model`` is the fault plane of the cell (see
    :func:`repro.sim.parse_fault_model` for the grammar — ``drop:p``,
    ``dup:p``, ``crash:k@r[+restart:d]`` and ``+``-compositions).  The
    default ``"none"`` is the fault-free network; anything else injects
    seeded faults into *both* engines, and registration enforces that the
    algorithm declares tolerance for every injected fault kind
    (:attr:`repro.api.AlgorithmSpec.fault_tolerance`).

    ``max_time`` / ``message_budget`` are the event engine's stopping
    bounds (virtual time and bandwidth); setting either pins the cell to
    the event engine and surfaces ``stop_reason``/``virtual_time`` row
    columns.
    """

    name: str
    family: str
    algorithm: str
    max_weight: int = 1
    params: tuple = ()
    description: str = ""
    latency_model: str = "unit"
    fault_model: str = "none"
    max_time: int | None = None
    message_budget: int | None = None

    @property
    def bounded(self) -> bool:
        """Whether a stopping bound pins this scenario to the event engine."""
        return self.max_time is not None or self.message_budget is not None

    def build_graph(self, n: int, seed: int):
        return generators.make_family(self.family, n, self.max_weight, seed=seed)

    def instance_key(self, n: int, seed: int) -> tuple:
        """The graph instance a ``(size, seed)`` cell runs on.

        Scenarios that share a family and ``max_weight`` share instances,
        so this key groups cells into the sweep's locality groups, each
        of which runs on one graph, and deals those groups to shards.
        """
        return (self.family, self.max_weight, n, seed)


_SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the registry (replacing any same-named entry).

    Rejects unknown families and algorithms, and validates the scenario's
    ``params`` against the algorithm driver's signature — a drifted
    parameter name or type fails here, at registration, not inside a
    forked sweep worker.
    """
    if scenario.family not in generators.FAMILIES:
        raise SweepError(
            f"scenario {scenario.name!r}: unknown family {scenario.family!r} "
            f"(options: {sorted(generators.FAMILIES)})"
        )
    try:
        spec = get_algorithm_spec(scenario.algorithm)
    except KeyError:
        raise SweepError(
            f"scenario {scenario.name!r}: unknown algorithm {scenario.algorithm!r} "
            f"(options: {[spec.name for spec in list_algorithm_specs()]})"
        ) from None
    try:
        check_params(spec, dict(scenario.params))
    except ValueError as exc:
        raise SweepError(f"scenario {scenario.name!r}: {exc}") from None
    try:
        canonical_latency(scenario.latency_model)
    except ValueError as exc:
        raise SweepError(f"scenario {scenario.name!r}: {exc}") from None
    try:
        canon_fault = canonical_fault(scenario.fault_model)
    except ValueError as exc:
        raise SweepError(f"scenario {scenario.name!r}: {exc}") from None
    if canon_fault != "none":
        kinds = parse_fault_model(canon_fault).kinds
        missing = sorted(kinds - frozenset(spec.fault_tolerance))
        if missing:
            raise SweepError(
                f"scenario {scenario.name!r}: algorithm {scenario.algorithm!r} "
                f"declares no tolerance for fault kind(s) {missing} "
                f"(declared: {sorted(spec.fault_tolerance) or 'none'})"
            )
    weight = scenario.max_weight
    if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
        raise SweepError(
            f"scenario {scenario.name!r}: max_weight must be an int >= 1, "
            f"got {weight!r}"
        )
    for bound_name in ("max_time", "message_budget"):
        bound = getattr(scenario, bound_name)
        if bound is not None and (isinstance(bound, bool) or not isinstance(bound, int) or bound < 1):
            raise SweepError(
                f"scenario {scenario.name!r}: {bound_name} must be a positive "
                f"int or None, got {bound!r}"
            )
    _SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_digest(
    scenario: Scenario,
    latency_model: str | None = None,
    fault_model: str | None = None,
) -> str:
    """Short canonical digest of everything that determines a cell's result.

    Hashes the scenario *definition* — family, algorithm, ``max_weight``,
    the full ``params`` mapping, and (when not ``"unit"``/``"none"``) the
    latency and fault models, plus any stopping bounds — as canonical
    JSON.  The digest rides in every tidy row (``params_digest``) and in
    the resume key (:func:`repro.api.cell_key`), so a store written under
    one definition of a scenario name can never silently satisfy a resume
    under another: changed params produce a different key and the stale
    cells re-run.

    ``latency_model`` / ``fault_model`` override the scenario's own models
    (the sweep-level axes).  The canonical ``"unit"`` latency and
    ``"none"`` fault plane are *omitted* from the payload — fault-free
    unit-latency digests are identical to pre-latency/pre-fault ones, so
    existing stores keep resuming — and the executing engine is never
    hashed: under unit latency both engines produce the same rows by
    construction, so engine choice is provenance, not identity.
    """
    effective = canonical_latency(
        latency_model if latency_model is not None else scenario.latency_model
    )
    effective_fault = canonical_fault(
        fault_model if fault_model is not None else scenario.fault_model
    )
    payload_dict = {
        "family": scenario.family,
        "algorithm": scenario.algorithm,
        "max_weight": scenario.max_weight,
        # dict() accepts both the canonical pair-tuple and a plain
        # mapping, like every other consumer of scenario.params.
        "params": {str(k): v for k, v in dict(scenario.params).items()},
    }
    if effective != "unit":
        payload_dict["latency_model"] = effective
    if effective_fault != "none":
        payload_dict["fault_model"] = effective_fault
    if scenario.max_time is not None:
        payload_dict["max_time"] = scenario.max_time
    if scenario.message_budget is not None:
        payload_dict["message_budget"] = scenario.message_budget
    payload = json.dumps(payload_dict, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def ensure_discovered() -> None:
    """Do nothing: the registry is in process, so there is nothing to load.

    Kept because ``perfbench/run.py``'s set-up probe calls it.
    """


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise SweepError(
            f"unknown scenario {name!r}; registered: {sorted(_SCENARIOS)}"
        ) from None


def list_scenarios() -> list[str]:
    return sorted(_SCENARIOS)


def list_algorithms() -> list[str]:
    return [spec.name for spec in list_algorithm_specs()]


# ----------------------------------------------------------------------
# built-in scenarios: the paper's headline comparisons as registry entries
# ----------------------------------------------------------------------
for _scenario in (
    Scenario("sssp/er", "er", "sssp", max_weight=9,
             description="paper SSSP on weighted random connected graphs"),
    Scenario("sssp/grid", "grid", "sssp", max_weight=9,
             description="paper SSSP on weighted grids (D ~ sqrt(n))"),
    Scenario("sssp/path", "path", "sssp", max_weight=9,
             description="paper SSSP on weighted paths (D ~ n)"),
    Scenario("cssp/er", "er", "cssp", max_weight=9,
             description="thresholded CSSP on weighted random graphs"),
    Scenario("bellman-ford/er", "er", "bellman-ford", max_weight=9,
             description="Bellman-Ford baseline on weighted random graphs"),
    Scenario("dijkstra/er", "er", "dijkstra", max_weight=9,
             description="distributed Dijkstra baseline on weighted random graphs"),
    Scenario("bfs/grid", "grid", "bfs",
             description="unweighted CONGEST BFS on grids"),
    Scenario("boruvka/er", "er", "boruvka",
             description="Boruvka spanning forest on unit-weight random graphs"),
    Scenario("apsp/er", "er", "apsp", max_weight=9,
             description="random-delay concurrent APSP on weighted random graphs"),
    Scenario("labeled-bfs/grid", "grid", "labeled-bfs", max_weight=9,
             description="nearest-labeled-source BFS on weighted grids"),
    Scenario("decomposition/er", "er", "decomposition",
             description="k-separated decomposition on unit-weight random graphs"),
    Scenario("sparse-cover/grid", "grid", "sparse-cover",
             description="sparse d-cover on unit-weight grids"),
    Scenario("layered-cover/tree", "tree", "layered-cover",
             description="layered sparse cover stack on random trees"),
    Scenario("tree-aggregation/tree", "tree", "tree-aggregation",
             description="periodic sleeping-model tree aggregation on random trees"),
    Scenario("energy-bfs/path", "path", "energy-bfs",
             description="sleeping-model BFS on paths (energy metric)"),
    Scenario("energy-bfs-scratch/tree", "tree", "energy-bfs-scratch",
             description="from-scratch low-energy BFS bootstrap on random trees"),
    Scenario("energy-cssp/er", "er", "energy-cssp", max_weight=4,
             description="energy-model weighted CSSP on weighted random graphs"),
    # Latency-heterogeneous axis: the same Bellman-Ford workload under
    # asynchronous networks (event engine).  Bellman-Ford is delay-tolerant
    # — relaxation is monotone, so it converges to correct distances under
    # any per-edge delays once its horizon scales by the latency bound
    # (see repro.baselines.bellman_ford) — which makes it the honest
    # catalog entry for the latency axis; round-timing-dependent protocols
    # (BFS layers, SSSP phases) are *not* registered heterogeneous.
    Scenario("bellman-ford/er@delay4", "er", "bellman-ford", max_weight=9,
             latency_model="random:4",
             description="Bellman-Ford under seeded random per-edge delays in 1..4"),
    Scenario("bellman-ford/grid@stretch3", "grid", "bellman-ford", max_weight=9,
             latency_model="uniform:3",
             description="Bellman-Ford under uniformly tripled edge latency"),
    # Fault-injection axis: seeded drop/dup/crash-restart planes on the
    # protocols whose specs declare tolerance for them (see
    # repro.api.drivers).  Bellman-Ford re-broadcasts every round, so
    # drops retry and restarted nodes relearn (fully tolerant); BFS offers
    # are one-shot, so it is registered only under dup/crash planes —
    # injecting drops into it is the negative control the fault tests
    # exercise via run_scenario's ungated fault_model override.
    Scenario("bellman-ford/er@drop5", "er", "bellman-ford", max_weight=9,
             fault_model="drop:0.05",
             description="Bellman-Ford with 5% seeded message drops"),
    Scenario("bellman-ford/grid@lossy", "grid", "bellman-ford", max_weight=9,
             fault_model="drop:0.1+dup:0.05",
             description="Bellman-Ford under combined drop and duplication"),
    Scenario("bellman-ford/er@crashrestart", "er", "bellman-ford", max_weight=9,
             fault_model="crash:2@2+restart:3",
             description="Bellman-Ford with two crash-restart nodes"),
    Scenario("bfs/grid@crash2", "grid", "bfs",
             fault_model="crash:2@3+restart:6",
             description="CONGEST BFS with two crash-restart nodes on grids"),
    # Duration-bounded axis: the same lossy Bellman-Ford workload under a
    # virtual-time budget (event engine), surfacing stop_reason and the
    # final virtual time as row columns.
    Scenario("bellman-ford/er@budget", "er", "bellman-ford", max_weight=9,
             fault_model="drop:0.05", max_time=24,
             description="lossy Bellman-Ford cut short by a virtual-time budget"),
):
    register_scenario(_scenario)


# ----------------------------------------------------------------------
# per-cell execution (the worker-side engine)
# ----------------------------------------------------------------------
def clear_graph_cache() -> None:
    """Do nothing: no graph outlives the cell group that built it.

    Kept because ``perfbench/workloads.py`` calls it before each pass.
    """


def _run_cell(
    name: str,
    n: int,
    seed: int,
    engine: str | None = None,
    latency_model: str | None = None,
    fault_model: str | None = None,
    graph=None,
) -> tuple[dict, Metrics]:
    """Execute one cell; return its tidy row and the full metrics object.

    ``latency_model`` / ``fault_model`` override the scenario's own
    network and fault models (the sweep-level axes) and ``engine`` pins
    the executor backend; :func:`~repro.sim.events.choose_engine` picks
    it otherwise (round for unit-latency unbounded cells, event for the
    rest) and rejects a pin it cannot honour.  Seeded latency
    models and every fault draw key off the cell's sweep seed.  The
    engine never appears in the row — under unit latency both engines
    are differentially identical (faulted or not), so it is provenance,
    not part of the result's identity.

    A driver may return a dict of scenario-specific quality columns (MST
    weight, cover degree/radius, ``robustness`` verdicts, ``preprocess_*``
    costs, ...); they are appended to the row after the core
    :data:`ROW_FIELDS`, in sorted key order so fresh and store-reloaded
    rows agree byte-for-byte.  Faulted cells additionally append the
    ``fault_model`` axis value and the four fault counters; cells whose
    run was cut short by a stopping bound append
    ``stop_reason``/``virtual_time``.  Fault-free unbounded rows carry
    none of these, keeping them byte-identical to pre-fault stores.

    ``graph`` is the cell's instance when the caller already holds it (its
    cell group's graph); otherwise the cell builds it.
    """
    scenario = get_scenario(name)
    effective_latency = (
        latency_model if latency_model is not None else scenario.latency_model
    )
    effective_fault = (
        fault_model if fault_model is not None else scenario.fault_model
    )
    try:
        canonical = canonical_latency(effective_latency)
        canonical_fault_model = canonical_fault(effective_fault)
        effective_engine = choose_engine(engine, canonical, scenario.bounded)
    except ValueError as exc:
        # An unparseable latency/fault string or an engine mismatch is a
        # configuration error, reported like any other bad sweep input.
        raise SweepError(f"cell {name!r}: {exc}") from exc
    # The first backend resolution imports numpy: do it before the graph
    # build and the driver run, never inside them.
    current_backend()
    if graph is None:
        graph = scenario.build_graph(n, seed)
    metrics = Metrics()
    driver = get_algorithm_spec(scenario.algorithm).resolve()
    try:
        with simulation_engine(
            effective_engine,
            effective_latency,
            seed=seed,
            faults=canonical_fault_model,
            max_time=scenario.max_time,
            message_budget=scenario.message_budget,
        ) as config:
            extras = driver(graph, seed, metrics, **dict(scenario.params))
    except DriverError as exc:
        raise SweepError(str(exc)) from exc
    summary = metrics.summary()
    row = {
        "scenario": scenario.name,
        "family": scenario.family,
        "algorithm": scenario.algorithm,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "seed": seed,
        # The *requested* size.  Families may round it (a grid at size 12
        # builds a 3x3 = 9-node instance), but resume and sharding address
        # cells by what was asked for — keying on graph.num_nodes made
        # every resume lookup miss on such families and silently re-run
        # their cells (see repro.api.cell_key).
        "size": n,
        "params_digest": scenario_digest(
            scenario, latency_model=effective_latency, fault_model=effective_fault
        ),
        "latency_model": canonical,
        "rounds": summary["rounds"],
        "messages": summary["messages"],
        "lost_messages": summary["lost_messages"],
        "congestion": summary["congestion"],
        "energy": summary["energy"],
    }
    if extras is not None and not isinstance(extras, dict):
        raise SweepError(
            f"driver for {scenario.algorithm!r} returned {type(extras).__name__}; "
            "drivers return None or a dict of quality columns"
        )
    merged = dict(extras) if extras else {}
    if canonical_fault_model != "none":
        merged.setdefault("fault_model", canonical_fault_model)
        merged.setdefault("messages_dropped", metrics.messages_dropped)
        merged.setdefault("messages_duplicated", metrics.messages_duplicated)
        merged.setdefault("nodes_crashed", metrics.nodes_crashed)
        merged.setdefault("recoveries", metrics.recoveries)
    if scenario.bounded or config.stats.stop_reason is not None:
        merged.setdefault("stop_reason", config.stats.stop_reason or "completed")
        merged.setdefault("virtual_time", config.stats.virtual_time)
    for key in sorted(merged):
        if key in row or key == "metrics":
            raise SweepError(
                f"driver for {scenario.algorithm!r}: quality column {key!r} "
                "collides with a core row field"
            )
        row[key] = merged[key]
    return row, metrics


def run_scenario(
    name: str,
    n: int,
    seed: int = 0,
    engine: str | None = None,
    latency_model: str | None = None,
    fault_model: str | None = None,
) -> dict:
    """Run one (scenario, size, seed) cell and return its tidy row.

    ``engine``/``latency_model``/``fault_model`` override the scenario's
    defaults (see :func:`_run_cell`).  Unlike the sweep layer, this entry
    point does *not* gate ``fault_model`` on the algorithm's declared
    tolerance — it is the hands-on API for probing exactly how an
    undeclared protocol breaks (the sweep's gate lives in
    :func:`repro.api.run_sweep_spec`).  Each call builds its own graph
    instance; drivers must not mutate it — the library-wide append-only
    convention.
    """
    row, _ = _run_cell(
        name, n, seed, engine=engine, latency_model=latency_model,
        fault_model=fault_model,
    )
    return row


def _run_cell_group(
    group: list[tuple[int, str, int, int]], spec, with_metrics: bool, graph=None
) -> list[tuple[int, dict, dict | None]]:
    """Run one locality group of ``(index, name, n, seed)`` tasks in order.

    Returns ``(index, tidy_row, metrics_dict)`` triples — the serialized
    metrics ride along so the sweep executor can persist them to the
    :class:`~repro.api.ResultSet` without re-running the cell.
    ``with_metrics=False`` (in-memory stores, which discard them) skips the
    O(E log E) serialization and keeps the worker pipes lean.  The
    validated :class:`~repro.api.SweepSpec` ``spec`` carries the
    sweep-level engine, latency and fault overrides, applied uniformly to
    every cell of the group.  Every cell of a group runs on one graph
    instance: ``graph`` when given (a sweep worker's attached segment),
    else one built here, before the first cell.  It lives as long as the
    group.
    """
    if graph is None:
        _, name, n, seed = group[0]
        graph = get_scenario(name).build_graph(n, seed)
    out = []
    for index, name, n, seed in group:
        row, metrics = _run_cell(
            name, n, seed, engine=spec.engine, latency_model=spec.latency_model,
            fault_model=spec.fault_model, graph=graph,
        )
        out.append((index, row, metrics.to_dict() if with_metrics else None))
    return out

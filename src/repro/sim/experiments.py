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
* an **algorithm** is registered declaratively through
  :class:`repro.api.AlgorithmSpec` (name, entry point, model, oracle, param
  schema) — the built-ins live in :mod:`repro.api.drivers`, and third-party
  scenarios plug in via entry-point discovery
  (:func:`repro.api.algorithms.discover`) without editing this module;
* :func:`run_scenario` executes one *(scenario, size, seed)* cell — with a
  per-process graph-instance cache — and returns its tidy row.

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

Graph caching: scenario cells that share a ``(family, max_weight, n, seed)``
instance — e.g. ``sssp/er`` and ``bellman-ford/er`` at the same size and
seed — reuse one graph object per worker instead of regenerating it, which
also carries the frozen :class:`~repro.graphs.IndexedGraph` view across
cells.  The sweep executor groups the task list by instance key so each
group lands on one worker (maximizing cache hits), then restores
cross-product row order before returning — the tidy table is bit-identical
at any worker count, cache hits or not.  Algorithms must treat graphs as
read-only (the library-wide append-only convention);
:func:`clear_graph_cache` drops the cache (mostly for tests).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..api.algorithms import (
    check_params,
    discover,
    get_algorithm_spec,
    list_algorithm_specs,
)
from ..api.drivers import BUILTIN_ALGORITHMS, DriverError  # noqa: F401 (registers built-ins)
from ..graphs import generators
from .events import canonical_latency, simulation_engine
from .faults import canonical_fault, parse_fault_model
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
    "smoke_sweep",
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
    ``max_weight > 1`` gives instances random integer weights in
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

    ``max_time`` / ``message_budget`` are event-engine stopping conditions
    (virtual-time and bandwidth bounds); setting either pins the cell to
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

    def build_graph(self, n: int, seed: int):
        return generators.make_family(self.family, n, self.max_weight, seed=seed)


_SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the registry (replacing any same-named entry).

    Rejects unknown families and algorithms, and validates the scenario's
    ``params`` against the algorithm's declared ``param_schema`` — a
    drifted parameter name or type fails here, at registration, not inside
    a forked sweep worker.
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
    """Load third-party scenario plugins (idempotent; see :func:`repro.api.discover`)."""
    discover()


def get_scenario(name: str) -> Scenario:
    if name not in _SCENARIOS:
        ensure_discovered()  # a plugin may register it on first load
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
#: Per-process cache of generated graph instances, keyed by
#: ``(family, max_weight, n, seed)`` — the full determinant of an instance.
#: Bounded FIFO so long ad-hoc sweeps cannot grow it without limit.
_GRAPH_CACHE: dict[tuple, object] = {}
_GRAPH_CACHE_CAP = 64

#: Shared-memory attach map ``instance_key -> segment name``, set by the
#: sweep supervisor *before* forking so workers inherit it.  A worker's
#: :func:`_cached_graph` attaches the published CSR instead of
#: regenerating the instance; any attach failure falls back to the local
#: build (the shm plane is an optimization, never a dependency).
_SHM_ATTACH: dict[tuple, str] = {}


def clear_graph_cache() -> None:
    """Drop the per-process graph cache (test hook)."""
    _GRAPH_CACHE.clear()


def _instance_key(scenario: Scenario, n: int, seed: int) -> tuple:
    return (scenario.family, scenario.max_weight, n, seed)


def _cached_graph(scenario: Scenario, n: int, seed: int):
    key = _instance_key(scenario, n, seed)
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        segment = _SHM_ATTACH.get(key)
        if segment is not None:
            from . import shm

            graph = shm.attach_graph(segment)
        if graph is None:
            graph = scenario.build_graph(n, seed)
        if len(_GRAPH_CACHE) >= _GRAPH_CACHE_CAP:
            _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
        _GRAPH_CACHE[key] = graph
    return graph


def _run_cell(
    name: str,
    n: int,
    seed: int,
    engine: str | None = None,
    latency_model: str | None = None,
    fault_model: str | None = None,
) -> tuple[dict, Metrics]:
    """Execute one cell; return its tidy row and the full metrics object.

    ``latency_model`` / ``fault_model`` override the scenario's own
    network and fault models (the sweep-level axes) and ``engine`` pins
    the executor backend; by default unit-latency cells run on the
    synchronous round engine and everything else — including
    duration-bounded scenarios — on the event engine.  Seeded latency
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
    """
    scenario = get_scenario(name)
    effective_latency = (
        latency_model if latency_model is not None else scenario.latency_model
    )
    effective_fault = (
        fault_model if fault_model is not None else scenario.fault_model
    )
    bounded = scenario.max_time is not None or scenario.message_budget is not None
    try:
        canonical = canonical_latency(effective_latency)
        canonical_fault_model = canonical_fault(effective_fault)
        effective_engine = engine or (
            "round" if canonical == "unit" and not bounded else "event"
        )
        if effective_engine == "round" and canonical != "unit":
            raise ValueError(
                f"the synchronous 'round' engine cannot express latency model "
                f"{canonical!r}; use engine='event'"
            )
        if effective_engine == "round" and bounded:
            raise ValueError(
                "max_time/message_budget are event-engine stopping conditions; "
                "use engine='event'"
            )
    except ValueError as exc:
        # An unparseable latency/fault string or an engine mismatch is a
        # configuration error, reported like any other bad sweep input.
        raise SweepError(f"cell {name!r}: {exc}") from exc
    graph = _cached_graph(scenario, n, seed)
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
    if bounded or config.stats.stop_reason is not None:
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
    :func:`repro.api.run_sweep_spec`).  The graph instance comes from the
    per-process cache, so scenarios that share a family/size/seed cell
    reuse one graph (and its indexed view).  Drivers must not mutate it —
    the library-wide append-only convention.
    """
    row, _ = _run_cell(
        name, n, seed, engine=engine, latency_model=latency_model,
        fault_model=fault_model,
    )
    return row


def _run_cell_group(
    group: list[tuple[int, str, int, int]],
    with_metrics: bool = True,
    engine: str | None = None,
    latency_model: str | None = None,
    fault_model: str | None = None,
) -> list[tuple[int, dict, dict | None]]:
    """Run one locality group of ``(index, name, n, seed)`` tasks in order.

    Returns ``(index, tidy_row, metrics_dict)`` triples — the serialized
    metrics ride along so the sweep executor can persist them to the
    :class:`~repro.api.ResultSet` without re-running the cell.
    ``with_metrics=False`` (in-memory stores, which discard them) skips the
    O(E log E) serialization and keeps the worker pipes lean.
    ``engine``/``latency_model``/``fault_model`` are the sweep-level
    overrides, applied uniformly to every cell of the group.
    """
    out = []
    for index, name, n, seed in group:
        row, metrics = _run_cell(
            name, n, seed, engine=engine, latency_model=latency_model,
            fault_model=fault_model,
        )
        out.append((index, row, metrics.to_dict() if with_metrics else None))
    return out


def _worker_loop(
    task_pipe,
    result_pipe,
    with_metrics: bool = True,
    engine: str | None = None,
    latency_model: str | None = None,
    fault_model: str | None = None,
    backend: str | None = None,
) -> None:
    """Supervised-executor worker: serve dispatched cell groups until told to stop.

    The group-level task protocol of :func:`repro.api.run_sweep_spec`'s
    supervisor: the parent sends whole locality groups down this worker's
    private task pipe (``None`` or EOF means shut down) and the worker
    answers each on its private result pipe with ``("ok", triples)`` or
    ``("error", message)``.  Both are one-writer/one-reader
    ``multiprocessing.Pipe(duplex=False)`` connections.  Driver exceptions
    are stringified before crossing the pipe, so an unpicklable exception
    object can never turn a deterministic failure into a hung parent.  A
    worker that dies mid-group (crash, OOM kill, ``os._exit``) simply
    never answers — the supervisor notices via the process sentinel and
    re-dispatches the group.  Signals
    (``KeyboardInterrupt``/``SystemExit``) propagate and kill the worker
    for the same reason: an interrupt is a death, not a driver bug, and
    reporting it as ``"error"`` would abort the whole sweep instead of
    letting the supervisor's fault path decide.
    """
    # The backend request is process-wide worker state, set once before
    # any cell runs (the knob is provenance-only: rows are byte-identical
    # either way, so a retried group re-run under a fresh worker with the
    # same request cannot diverge from the first attempt).
    from .kernels import set_backend

    set_backend(backend)
    # A forked worker inherits the supervisor's graph cache — including
    # the instances the supervisor built only to publish their shared-
    # memory segments.  Drop them so this worker attaches the shared CSR
    # pages (zero-copy) instead of pinning copy-on-write duplicates.
    if _SHM_ATTACH:
        _GRAPH_CACHE.clear()
    while True:
        try:
            group = task_pipe.recv()
        except EOFError:
            return  # the supervisor is gone; nothing left to serve
        if group is None:
            return
        try:
            result = _run_cell_group(
                group,
                with_metrics=with_metrics,
                engine=engine,
                latency_model=latency_model,
                fault_model=fault_model,
            )
        except (KeyboardInterrupt, SystemExit):
            raise  # die silently; the supervisor sees a dead worker
        except BaseException as exc:  # noqa: BLE001 — must cross the pipe as data
            result_pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        else:
            result_pipe.send(("ok", result))


def smoke_sweep(workers: int | None = None) -> list[dict]:
    """The fixed tiny sweep behind ``python -m repro sweep --smoke`` (CI entry)."""
    from ..api import run_sweep_spec, smoke_spec

    return run_sweep_spec(smoke_spec(workers=workers))

"""Built-in algorithm drivers and their registrations.

Each driver adapts one library function to the uniform sweep shape
``driver(graph, seed, metrics, **params)`` and *self-verifies* against the
sequential oracle named in its :class:`~repro.api.AlgorithmSpec`.  A
driver's keyword parameters, with their defaults, are its parameter
schema.  The specs below register through the same
:func:`~repro.api.register_algorithm_spec` call any other in-process
algorithm uses — nothing here is special-cased.

Seeding: every driver with a source (or root) derives it deterministically
from ``seed`` via :func:`_source_node` — ``random.Random(seed)`` over the
repr-sorted node list — so distinct seeds sample distinct sources even on
unweighted families, where the graph instance itself does not vary with the
seed.  Structure-building drivers (``boruvka``, ``decomposition``, the
covers) are deterministic per instance and use the seed only through the
instance weights; ``apsp`` feeds it to the random-delay scheduler.
``tests/test_driver_catalog.py::TestSeedVariation`` pins both halves on
every registered scenario: on one fixed instance, four seeds give more
than one run, or exactly one for the structure builders.

Backend-agnosticism: drivers never see the batch-kernel ``backend``
knob.  Kernels are metering-parity-bound (see :mod:`repro.sim.kernels`),
so a driver's results, its oracle checks, and every quality column are
identical under scalar and numpy dispatch — which is why the knob stays
provenance (never a row column, never digested) and a driver cannot
accidentally depend on it.

Quality columns: a driver may return a ``dict`` of scenario-specific
metric columns (MST weight, cover degree/radius, per-node energy,
``preprocess_*`` construction costs).  The sweep engine merges them into
the tidy row after the core :data:`~repro.sim.experiments.ROW_FIELDS`, and
:mod:`repro.analysis.sweeps` carries them into tables, fits and reports.

Theorem map for the metered columns (see EXPERIMENTS.md for the full
catalog table):

* ``sssp``/``cssp`` — Thms 2.6/2.7 (rounds, messages, congestion);
* ``boruvka`` — Thm 2.2 (maximal spanning forest; ``mst_weight`` is exact
  against Kruskal on unit-weight instances, where every spanning forest is
  minimum);
* ``apsp`` — Sec 1.1 random-delay scheduling (``makespan`` and
  ``max_slot_load`` reproduce the LMR94-style feasibility claim);
* ``labeled-bfs`` — the Thm 3.10/3.11 growth primitive;
* ``decomposition`` — Thm 3.10; ``sparse-cover``/``layered-cover`` —
  Thm 3.11 / Def 3.4 (``cover_degree`` is the ``O(log n)`` membership
  bound, ``cover_radius`` the diameter-stretch bound);
* ``tree-aggregation`` — Sec 3.1.1 (``energy_avg`` tracks the
  four-wakes-per-cycle schedule);
* ``energy-bfs``/``energy-bfs-scratch`` — Thm 3.8 query costs in the main
  ``rounds``/``energy`` columns; the ``preprocess_*`` columns charge the
  Thm 3.11/3.13 cover construction (synchronous CONGEST, reported
  separately; DESIGN.md, "Cover construction runs in synchronous CONGEST
  form");
* ``energy-cssp`` — Thm 3.15 (construction and query interleave inside the
  recursion, so the main columns charge both).
"""

from __future__ import annotations

import random

from .algorithms import AlgorithmSpec, register_algorithm_spec

__all__ = [
    "BUILTIN_ALGORITHMS",
    "DriverError",
    "drive_sssp",
    "drive_cssp",
    "drive_bellman_ford",
    "drive_dijkstra",
    "drive_bfs",
    "drive_boruvka",
    "drive_apsp",
    "drive_labeled_bfs",
    "drive_decomposition",
    "drive_sparse_cover",
    "drive_layered_cover",
    "drive_tree_aggregation",
    "drive_energy_bfs",
    "drive_energy_bfs_scratch",
    "drive_energy_cssp",
]


class DriverError(RuntimeError):
    """A driver's output disagreed with its sequential oracle."""


def _source_node(graph, seed: int):
    """The run's source: a seed-deterministic draw from the sorted nodes.

    Distinct seeds must sample distinct sources (that is what the ``seed``
    axis of a sweep *means* for source-based algorithms); sorting first
    keeps the draw independent of node insertion order.
    """
    nodes = sorted(graph.nodes(), key=repr)
    return nodes[random.Random(seed).randrange(len(nodes))]


def _sample_nodes(graph, seed: int, k: int) -> list:
    """``k`` distinct seed-deterministic nodes (clamped to the node count)."""
    nodes = sorted(graph.nodes(), key=repr)
    return random.Random(seed).sample(nodes, min(k, len(nodes)))


def _check(actual: dict, expected: dict, what: str) -> None:
    if actual != expected:
        bad = [(u, actual.get(u), expected[u]) for u in expected if actual.get(u) != expected[u]]
        raise DriverError(f"{what}: output disagrees with oracle, e.g. {bad[:3]}")


def _faulted_distance_verdict(
    graph, observed: dict, source, what: str, *, weighted: bool
) -> dict | None:
    """Oracle check for distance floods, relaxed to the run's fault plane.

    Fault-free runs keep the exact oracle (``_check``) and return ``None``
    — rows are byte-identical to the pre-fault engines.  Under an injected
    :class:`~repro.sim.FaultModel` the exact oracle is too strict (a
    crashed node may legitimately end unreached), so the check becomes a
    *distance sandwich* on the never-crashed survivors: the full-graph
    distance is a lower bound (every finite estimate a monotone relaxation
    flood holds corresponds to a real path) and the distance in the
    survivor-induced subgraph is an upper bound (survivor-only paths lose
    no messages to crashes; drop/dup tolerance must absorb the rest).
    Runs cut short by a stopping bound (``stop_reason`` set) keep only the
    lower bound — convergence needs the full horizon, soundness does not.
    Returns the ``robustness`` quality column: ``"exact"`` when the output
    still matches the unfaulted oracle, ``"survivors"`` when only the
    sandwich holds, ``"truncated"`` for a sound-but-unconverged bounded
    run.
    """
    from ..graphs import INFINITY
    from ..sim import current_engine, current_faults

    config = current_engine()
    truncated = config is not None and config.stats.stop_reason is not None
    plane = current_faults()
    expected = graph.dijkstra([source]) if weighted else graph.hop_distances([source])
    if plane is None and not truncated:
        _check(observed, expected, what)
        return None
    if observed == expected:
        return {"robustness": "exact"}
    crashed = set(plane.crash_plan(graph.nodes())) if plane is not None else set()
    survivors = [u for u in graph.nodes() if u not in crashed]
    if truncated:
        bad = [
            (u, observed.get(u), expected[u])
            for u in survivors
            if not (expected[u] <= observed.get(u, INFINITY))
        ]
        if bad:
            raise DriverError(
                f"{what}: distances below the full-graph lower bound "
                f"(node, observed, lower), e.g. {bad[:3]}"
            )
        return {"robustness": "truncated"}
    if source in crashed:
        upper = dict.fromkeys(survivors, INFINITY)
    else:
        reduced = graph.induced_subgraph(survivors)
        upper = reduced.dijkstra([source]) if weighted else reduced.hop_distances([source])
    bad = [
        (u, observed.get(u), expected[u], upper[u])
        for u in survivors
        if not (expected[u] <= observed.get(u, INFINITY) <= upper[u])
    ]
    if bad:
        raise DriverError(
            f"{what}: survivor distances escape the fault sandwich "
            f"(node, observed, full-graph lower, survivor-graph upper), "
            f"e.g. {bad[:3]}"
        )
    return {"robustness": "survivors"}


def _energy_avg(graph, metrics) -> float:
    """Mean awake rounds per node — the per-node energy quality column."""
    n = graph.num_nodes
    if n == 0:
        return 0.0
    return round(sum(metrics.awake_rounds.values()) / n, 3)


def drive_sssp(graph, seed: int, metrics) -> None:
    """The paper's SSSP (Thm 2.6 pipeline), checked against Dijkstra."""
    from ..core import sssp

    source = _source_node(graph, seed)
    result = sssp(graph, source)
    _check(result.distances, graph.dijkstra([source]), "sssp")
    metrics.merge(result.metrics)


def drive_cssp(graph, seed: int, metrics) -> None:
    """Thresholded recursive CSSP, checked against Dijkstra."""
    from ..core import cssp

    source = _source_node(graph, seed)
    distances, _ = cssp(graph, {source: 0}, metrics=metrics)
    _check(distances, graph.dijkstra([source]), "cssp")


def drive_bellman_ford(graph, seed: int, metrics) -> dict | None:
    """Distributed Bellman-Ford baseline, checked against Dijkstra.

    Under an injected fault plane the check relaxes to the survivor
    sandwich (see :func:`_faulted_distance_verdict`): re-broadcasting every
    round retries drops and re-teaches restarted nodes, so Bellman-Ford is
    the catalog's fully fault-tolerant distance flood.
    """
    from ..baselines import run_bellman_ford

    source = _source_node(graph, seed)
    observed = run_bellman_ford(graph, source, metrics=metrics)
    return _faulted_distance_verdict(
        graph, observed, source, "bellman-ford", weighted=True
    )


def drive_dijkstra(graph, seed: int, metrics) -> None:
    """Naive distributed Dijkstra baseline, checked against Dijkstra."""
    from ..baselines import run_distributed_dijkstra

    source = _source_node(graph, seed)
    _check(
        run_distributed_dijkstra(graph, source, metrics=metrics),
        graph.dijkstra([source]),
        "dijkstra",
    )


def drive_bfs(graph, seed: int, metrics) -> dict | None:
    """Unweighted CONGEST BFS, checked against hop distances.

    Under an injected fault plane the check relaxes to the survivor
    sandwich (see :func:`_faulted_distance_verdict`).  BFS offers are
    one-shot, so it tolerates duplication (idempotent minimum) and crashes
    (survivor-only paths keep their offers) but *not* message drops — a
    dropped offer is never retried, which is exactly the negative control
    the fault tests demonstrate.
    """
    from ..core import run_bfs

    source = _source_node(graph, seed)
    observed = run_bfs(graph, [source], metrics=metrics)
    return _faulted_distance_verdict(graph, observed, source, "bfs", weighted=False)


def drive_boruvka(graph, seed: int, metrics) -> dict:
    """Distributed Boruvka forest (Thm 2.2), vs sequential Kruskal weight.

    The Thm 2.2 protocol builds a *maximal* spanning forest (fragments
    choose edges by identifier, not weight); the forest is always validated
    structurally (spanning, acyclic, edges exist — the theorem's actual
    contract).  On uniform-weight instances — where every spanning forest
    is minimum, which is how the built-in scenarios register it — the
    ``mst_weight`` check against sequential Kruskal is additionally exact;
    on non-uniform weights the forest weight is only bounded below by the
    MST weight, and exceeding that bound is not an error.  Deterministic
    per instance: no source, so the seed is unused.
    """
    from ..core import build_maximal_forest

    forest = build_maximal_forest(graph, metrics=metrics)
    try:
        forest.validate_against(graph)
    except ValueError as exc:
        raise DriverError(f"boruvka: invalid forest: {exc}") from exc
    weight = sum(
        graph.weight(u, p) for u, p in forest.parent.items() if p is not None
    )
    expected = graph.mst_weight()
    uniform = graph.min_weight() == graph.max_weight()
    if uniform and weight != expected:
        raise DriverError(
            f"boruvka: forest weight {weight} != sequential MST weight {expected}"
        )
    if weight < expected:
        raise DriverError(
            f"boruvka: forest weight {weight} below the MST lower bound {expected}"
        )
    return {"forest_weight": weight, "mst_weight": expected}


def drive_apsp(graph, seed: int, metrics, capacity_log_factor: int = 4) -> dict:
    """Random-delay APSP (Sec 1.1), vs all-pairs Dijkstra + feasibility.

    Runs ``n`` concurrent SSSP instances; the seed draws the random delays.
    Per-source metrics merge concurrently (``sequential=False``) and the
    round clock is then extended to the schedule's makespan — the honest
    time of the superimposed execution.  Fails if any per-source distance
    table disagrees with Dijkstra or the schedule exceeds the per-slot
    capacity ``capacity_log_factor * ceil(log2 n)``.
    """
    from ..core import apsp

    result = apsp(graph, seed=seed, capacity_log_factor=capacity_log_factor)
    for source, sssp_result in result.per_source.items():
        _check(sssp_result.distances, graph.dijkstra([source]), f"apsp[{source!r}]")
        metrics.merge(sssp_result.metrics, sequential=False)
    schedule = result.schedule
    if not schedule.feasible:
        raise DriverError(
            f"apsp: schedule infeasible: slot load {schedule.max_slot_load} "
            f"> capacity {schedule.capacity}"
        )
    if schedule.makespan > metrics.rounds:
        metrics.record_rounds(schedule.makespan - metrics.rounds)
    return {
        "makespan": schedule.makespan,
        "max_slot_load": schedule.max_slot_load,
        "slot_capacity": schedule.capacity,
    }


def drive_labeled_bfs(graph, seed: int, metrics, num_sources: int = 3) -> None:
    """Labeled multi-source BFS (Thm 3.10/3.11 primitive), vs Dijkstra.

    ``num_sources`` seed-drawn sources, each its own label.  Checks every
    node's distance against the multi-source Dijkstra oracle (hop distances
    on unit weights), that the winning label's source actually achieves
    that distance, and that parent pointers step along graph edges.
    """
    from ..energy import run_labeled_bfs
    from ..graphs import INFINITY

    sources = _sample_nodes(graph, seed, num_sources)
    threshold = graph.num_nodes * max(1, graph.max_weight())
    result = run_labeled_bfs(
        graph, {s: s for s in sources}, threshold, metrics=metrics
    )
    expected = graph.dijkstra(sources)
    per_source = {s: graph.dijkstra([s]) for s in sources}
    for u in graph.nodes():
        dist, label, parent, _hops = result[u]
        if dist != expected[u]:
            raise DriverError(
                f"labeled-bfs: dist[{u!r}] = {dist} != oracle {expected[u]}"
            )
        if dist != INFINITY and per_source[label][u] != dist:
            raise DriverError(
                f"labeled-bfs: label {label!r} does not achieve dist {dist} at {u!r}"
            )
        if parent is not None and not graph.has_edge(u, parent):
            raise DriverError(f"labeled-bfs: parent edge {u!r}-{parent!r} missing")


def drive_decomposition(graph, seed: int, metrics, separation: int = 2) -> dict:
    """k-separated decomposition (Thm 3.10), vs the structural validator.

    Deterministic per instance (the paper's construction is deterministic),
    so the seed is unused.  Quality columns report the
    cluster/color counts and the max Steiner-tree load per edge — the
    quantities Thm 3.10 bounds.
    """
    from ..energy import ValidationError, build_decomposition, validate_decomposition

    decomposition = build_decomposition(graph, separation, metrics=metrics)
    try:
        validate_decomposition(graph, decomposition)
    except ValidationError as exc:
        raise DriverError(f"decomposition: {exc}") from exc
    load = decomposition.edge_tree_load()
    return {
        "clusters": len(decomposition.clusters),
        "colors": len(decomposition.colors),
        "tree_edge_load": max(load.values(), default=0),
    }


def drive_sparse_cover(graph, seed: int, metrics, d: int = 2) -> dict:
    """Sparse d-cover (Thm 3.11), vs the Definition 3.2 validator.

    ``cover_degree`` is the max cluster membership per node (the
    ``O(log n)`` sparsity bound) and ``cover_radius`` the max weighted tree
    radius (the diameter-stretch bound).
    """
    from ..energy import ValidationError, build_sparse_cover, validate_sparse_cover

    cover = build_sparse_cover(graph, d, metrics=metrics)
    try:
        validate_sparse_cover(graph, cover)
    except ValidationError as exc:
        raise DriverError(f"sparse-cover: {exc}") from exc
    return {
        "cover_clusters": len(cover.clusters),
        "cover_degree": cover.max_membership(),
        "cover_radius": cover.max_tree_radius(),
    }


def drive_layered_cover(graph, seed: int, metrics, base: int = 4) -> dict:
    """Layered sparse cover (Def 3.4), vs the Definition 3.4 validator.

    Builds the full-radius stack the low-energy BFS queries run over;
    ``cover_levels`` and the per-level sparsity/edge-load columns are the
    quantities Observation 3.3 / Sec 3.1.3 bound.
    """
    from ..energy import ValidationError, build_layered_cover, validate_layered_cover

    cover = build_layered_cover(graph, graph.num_nodes, base=base, metrics=metrics)
    try:
        validate_layered_cover(graph, cover)
    except ValidationError as exc:
        raise DriverError(f"layered-cover: {exc}") from exc
    return {
        "cover_levels": len(cover.levels),
        "cover_degree": max((c.max_membership() for c in cover.levels), default=0),
        "tree_edge_load": cover.max_edge_load(),
    }


def drive_tree_aggregation(graph, seed: int, metrics, cycles: int = 3) -> dict:
    """Periodic tree aggregation (Sec 3.1.1), vs component sizes.

    Builds a BFS forest from a seed-drawn root (the tree is the primitive's
    *input*, as in the paper, so its construction is uncharged), runs
    ``cycles`` sleeping-model convergecast/broadcast cycles folding
    ``value=1`` per node, and checks every node ends with its component
    size — the correctness contract at the end of Sec 3.1.1.  Expected
    sizes come from ``graph.connected_components()`` (the registered
    oracle), independent of the forest the protocol ran over.
    """
    from ..core import bfs_forest
    from ..energy import run_periodic_aggregation

    root = _source_node(graph, seed)
    forest = bfs_forest(graph, roots=[root])
    result = run_periodic_aggregation(
        graph, forest, {u: 1 for u in graph.nodes()}, sum, cycles, metrics=metrics
    )
    size_of = {}
    for component in graph.connected_components():
        for u in component:
            size_of[u] = len(component)
    for u in graph.nodes():
        expected = size_of[u]
        if result[u] != expected:
            raise DriverError(
                f"tree-aggregation: node {u!r} aggregated {result[u]!r}, "
                f"expected component size {expected}"
            )
    depth = max((forest.tree_depth(r) for r in forest.roots), default=0)
    return {"tree_depth": depth, "energy_avg": _energy_avg(graph, metrics)}


def drive_energy_bfs(graph, seed: int, metrics, base: int = 4, stretch: int = 3) -> dict:
    """Sleeping-model BFS (Thm 3.8) — the sweep's energy-metric workload.

    The main ``rounds``/``energy`` columns meter the *query* (the Thm 3.8
    claim); the layered-cover construction it presupposes is metered into
    the ``preprocess_*`` columns (Thm 3.11 synchronous CONGEST cost,
    reported separately, see DESIGN.md "Cover construction runs in
    synchronous CONGEST form" — folding it into the main
    columns would mix always-awake construction energy into the sleeping
    query energy the theorem is about).
    """
    from ..energy.covers import build_layered_cover
    from ..energy.low_energy_bfs import run_low_energy_bfs
    from ..sim import Metrics

    source = _source_node(graph, seed)
    construction = Metrics()
    cover = build_layered_cover(
        graph, graph.num_nodes, base=base, stretch=stretch, metrics=construction
    )
    distances, _ = run_low_energy_bfs(
        graph, cover, {source: 0}, graph.num_nodes, metrics=metrics
    )
    _check(distances, graph.hop_distances([source]), "energy-bfs")
    return {
        "preprocess_rounds": construction.rounds,
        "preprocess_messages": construction.total_messages,
        "preprocess_energy": construction.max_energy,
        "energy_avg": _energy_avg(graph, metrics),
    }


def drive_energy_bfs_scratch(
    graph, seed: int, metrics, base: int = 4, stretch: int = 3
) -> dict:
    """From-scratch low-energy BFS (Thms 3.13/3.14), vs hop distances.

    Nobody hands this driver a cover: the bootstrap pipeline builds the
    layered cover itself (``preprocess_*`` columns, synchronous CONGEST; see
    DESIGN.md "Cover construction runs in synchronous CONGEST form") and
    then runs the Thm 3.8 query (main columns).
    """
    from ..energy import low_energy_bfs_from_scratch
    from ..sim import Metrics

    source = _source_node(graph, seed)
    construction = Metrics()
    distances, _cover = low_energy_bfs_from_scratch(
        graph,
        {source: 0},
        base=base,
        stretch=stretch,
        construction_metrics=construction,
        query_metrics=metrics,
    )
    _check(distances, graph.hop_distances([source]), "energy-bfs-scratch")
    return {
        "preprocess_rounds": construction.rounds,
        "preprocess_messages": construction.total_messages,
        "preprocess_energy": construction.max_energy,
        "energy_avg": _energy_avg(graph, metrics),
    }


def drive_energy_cssp(graph, seed: int, metrics, base: int = 4, stretch: int = 3) -> dict:
    """Energy-model weighted CSSP (Thm 3.15), vs Dijkstra.

    The Sec 2.3 recursion with the cutter's BFS replaced by the
    sleeping-model thresholded BFS; cover construction happens inside the
    recursion, so the main columns charge construction and query together
    (the theorem's own accounting).
    """
    from ..energy import energy_cssp

    source = _source_node(graph, seed)
    distances, _ = energy_cssp(
        graph, {source: 0}, base=base, stretch=stretch, metrics=metrics
    )
    _check(distances, graph.dijkstra([source]), "energy-cssp")
    return {"energy_avg": _energy_avg(graph, metrics)}


#: Oracle display text shared by several drivers.
_DIJKSTRA = "repro.graphs:Graph.dijkstra"
_HOPS = "repro.graphs:Graph.hop_distances"

BUILTIN_ALGORITHMS = (
    AlgorithmSpec("sssp", drive_sssp, oracle=_DIJKSTRA,
                  description="paper SSSP (Thm 2.6 pipeline)"),
    AlgorithmSpec("cssp", drive_cssp, oracle=_DIJKSTRA,
                  description="thresholded recursive CSSP (Thms 2.6/2.7)"),
    AlgorithmSpec("bellman-ford", drive_bellman_ford, oracle=_DIJKSTRA,
                  description="distributed Bellman-Ford baseline",
                  fault_tolerance=("drop", "dup", "crash")),
    AlgorithmSpec("dijkstra", drive_dijkstra, oracle=_DIJKSTRA,
                  description="naive distributed Dijkstra baseline"),
    AlgorithmSpec("bfs", drive_bfs, oracle=_HOPS,
                  description="unweighted CONGEST BFS",
                  fault_tolerance=("dup", "crash")),
    AlgorithmSpec("boruvka", drive_boruvka, oracle="repro.graphs:Graph.mst_weight",
                  description="distributed Boruvka spanning forest (Thm 2.2)"),
    AlgorithmSpec("apsp", drive_apsp, oracle=_DIJKSTRA,
                  description="random-delay concurrent APSP (Sec 1.1)"),
    AlgorithmSpec("labeled-bfs", drive_labeled_bfs, oracle=_DIJKSTRA,
                  description="nearest-labeled-source BFS (Thm 3.10/3.11 primitive)"),
    AlgorithmSpec("decomposition", drive_decomposition,
                  oracle="repro.energy:validate_decomposition",
                  description="k-separated network decomposition (Thm 3.10)"),
    AlgorithmSpec("sparse-cover", drive_sparse_cover,
                  oracle="repro.energy:validate_sparse_cover",
                  description="sparse d-cover from a decomposition (Thm 3.11)"),
    AlgorithmSpec("layered-cover", drive_layered_cover,
                  oracle="repro.energy:validate_layered_cover",
                  description="layered sparse cover stack (Def 3.4 / Obs 3.3)"),
    AlgorithmSpec("tree-aggregation", drive_tree_aggregation, model="sleeping",
                  oracle="repro.graphs:Graph.connected_components",
                  description="periodic tree convergecast/broadcast (Sec 3.1.1)"),
    AlgorithmSpec("energy-bfs", drive_energy_bfs, model="sleeping", oracle=_HOPS,
                  description="sleeping-model BFS over a layered cover (Thm 3.8)"),
    AlgorithmSpec("energy-bfs-scratch", drive_energy_bfs_scratch, model="sleeping",
                  oracle=_HOPS,
                  description="from-scratch low-energy BFS bootstrap (Thms 3.13/3.14)"),
    AlgorithmSpec("energy-cssp", drive_energy_cssp, model="sleeping", oracle=_DIJKSTRA,
                  description="energy-model weighted CSSP (Thm 3.15)"),
)

for _spec in BUILTIN_ALGORITHMS:
    register_algorithm_spec(_spec)

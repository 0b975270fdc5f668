"""Closest-Source Shortest Paths: the paper's Section 2 algorithm.

``D``-thresholded CSSP (Definition 2.3): given sources ``S``, every node
``v`` with ``dist(S, v) <= D`` outputs its exact distance; every other node
outputs infinity.  Plain CSSP is the ``D``-thresholded problem with
``D = 2^L >= n * max_weight`` (an upper bound on any finite distance).

The recursion (Section 2.3), implemented here phase-by-phase with every
phase an actual simulated distributed protocol whose rounds / messages /
congestion accrue into one shared :class:`~repro.sim.Metrics`:

1. base case ``D <= 1``: a threshold-1 weighted BFS (two rounds);
2. spanning trees of all connected components via distributed Boruvka
   (Theorem 2.2) — the coordination skeleton;
3. the **approximate cutter** (Lemma 2.1) with ``eps = 0.5`` and ``W = D``
   marks ``V1``, a superset of all nodes within distance ``D``;
4. recurse with threshold ``D1 = D/2`` on the graph induced by ``V1``;
   then one convergecast + broadcast per component tree implements the
   paper's "is everyone done / start at round X" coordination (step 4);
5. ``V2`` = nodes that learned an exact distance ``<= D1``.  Each edge
   ``(v, u)`` with ``v`` in ``V2`` and ``u`` in ``V1 \\ V2`` spawns the
   paper's imaginary cut node ``x_vu`` at distance ``D1`` from the sources;
   since ``x_vu`` only ever talks to ``u``, it is realized as a *source
   offset* ``dist1(v) + w(v, u) - D1`` on the real node ``u`` — exactly the
   simulation the paper describes in step 6;
6. recurse with threshold ``D1`` on ``V1 \\ V2`` with those offset sources;
   ``dist(S, u) = D1 + dist(X, u)`` stitches the answers together.

Theorem 2.7's zero-weight extension contracts every zero-weight component
(via Boruvka on the zero-subgraph) to a supernode before the recursion, and
broadcasts results back through the contraction trees afterwards.

Each recursive subproblem also records *participation* per node, which
experiment E5 checks against Lemma 2.4's ``O(log D)`` bound.
"""

from __future__ import annotations

import math

from ..graphs import Graph, INFINITY
from ..sim import Metrics
from ..sim.memo import memoized
from .bfs import run_weighted_bfs
from .boruvka import build_maximal_forest
from .cutter import approx_cssp
from .trees import run_convergecast_broadcast

__all__ = ["cssp", "thresholded_cssp", "distance_upper_bound"]

#: The paper's choice in Section 2.3, step 3.
DEFAULT_EPS = 0.5


def distance_upper_bound(graph: Graph) -> int:
    """Smallest power of two ``>= n * max_weight`` (Section 2.3's ``D``)."""
    bound = graph.weighted_diameter_upper_bound()
    return 1 << max(0, math.ceil(math.log2(bound)))


def cssp(
    graph: Graph,
    sources,
    *,
    eps: float = DEFAULT_EPS,
    metrics: Metrics | None = None,
    memo: dict | None = None,
) -> tuple[dict, Metrics]:
    """Exact closest-source distances ``dist(S, v)`` for every node.

    ``sources`` is an iterable of source nodes, or a mapping
    source -> nonnegative integer offset (offsets support the recursion and
    arbitrary "virtual source" use cases).  Nonnegative integer weights;
    zero-weight edges are handled by contraction (Theorem 2.7).

    The recursion builds the Boruvka forest of the same graph again
    whenever ``V1`` keeps every node, and runs the same "everyone done?"
    convergecast over it, so both go through a construction memo
    (:func:`repro.sim.memo.memoized`).  Each call makes its own unless the
    caller passes ``memo`` to share one; either way the charged cost is
    that of running every one.

    Returns ``(distances, metrics)``; unreachable nodes map to ``INFINITY``.
    """
    metrics = metrics if metrics is not None else Metrics()
    memo = memo if memo is not None else {}
    source_offsets = dict(sources) if isinstance(sources, dict) else {s: 0 for s in sources}
    for s in source_offsets:
        if s not in graph:
            raise KeyError(f"source {s!r} is not a node of the graph")
    if graph.num_nodes == 0:
        return {}, metrics
    if not source_offsets:
        return {u: INFINITY for u in graph.nodes()}, metrics

    if graph.num_edges and graph.min_weight() == 0:
        distances = _cssp_with_zero_weights(graph, source_offsets, eps, metrics, memo)
        return distances, metrics

    bound = distance_upper_bound(graph)
    extra = max(source_offsets.values(), default=0)
    while bound < extra + graph.weighted_diameter_upper_bound():
        bound *= 2
    distances = _thresholded_recursive(
        graph, source_offsets, bound, eps=eps, metrics=metrics, memo=memo
    )
    return distances, metrics


def thresholded_cssp(
    graph: Graph,
    sources: dict,
    threshold: int,
    *,
    eps: float = DEFAULT_EPS,
    metrics: Metrics | None = None,
) -> dict:
    """``threshold``-thresholded CSSP (Definition 2.3) on positive weights.

    Every node with ``dist(S, v) <= threshold`` maps to its exact distance;
    all others map to ``INFINITY``.

    The recursion's distance algebra (``dist = D1 + dist(X, .)`` with
    ``D = 2 * D1``) needs the internal threshold to be a power of two — the
    paper runs with ``D = 2^L``.  Arbitrary thresholds are supported by
    rounding up to the next power of two and clipping the output.
    """
    metrics = metrics if metrics is not None else Metrics()
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    pow2 = 1 << max(0, math.ceil(math.log2(max(1, threshold))))
    raw = _thresholded_recursive(
        graph, sources, pow2, eps=eps, metrics=metrics, memo={}
    )
    return {
        u: (d if d != INFINITY and d <= threshold else INFINITY) for u, d in raw.items()
    }


def _thresholded_recursive(
    graph: Graph,
    sources: dict,
    threshold: int,
    *,
    eps: float,
    metrics: Metrics,
    memo: dict,
    cutter=None,
) -> dict:
    """The Section 2.3 recursion proper; ``threshold`` is a power of two.

    ``cutter`` is the approximate-cutter strategy with the signature of
    :func:`repro.core.cutter.approx_cssp`; the energy-model CSSP (Theorem
    3.15) injects its sleeping-model cutter here and reuses the entire
    recursion unchanged.  ``memo`` is the construction memo that serves
    the Boruvka forests and the done-casts over them.
    """
    if cutter is None:
        cutter = approx_cssp
    if graph.num_nodes == 0:
        return {}
    for u in graph.nodes():
        metrics.record_participation(u)
    if not sources:
        return {u: INFINITY for u in graph.nodes()}

    if threshold <= 1:
        # Base case: only sources and their weight-1 / offset-compatible
        # neighbors can be within distance 1 — one BFS exchange settles it.
        return run_weighted_bfs(graph, sources, max(0, threshold), metrics=metrics)

    half = threshold // 2

    # Step 2: per-component rooted spanning trees (coordination skeleton).
    forest = build_maximal_forest(graph, metrics=metrics, memo=memo)

    # Step 3: approximate cutter with eps and W = threshold.
    approx = cutter(graph, sources, eps, threshold, metrics=metrics)
    v1 = {u for u, d in approx.items() if d < threshold + eps * threshold}

    # Step 4: recurse on V1 with threshold D/2.  When the cutter keeps
    # every node (the common case near the top of the recursion), reuse the
    # graph object itself — its cached IndexedGraph view and node views
    # carry over to every phase of the subproblem.
    sub1 = graph if len(v1) == graph.num_nodes else graph.induced_subgraph(v1)
    sources1 = {s: off for s, off in sources.items() if s in v1}
    dist1 = _thresholded_recursive(
        sub1, sources1, half, eps=eps, metrics=metrics, memo=memo, cutter=cutter
    )

    # Per-component "everyone done?" convergecast + start-round broadcast.
    # Components proceed independently (non-sequential merge would be ideal;
    # we charge the max component size, the paper's Theta(|C|) start gap).
    # Every flag is True: a node outside V1 is done, and the recursion on
    # V1 returns a distance for each of its nodes.  So the run depends on
    # the graph and its forest alone, and the memo replays it.
    memoized(
        memo, metrics, graph, ("done-cast",),
        lambda cost: run_convergecast_broadcast(
            graph, forest, dict.fromkeys(graph.nodes(), True), all, metrics=cost
        ),
    )
    components = forest.components()
    if components:
        metrics.record_rounds(max(len(c) for c in components.values()))

    # Step 5: V2 and the imaginary cut nodes, realized as source offsets.
    v2 = {u for u, d in dist1.items() if d != INFINITY and d <= half}
    cut_sources: dict = {}
    for u in v1 - v2:
        best = INFINITY
        for v in graph.neighbors(u):
            if v in v2:
                candidate = dist1[v] + graph.weight(u, v) - half
                best = min(best, candidate)
        if best != INFINITY and best <= half:
            cut_sources[u] = int(best)
    # A source whose own offset exceeds D1 acts "beyond the cut": it must
    # re-enter the second recursion with its offset reduced by D1.  (At the
    # top level offsets are 0 and this never fires; inside the recursion it
    # is part of the multi-source coordination the paper alludes to in
    # Section 1.1's closing remarks on CSSP.)
    for s, offset in sources.items():
        if s in v1 and s not in v2 and offset > half:
            reduced = offset - half
            if reduced <= half:
                cut_sources[s] = min(cut_sources.get(s, reduced), reduced)

    # Step 6: recurse on V1 \ V2 from the cut.
    rest = v1 - v2
    sub2 = graph if len(rest) == graph.num_nodes else graph.induced_subgraph(rest)
    dist2 = _thresholded_recursive(
        sub2, cut_sources, half, eps=eps, metrics=metrics, memo=memo, cutter=cutter
    )

    result: dict = {}
    for u in graph.nodes():
        if u in v2:
            result[u] = dist1[u]
        elif u in rest and dist2.get(u, INFINITY) != INFINITY:
            result[u] = half + dist2[u]
        else:
            result[u] = INFINITY
    return result


def _cssp_with_zero_weights(
    graph: Graph, sources: dict, eps: float, metrics: Metrics, memo: dict
) -> dict:
    """Theorem 2.7: contract zero-weight components, solve, broadcast back.

    Nodes joined by zero-weight paths share a distance, so each zero
    component collapses to its Boruvka leader; the quotient graph keeps the
    minimum positive weight between any two supernodes.
    """
    zero_edges = [(u, v) for u, v, w in graph.edges() if w == 0]
    zero_graph = Graph.from_edges(zero_edges, nodes=graph.nodes())
    zero_forest = build_maximal_forest(zero_graph, metrics=metrics, memo=memo)
    leader = zero_forest.root_of

    quotient = Graph()
    for u in graph.nodes():
        quotient.add_node(leader[u])
    for u, v, w in graph.edges():
        lu, lv = leader[u], leader[v]
        if lu != lv:
            quotient.add_edge(lu, lv, w)  # add_edge keeps the min weight

    quotient_sources: dict = {}
    for s, offset in sources.items():
        ls = leader[s]
        quotient_sources[ls] = min(quotient_sources.get(ls, offset), offset)

    bound = distance_upper_bound(quotient)
    extra = max(quotient_sources.values(), default=0)
    while bound < extra + quotient.weighted_diameter_upper_bound():
        bound *= 2
    quotient_dist = _thresholded_recursive(
        quotient, quotient_sources, bound, eps=eps, metrics=metrics, memo=memo
    )

    # Broadcast each leader's distance back through its zero-weight tree.
    values = {u: (quotient_dist[u] if u in quotient_dist and leader[u] == u else None) for u in graph.nodes()}
    spread = run_convergecast_broadcast(
        graph,
        zero_forest,
        values,
        lambda vals: next((v for v in vals if v is not None), None),
        metrics=metrics,
    )
    out = {}
    for u in graph.nodes():
        d = spread[u]
        out[u] = INFINITY if d is None else d
    return out

"""From-scratch low-energy BFS and weighted CSSP (Theorems 3.13–3.15).

*From-scratch BFS* (Theorem 3.13/3.14): nobody hands us a layered cover, so
the algorithm builds sparse ``r_j``-covers level by level — stopping as soon
as some cluster spans the whole graph (the Section 3.6 termination rule,
since nodes do not know ``D``) — and then runs the sleeping-model
thresholded BFS of Theorem 3.8 on top.  Reproduction scope note (DESIGN.md,
"Cover construction runs in synchronous CONGEST form"): the per-level
construction runs in its synchronous CONGEST form; Theorem 3.12's
refinement — routing the construction's own BFSs through the previous
level's low-energy BFS — changes the construction's *energy* accounting but
not its outputs, so the query-phase energy numbers (the ones Theorem 3.8 is
about) are exact while construction energy is its synchronous cost.
:func:`low_energy_bfs_from_scratch` meters the two phases separately;
:func:`energy_approx_cssp` charges both to one ``Metrics``.

*Energy-model CSSP* (Theorem 3.15): the Section 2.3 recursion, verbatim,
with the approximate cutter's thresholded BFS replaced by the low-energy
thresholded BFS — exactly the substitution the paper prescribes in
Section 3.7.  The rounding arithmetic of Lemma 2.1 is unchanged.
"""

from __future__ import annotations

from ..graphs import Graph, INFINITY
from ..sim import Metrics
from ..core.cssp import DEFAULT_EPS, distance_upper_bound, _thresholded_recursive
from ..core.cutter import cutter_quantum
from .covers import LayeredCover, build_layered_cover
from .low_energy_bfs import run_low_energy_bfs

__all__ = ["low_energy_bfs_from_scratch", "energy_approx_cssp", "energy_cssp"]


def low_energy_bfs_from_scratch(
    graph: Graph,
    sources: dict,
    threshold: int | None = None,
    *,
    base: int = 4,
    stretch: int = 3,
    construction_metrics: Metrics | None = None,
    query_metrics: Metrics | None = None,
) -> tuple[dict, LayeredCover]:
    """Theorem 3.13/3.14: thresholded BFS with no precomputed structure.

    ``sources`` maps source -> offset.  ``threshold`` defaults to ``n`` (an
    upper bound on any hop distance, so this computes full BFS).
    Construction costs and query (sleeping-model) costs accrue into their
    respective metrics so experiments can report them separately.
    """
    construction_metrics = (
        construction_metrics if construction_metrics is not None else Metrics()
    )
    query_metrics = query_metrics if query_metrics is not None else Metrics()
    tau = threshold if threshold is not None else graph.num_nodes
    unit = graph.reweighted(lambda _w: 1)
    cover = build_layered_cover(
        unit, tau, base=base, stretch=stretch, metrics=construction_metrics
    )
    distances, _schedule = run_low_energy_bfs(
        unit, cover, sources, tau, metrics=query_metrics
    )
    return distances, cover


def energy_approx_cssp(
    graph: Graph,
    sources: dict,
    eps: float,
    bound: int,
    *,
    metrics: Metrics | None = None,
    base: int = 4,
    stretch: int = 3,
    memo: dict | None = None,
) -> dict:
    """Lemma 2.1's cutter with the BFS run in the sleeping model.

    Identical rounding arithmetic to :func:`repro.core.cutter.approx_cssp`;
    the rounded thresholded BFS goes through a freshly built layered cover
    and Theorem 3.8.  This is the Section 3.7 substitution.  ``memo`` is
    the construction memo of :func:`repro.energy.covers.build_sparse_cover`.
    """
    metrics = metrics if metrics is not None else Metrics()
    if not sources:
        return {u: INFINITY for u in graph.nodes()}
    n = graph.num_nodes
    q = cutter_quantum(n, eps, bound)
    rounded = graph.reweighted(lambda w: -(-w // q))
    rounded_sources = {s: -(-offset // q) for s, offset in sources.items()}
    threshold = -(-2 * bound // q) + n + 1
    cover = build_layered_cover(
        rounded, threshold, base=base, stretch=stretch, metrics=metrics, memo=memo
    )
    rounded_dist, _sched = run_low_energy_bfs(
        rounded, cover, rounded_sources, threshold, metrics=metrics
    )
    return {u: (INFINITY if d == INFINITY else q * d) for u, d in rounded_dist.items()}


def energy_cssp(
    graph: Graph,
    sources,
    *,
    eps: float = DEFAULT_EPS,
    base: int = 4,
    stretch: int = 3,
    metrics: Metrics | None = None,
) -> tuple[dict, Metrics]:
    """Theorem 3.15: exact weighted CSSP with low-energy subroutines.

    The Section 2.3 recursion with the cutter's BFS replaced by the
    sleeping-model thresholded BFS.  Positive integer weights (contract
    zero-weight edges with :func:`repro.core.cssp.cssp` first if needed).

    The recursion hands the cutter the same graph again and again (``V1``
    keeps every node; quantum-1 rounding copies its input), so one
    construction memo serves every sparse cover and every Boruvka forest
    of this run.  It dies with the call: each run still pays for its own
    constructions, and the charged cost is unchanged.
    """
    metrics = metrics if metrics is not None else Metrics()
    source_offsets = dict(sources) if isinstance(sources, dict) else {s: 0 for s in sources}
    if graph.num_nodes == 0:
        return {}, metrics
    if not source_offsets:
        return {u: INFINITY for u in graph.nodes()}, metrics
    if any(w == 0 for _, _, w in graph.edges()):
        raise ValueError(
            "energy_cssp needs positive weights; contract zero-weight edges first"
        )

    memo: dict = {}

    def cutter(g, srcs, e, b, *, metrics):
        return energy_approx_cssp(
            g, srcs, e, b, metrics=metrics, base=base, stretch=stretch, memo=memo
        )

    bound = distance_upper_bound(graph)
    extra = max(source_offsets.values(), default=0)
    while bound < extra + graph.weighted_diameter_upper_bound():
        bound *= 2
    distances = _thresholded_recursive(
        graph, source_offsets, bound, eps=eps, metrics=metrics, memo=memo,
        cutter=cutter,
    )
    return distances, metrics

"""Sparse covers and layered sparse covers (Definitions 3.2 and 3.4).

A *sparse d-cover* is a set of clusters such that (i) each cluster has
bounded (weak) diameter ``d * stretch``, (ii) every node is in ``O(log n)``
clusters, and (iii) every node has a cluster containing its whole
``d``-ball.  Theorem 3.11 builds one from a ``(2d+1)``-separated
decomposition: expand every cluster of every color to its ``d``-
neighborhood; separation keeps same-color expansions disjoint, so
membership grows by at most one cluster per color, and the cluster that
expanded from a node's *own* decomposition cluster swallows its entire
``d``-ball (any other same-color cluster is ``> 2d+1`` away).

A *layered sparse D-cover* stacks sparse ``r_j``-covers for geometrically
growing radii with a parent relation: ``parent(C)`` fully contains ``C``
and its ``r_{j+1}/2``-neighborhood (Observation 3.3 / Definition 3.4).

Scaled-constants note (DESIGN.md, "Cover radii escalate by measured
stretch"): the paper takes ``B = Theta(log^3 n)`` so that ``B/2``
exceeds the cover stretch.  At simulation scale we instead escalate
radii *adaptively* —
``r_{j+1} = max(B * r_j, 2 * max tree radius at level j)`` — which is
precisely the inequality Observation 3.3 needs, with measured stretch
substituted for the worst-case bound.  Distances are weighted throughout
(Section 3.7); unit weights give the unweighted Section 3.3 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graphs import Graph, INFINITY
from ..sim import Metrics
from ..sim.memo import memoized
from .decomposition import build_decomposition
from .labeled_bfs import run_labeled_bfs

__all__ = ["CoverCluster", "SparseCover", "LayeredCover", "build_sparse_cover", "build_layered_cover"]


@dataclass
class CoverCluster:
    """One cover cluster: expanded membership + communication tree.

    ``tree_parent`` / ``tree_hops`` / ``tree_wdist`` describe the cluster
    tree over members *and* Steiner relays; hop depths drive the energy
    wake schedules, weighted distances drive containment radii.
    """

    cid: tuple  # (level, color, label) — globally unique
    root: object
    members: set = field(default_factory=set)
    tree_parent: dict = field(default_factory=dict)
    tree_hops: dict = field(default_factory=dict)
    tree_wdist: dict = field(default_factory=dict)

    @property
    def tree_nodes(self) -> set:
        return set(self.tree_parent)

    def tree_depth(self) -> int:
        return max(self.tree_hops.values(), default=0)

    def tree_radius(self) -> int:
        return max(self.tree_wdist.values(), default=0)

    def tree_edges(self) -> list[tuple]:
        return [(u, p) for u, p in self.tree_parent.items() if p is not None]


@dataclass
class SparseCover:
    """A sparse ``d``-cover: clusters, plus each node's designated *home*.

    ``home[v]`` is the cluster guaranteed to contain ``B(v, d)``
    (Definition 3.2, third property).
    """

    d: int
    clusters: list[CoverCluster]
    home: dict

    def memberships(self) -> dict:
        out: dict = {}
        for c in self.clusters:
            for u in c.members:
                out.setdefault(u, []).append(c)
        return out

    def tree_roles(self) -> dict:
        """Node -> list of clusters whose *tree* (member or relay) it is in."""
        out: dict = {}
        for c in self.clusters:
            for u in c.tree_nodes:
                out.setdefault(u, []).append(c)
        return out

    def max_membership(self) -> int:
        return max((len(v) for v in self.memberships().values()), default=0)

    def max_tree_depth(self) -> int:
        return max((c.tree_depth() for c in self.clusters), default=0)

    def max_tree_radius(self) -> int:
        return max((c.tree_radius() for c in self.clusters), default=0)

    def edge_tree_load(self) -> dict:
        load: dict = {}
        for c in self.clusters:
            for u, p in c.tree_edges():
                key = frozenset((u, p))
                load[key] = load.get(key, 0) + 1
        return load

    def has_universal_cluster(self, graph: Graph) -> bool:
        n = graph.num_nodes
        return any(len(c.members) == n for c in self.clusters)


def build_sparse_cover(
    graph: Graph,
    d: int,
    *,
    stretch: int | None = None,
    metrics: Metrics | None = None,
    memo: dict | None = None,
) -> SparseCover:
    """Theorem 3.11: sparse ``d``-cover from a ``(2d+1)``-separated
    decomposition, one labeled depth-``d`` BFS expansion per color.

    ``stretch`` caps the decomposition clusters' growth radius at
    ``stretch * (2d+1)`` — the scaled stand-in for RG20's ``O(log^3 n)``
    stretch factor.  ``None`` (the default) means ``2 * ceil(log2 n)``;
    experiments pass explicit values to study the tradeoff (E13).

    ``memo`` is a caller-owned dict that shares constructions between
    calls (see :func:`repro.sim.memo.memoized`): an input seen before
    returns the stored cover and charges its metered cost again.
    """
    import math

    metrics = metrics if metrics is not None else Metrics()
    if stretch is None:
        stretch = 2 * max(1, math.ceil(math.log2(max(2, graph.num_nodes))))
    return memoized(
        memo, metrics, graph, ("sparse-cover", d, stretch),
        lambda cost: _construct_sparse_cover(graph, d, stretch, cost),
    )


def _construct_sparse_cover(
    graph: Graph, d: int, stretch: int, metrics: Metrics
) -> SparseCover:
    decomposition = build_decomposition(
        graph, 2 * d + 1, metrics=metrics, radius_cap=stretch * (2 * d + 1)
    )

    clusters: dict[tuple, CoverCluster] = {}
    base_of: dict = {}
    for color_index, color in enumerate(decomposition.colors):
        for base in color:
            cid = (d, color_index, base.label)
            cover_cluster = CoverCluster(
                cid=cid,
                root=base.root,
                members=set(base.members),
                tree_parent=dict(base.tree_parent),
                tree_hops=dict(base.tree_hops),
            )
            _recompute_weighted_depths(graph, cover_cluster)
            clusters[cid] = cover_cluster
            for u in base.members:
                base_of[u] = cid

    for color_index, color in enumerate(decomposition.colors):
        sources = {
            u: (d, color_index, base.label) for base in color for u in base.members
        }
        if not sources:
            continue
        bfs = run_labeled_bfs(graph, sources, d, metrics=metrics)
        for u in graph.nodes():
            dist, cid, parent, hops = bfs[u]
            if dist == INFINITY or cid is None:
                continue
            cluster = clusters[cid]
            if u in cluster.members:
                continue
            cluster.members.add(u)
            _graft_path(graph, cluster, u, bfs)

    home = {u: clusters[base_of[u]] for u in graph.nodes()}
    return SparseCover(d=d, clusters=list(clusters.values()), home=home)


def _graft_path(graph: Graph, cluster: CoverCluster, u: object, bfs: dict) -> None:
    """Attach ``u``'s BFS path to the cluster tree, updating depth labels."""
    node = u
    chain = []
    while node not in cluster.tree_parent:
        chain.append(node)
        node = bfs[node][2]
    for tree_node in reversed(chain):
        parent = bfs[tree_node][2]
        cluster.tree_parent[tree_node] = parent
        cluster.tree_hops[tree_node] = cluster.tree_hops[parent] + 1
        cluster.tree_wdist[tree_node] = cluster.tree_wdist.get(parent, 0) + graph.weight(
            tree_node, parent
        )


def _recompute_weighted_depths(graph: Graph, cluster: CoverCluster) -> None:
    """Fill ``tree_wdist`` for a tree given by parent pointers."""
    order = sorted(cluster.tree_parent, key=lambda u: cluster.tree_hops[u])
    for u in order:
        p = cluster.tree_parent[u]
        if p is None:
            cluster.tree_wdist[u] = 0
        else:
            cluster.tree_wdist[u] = cluster.tree_wdist[p] + graph.weight(u, p)


@dataclass
class LayeredCover:
    """Definition 3.4: a stack of sparse covers with the parent relation.

    ``levels[j]`` is the sparse ``radii[j]``-cover; ``parent_of[cid]`` is
    the level-``j+1`` cluster fully containing that cluster plus its
    ``radii[j+1]/2``-neighborhood.
    """

    radii: list[int]
    levels: list[SparseCover]
    parent_of: dict

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def max_edge_load(self) -> int:
        """Max number of cluster trees through any edge, across all levels
        (the megaround width of Section 3.1.3)."""
        load: dict = {}
        for cover in self.levels:
            for key, count in cover.edge_tree_load().items():
                load[key] = load.get(key, 0) + count
        return max(load.values(), default=0)

    def cluster_by_id(self, cid: tuple) -> CoverCluster:
        for cover in self.levels:
            for c in cover.clusters:
                if c.cid == cid:
                    return c
        raise KeyError(cid)


def build_layered_cover(
    graph: Graph,
    target: int,
    *,
    base: int = 4,
    stretch: int | None = None,
    metrics: Metrics | None = None,
    memo: dict | None = None,
) -> LayeredCover:
    """Build a layered sparse cover reaching radius ``>= 2 * target``.

    ``base`` plays the paper's ``B``; radii escalate by
    ``max(base * r_j, 2 * measured tree radius)`` so the containment margin
    of Observation 3.3 holds by construction.  Construction stops early
    when some cluster already spans the whole graph (Section 3.6).
    ``memo`` is passed to every :func:`build_sparse_cover` call.
    """
    metrics = metrics if metrics is not None else Metrics()
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    # Activation-margin floor (Lemma 3.7, weighted form): a level-j cluster
    # must activate while the wavefront is still 2 * W_max away *and* offers
    # are sent up to W_max early, so every upper radius needs
    # r_j / 2 - 2 W_max - 1 >= 1.
    w_max = max(1, graph.max_weight())
    radius_floor = 4 * w_max + 4
    radii = [1]
    levels = [build_sparse_cover(graph, 1, stretch=stretch, metrics=metrics, memo=memo)]
    while True:
        cover = levels[-1]
        if cover.has_universal_cluster(graph) or radii[-1] >= 2 * target:
            break
        next_radius = max(
            base * radii[-1],
            2 * cover.max_tree_radius(),
            radii[-1] + 1,
            radius_floor,
        )
        radii.append(next_radius)
        levels.append(
            build_sparse_cover(
                graph, next_radius, stretch=stretch, metrics=metrics, memo=memo
            )
        )

    # Parent assignment: parent(C) = level-(j+1) home cluster of C's root,
    # which contains B(root, r_{j+1}) >= C plus its r_{j+1}/2-neighborhood.
    # When a level has a universal cluster (the early-stopping case of
    # Section 3.6) it is always a valid parent, so it serves as fallback.
    parent_of: dict = {}
    n = graph.num_nodes
    for j in range(len(levels) - 1):
        upper = levels[j + 1]
        universal = next((c for c in upper.clusters if len(c.members) == n), None)
        for c in levels[j].clusters:
            # With a universal upper cluster, route every chain through it:
            # containment is trivial and relevance (Lemma 3.6) reduces to
            # "does the graph contain a source", which is exactly right for
            # the early-stopped top level of Section 3.6.
            parent = universal if universal is not None else upper.home[c.root]
            parent_of[c.cid] = parent.cid
            if not c.tree_nodes <= parent.members:
                raise RuntimeError(
                    f"containment violated: cluster {c.cid} not inside its "
                    f"parent {parent.cid} — radius escalation insufficient"
                )
    return LayeredCover(radii=radii, levels=levels, parent_of=parent_of)

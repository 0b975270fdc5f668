"""Public validators for the Section 3 structures.

Downstream users who build their own decompositions or covers (or tweak
the construction knobs) need a way to check the structural invariants the
low-energy BFS relies on.  These validators state each definition's
conditions exactly and raise :class:`ValidationError` with a pinpointed
message on the first violation.  The test suite and the benchmarks use
them as the single source of truth for "is this structure legal".

Oracle note: the checks use sequential shortest-path computations, so they
are *auditors*, not distributed algorithms.
"""

from __future__ import annotations

from ..graphs import Graph
from .covers import LayeredCover, SparseCover
from .decomposition import Decomposition

__all__ = [
    "ValidationError",
    "validate_decomposition",
    "validate_sparse_cover",
    "validate_layered_cover",
]


class ValidationError(AssertionError):
    """A structural invariant of Definition 3.2/3.4 or Theorem 3.10 failed."""


def validate_decomposition(graph: Graph, decomposition: Decomposition) -> None:
    """Check the Theorem 3.10 contract: partition, separation, tree shape."""
    seen: dict = {}
    for cluster in decomposition.clusters:
        for u in cluster.members:
            if u in seen:
                raise ValidationError(
                    f"node {u!r} belongs to clusters {seen[u]!r} and {cluster.label!r}"
                )
            seen[u] = cluster.label
    missing = set(graph.nodes()) - set(seen)
    if missing:
        raise ValidationError(f"nodes not covered by any cluster: {sorted(map(repr, missing))[:5]}")

    k = decomposition.separation
    for color_index, color in enumerate(decomposition.colors):
        for i, a in enumerate(color):
            other_members = set()
            for b in color[i + 1:]:
                other_members |= b.members
            if not other_members:
                continue
            for u in a.members:
                dist = graph.dijkstra([u])
                for v in other_members:
                    if dist[v] <= k:
                        raise ValidationError(
                            f"color {color_index}: clusters {a.label!r} and the "
                            f"cluster of {v!r} are {dist[v]} <= {k} apart"
                        )

    for cluster in decomposition.clusters:
        _validate_tree(graph, cluster.tree_parent, cluster.root, cluster.members)


def validate_sparse_cover(graph: Graph, cover: SparseCover) -> None:
    """Check Definition 3.2: ball containment, trees, membership mapping."""
    for v in graph.nodes():
        if v not in cover.home:
            raise ValidationError(f"node {v!r} has no designated home cluster")
        home = cover.home[v]
        dist = graph.dijkstra([v])
        escapees = [u for u, d in dist.items() if d <= cover.d and u not in home.members]
        if escapees:
            raise ValidationError(
                f"B({v!r}, {cover.d}) is not inside home {home.cid}: "
                f"{sorted(map(repr, escapees))[:5]}"
            )
    for cluster in cover.clusters:
        _validate_tree(graph, cluster.tree_parent, cluster.root, cluster.members)
        for u, p in cluster.tree_parent.items():
            if p is None:
                continue
            if cluster.tree_hops[u] != cluster.tree_hops[p] + 1:
                raise ValidationError(f"hop label mismatch at {u!r} in {cluster.cid}")
            expected = cluster.tree_wdist[p] + graph.weight(u, p)
            if cluster.tree_wdist[u] != expected:
                raise ValidationError(f"weighted depth mismatch at {u!r} in {cluster.cid}")


def validate_layered_cover(graph: Graph, layered: LayeredCover) -> None:
    """Check Definition 3.4: per-level covers, radii growth, containment."""
    if len(layered.radii) != len(layered.levels):
        raise ValidationError("radii and levels length mismatch")
    for a, b in zip(layered.radii, layered.radii[1:]):
        if b <= a:
            raise ValidationError(f"radii must strictly increase, got {a} -> {b}")
    for level, cover in enumerate(layered.levels):
        validate_sparse_cover(graph, cover)
        if level == len(layered.levels) - 1:
            continue
        upper = {c.cid: c for c in layered.levels[level + 1].clusters}
        half = layered.radii[level + 1] // 2
        for cluster in cover.clusters:
            if cluster.cid not in layered.parent_of:
                raise ValidationError(f"cluster {cluster.cid} has no parent")
            parent = upper[layered.parent_of[cluster.cid]]
            if not cluster.tree_nodes <= parent.members:
                raise ValidationError(
                    f"tree of {cluster.cid} escapes parent {parent.cid}"
                )
            for u in cluster.members:
                dist = graph.dijkstra([u])
                escapees = [
                    v for v, d in dist.items() if d <= half and v not in parent.members
                ]
                if escapees:
                    raise ValidationError(
                        f"{cluster.cid}: r/2-neighborhood of {u!r} escapes parent"
                    )


def _validate_tree(graph: Graph, tree_parent: dict, root: object, members: set) -> None:
    if root not in tree_parent or tree_parent[root] is not None:
        raise ValidationError(f"root {root!r} missing or not a root")
    for u in members:
        if u not in tree_parent:
            raise ValidationError(f"member {u!r} missing from its cluster tree")
    for u, p in tree_parent.items():
        if p is None:
            continue
        if not graph.has_edge(u, p):
            raise ValidationError(f"tree edge {u!r}-{p!r} is not a graph edge")
    # Acyclicity / rootedness: walk every node to a root with a step bound.
    bound = len(tree_parent) + 1
    for u in tree_parent:
        walker, steps = u, 0
        while tree_parent[walker] is not None:
            walker = tree_parent[walker]
            steps += 1
            if steps > bound:
                raise ValidationError(f"cycle in tree parent pointers at {u!r}")

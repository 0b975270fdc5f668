"""Rooted spanning forests and tree communication primitives.

The CSSP recursion (Section 2.3) coordinates each connected component through
a rooted spanning tree: convergecast to detect "everyone in my subtree is
done", then broadcast of the chosen start round.  This module provides the
forest data structure those protocols share, and message-level convergecast /
broadcast node algorithms for the CONGEST mode.

The energy-model periodic variants (Section 3.1.1, with wake periods tied to
node depth) live in :mod:`repro.energy.cluster_comm`; here the tree protocols
are the plain always-awake versions.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from ..graphs import Graph
from ..sim import Context, Metrics, Mode, NodeAlgorithm, make_runner

__all__ = [
    "RootedForest",
    "bfs_forest",
    "ConvergecastBroadcast",
    "run_convergecast_broadcast",
]

#: Distinguishes "no result yet" from aggregates that are themselves None.
_UNSET = object()


class RootedForest:
    """A rooted spanning forest given by parent pointers.

    Each node has a parent (``None`` for roots); ``children``, ``depth`` and
    ``root_of`` are derived.  Used both as the output format of the
    distributed Boruvka algorithm and as the input to tree protocols.
    """

    def __init__(self, parent: dict) -> None:
        self.parent: dict = dict(parent)
        self.children: dict[object, list] = {u: [] for u in self.parent}
        for u, p in self.parent.items():
            if p is not None:
                if p not in self.children:
                    raise ValueError(f"parent {p!r} of {u!r} is not a node of the forest")
                self.children[p].append(u)
        for u in self.children:
            self.children[u].sort(key=repr)
        self.depth: dict[object, int] = {}
        self.root_of: dict[object, object] = {}
        for u in self.parent:
            if self.parent[u] is None:
                self._label_from_root(u)
        unlabeled = [u for u in self.parent if u not in self.depth]
        if unlabeled:
            raise ValueError(f"cycle or dangling parent pointers at {unlabeled[:5]}")

    def _label_from_root(self, root: object) -> None:
        self.depth[root] = 0
        self.root_of[root] = root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for c in self.children[u]:
                self.depth[c] = self.depth[u] + 1
                self.root_of[c] = root
                queue.append(c)

    @property
    def roots(self) -> list:
        return [u for u, p in self.parent.items() if p is None]

    def nodes(self) -> Iterable[object]:
        return self.parent.keys()

    def component(self, root: object) -> set:
        """All nodes in the tree rooted at ``root``."""
        return {u for u, r in self.root_of.items() if r == root}

    def components(self) -> dict[object, set]:
        """Mapping root -> node set for every tree of the forest."""
        out: dict[object, set] = {r: set() for r in self.roots}
        for u, r in self.root_of.items():
            out[r].add(u)
        return out

    def tree_depth(self, root: object) -> int:
        """Depth (max node depth) of the tree rooted at ``root``."""
        return max(self.depth[u] for u in self.component(root))

    def validate_against(self, graph: Graph) -> None:
        """Check every tree edge is a graph edge and the forest is spanning."""
        for u, p in self.parent.items():
            if p is not None and not graph.has_edge(u, p):
                raise ValueError(f"forest edge {u!r}-{p!r} is not in the graph")
        if set(self.parent) != set(graph.nodes()):
            raise ValueError("forest does not span the graph's node set")
        # Spanning also means: two nodes share a tree iff they share a
        # graph component (maximality).
        comp_of = {}
        for i, comp in enumerate(graph.connected_components()):
            for u in comp:
                comp_of[u] = i
        for u in self.parent:
            if comp_of[u] != comp_of[self.root_of[u]]:
                raise ValueError("tree crosses graph components")
        by_root: dict[object, set] = self.components()
        for root, members in by_root.items():
            graph_comp = {u for u in comp_of if comp_of[u] == comp_of[root]}
            if members != graph_comp:
                raise ValueError(
                    f"tree of {root!r} covers {len(members)} nodes but its "
                    f"graph component has {len(graph_comp)}"
                )


def bfs_forest(graph: Graph, roots: Iterable[object] | None = None) -> RootedForest:
    """Centrally computed BFS spanning forest (oracle/test helper).

    Not a distributed algorithm — production paths use the distributed
    Boruvka construction (:mod:`repro.core.boruvka`); this helper exists for
    unit tests and for setting up tree-protocol fixtures directly.
    """
    chosen_roots = list(roots) if roots is not None else []
    seen: set = set()
    parent: dict = {}
    order = chosen_roots + sorted((u for u in graph.nodes()), key=repr)
    for start in order:
        if start in seen:
            continue
        parent[start] = None
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in sorted(graph.neighbors(u), key=repr):
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    queue.append(v)
    return RootedForest(parent)


class ConvergecastBroadcast(NodeAlgorithm):
    """One convergecast up a rooted tree, then one broadcast back down.

    Every node contributes a value; values are folded bottom-up with an
    associative ``combine``; the root computes the final aggregate and
    broadcasts it; every node ends with the aggregate in ``self.result``.

    Time is ``O(tree depth)`` and exactly two messages traverse each tree
    edge (one up, one down) — the costs the paper charges for step 4 of the
    CSSP recursion, and the building block for "did everyone finish".

    No batch kernel: one measured within noise of scalar end to end
    (DESIGN.md, "Batch kernels: metering parity is the contract").
    """

    def __init__(
        self,
        forest: RootedForest,
        node: object,
        value: object,
        combine: Callable[[list], object],
    ) -> None:
        self.node = node
        self.parent = forest.parent[node]
        self.children = list(forest.children[node])
        self.value = value
        self.combine = combine
        self.result: object = _UNSET
        self._reports: list = []
        self._sent_up = False

    def on_round(self, ctx: Context, inbox) -> None:
        if inbox.senders:
            for payload in inbox.payloads:  # senders are not part of the fold
                kind, body = payload
                if kind == "up":
                    self._reports.append(body)
                elif kind == "down":
                    self.result = body
        if not self._sent_up and len(self._reports) == len(self.children):
            aggregate = self.combine([self.value] + self._reports)
            self._sent_up = True
            if self.parent is None:
                self.result = aggregate
            else:
                ctx.send(self.parent, ("up", aggregate))
        if self.result is not _UNSET and self._sent_up:
            for child in self.children:
                ctx.send(child, ("down", self.result))
            ctx.halt()
            return
        ctx.idle()


def run_convergecast_broadcast(
    graph: Graph,
    forest: RootedForest,
    values: dict,
    combine: Callable[[list], object],
    *,
    metrics: Metrics | None = None,
) -> dict:
    """Run one convergecast+broadcast over every tree of ``forest``.

    Returns node -> aggregate-of-its-tree.  Costs accrue into ``metrics``.
    """
    algorithms = {
        u: ConvergecastBroadcast(forest, u, values[u], combine) for u in graph.nodes()
    }
    runner = make_runner(graph, algorithms, Mode.CONGEST, metrics=metrics)
    runner.run()
    return {u: algorithms[u].result for u in graph.nodes()}

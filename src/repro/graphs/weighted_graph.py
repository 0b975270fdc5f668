"""Undirected weighted graph substrate used by every algorithm in the library.

The paper's model (Section 1.1) abstracts the network as an undirected
weighted graph ``G = (V, E)`` with integer edge weights in ``[1, poly(n)]``
(extended to weight 0 in Theorem 2.7).  This module provides that substrate:
a small, dependency-free adjacency structure with the handful of operations
the distributed algorithms need (neighbor iteration, induced subgraphs,
connected components) plus an exact sequential Dijkstra used as the internal
reference oracle.

Nothing in here is "distributed"; the distributed semantics (rounds,
messages, sleeping) live in :mod:`repro.sim`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator

__all__ = ["Graph", "INFINITY"]

#: Sentinel distance for unreachable nodes.  An integer larger than any
#: realizable distance would also work, but ``float('inf')`` composes cleanly
#: with ``min``.
INFINITY = float("inf")


class Graph:
    """An undirected weighted multigraph-free graph with integer node ids.

    Nodes are arbitrary hashable identifiers (the library uses small ints
    and, inside the CSSP recursion, tuples for imaginary cut nodes).  Edge
    weights are nonnegative integers, matching the paper's model.

    The structure is append-only: algorithms never mutate a shared graph;
    they derive induced subgraphs instead.
    """

    def __init__(self) -> None:
        self._adj: dict[object, dict[object, int]] = {}
        self._num_edges = 0
        # Cached frozen CSR view (see repro.graphs.indexed); dropped on any
        # mutation so IndexedGraph.of(self) never returns a stale snapshot.
        self._indexed_view = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, u: object) -> None:
        """Insert node ``u`` if absent."""
        if u not in self._adj:
            self._adj[u] = {}
            self._indexed_view = None

    def add_edge(self, u: object, v: object, weight: int = 1) -> None:
        """Insert undirected edge ``{u, v}`` with the given integer weight.

        Re-adding an existing edge keeps the smaller weight (the graphs the
        generators build never do this, but induced/merged constructions may).
        Self-loops are rejected: they carry no information for shortest paths
        and the CONGEST model has no self-edges.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        if weight < 0 or int(weight) != weight:
            raise ValueError(f"edge weight must be a nonnegative integer, got {weight!r}")
        weight = int(weight)
        self.add_node(u)
        self.add_node(v)
        self._indexed_view = None
        if v in self._adj[u]:
            keep = min(self._adj[u][v], weight)
            self._adj[u][v] = keep
            self._adj[v][u] = keep
            return
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._num_edges += 1

    @classmethod
    def from_edges(cls, edges: Iterable[tuple], nodes: Iterable[object] = ()) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, w)`` tuples.

        ``nodes`` adds isolated nodes that appear in no edge.
        """
        graph = cls()
        for node in nodes:
            graph.add_node(node)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                graph.add_edge(u, v, 1)
            else:
                u, v, w = edge
                graph.add_edge(u, v, w)
        return graph

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def nodes(self) -> Iterator[object]:
        return iter(self._adj)

    def has_node(self, u: object) -> bool:
        return u in self._adj

    def has_edge(self, u: object, v: object) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, u: object) -> Iterator[object]:
        return iter(self._adj[u])

    def degree(self, u: object) -> int:
        return len(self._adj[u])

    def weight(self, u: object, v: object) -> int:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._adj[u][v]

    def edges(self) -> Iterator[tuple[object, object, int]]:
        """Iterate each undirected edge exactly once as ``(u, v, w)``.

        An edge is emitted when its first endpoint (in node insertion order)
        is visited — one set lookup per directed edge, no per-edge key
        objects.
        """
        done: set = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in done:
                    yield u, v, w
            done.add(u)

    def max_weight(self) -> int:
        """Largest edge weight (0 for an edgeless graph)."""
        # Each undirected edge appears in both adjacency rows; the max is
        # unaffected, and scanning rows directly skips edge dedup entirely.
        return max(
            (max(nbrs.values()) for nbrs in self._adj.values() if nbrs), default=0
        )

    def min_weight(self) -> int:
        """Smallest edge weight (0 for an edgeless graph)."""
        return min(
            (min(nbrs.values()) for nbrs in self._adj.values() if nbrs), default=0
        )

    def weighted_diameter_upper_bound(self) -> int:
        """The paper's coarse bound ``n * max_weight >= max dist`` (Sec 2.2)."""
        return max(1, self.num_nodes * max(1, self.max_weight()))

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, keep: Iterable[object]) -> "Graph":
        """The subgraph induced by the node set ``keep``.

        Used by the CSSP recursion, where nodes outside ``V1`` (resp. inside
        ``V2``) are removed before recursing (Section 2.3, steps 4 and 6).
        The kept nodes keep this graph's insertion order, never the order of
        ``keep``, so a run on the subgraph cannot depend on set (hash) order.
        """
        keep_set = set(keep)
        sub = Graph()
        sub._adj = sub_adj = {u: {} for u in self._adj if u in keep_set}
        # Walk only the kept rows (O(sum of kept degrees), not O(m)) and
        # write the half-rows directly — the weights were validated when the
        # parent graph was built.
        directed = 0
        for u, row in sub_adj.items():
            for v, w in self._adj[u].items():
                if v in sub_adj:
                    row[v] = w
                    directed += 1
        sub._num_edges = directed // 2
        return sub

    def reweighted(self, fn) -> "Graph":
        """A copy with each weight ``w`` replaced by ``fn(w)``.

        The Nanongkai rounding trick (Lemma 2.1) is a reweighting followed by
        a weighted BFS; this helper keeps that transformation explicit.
        ``fn`` is called exactly once per undirected edge, in ``edges()``
        order (stateful fns like seeded RNG draws rely on both), with the
        rows written directly instead of going through ``add_edge``.
        """
        out = Graph()
        out_adj = out._adj
        for u in self._adj:
            out_adj[u] = {}
        for u, v, w in self.edges():
            raw = fn(w)
            nw = int(raw)
            if nw != raw or nw < 0:
                raise ValueError(
                    f"edge weight must be a nonnegative integer, got {raw!r}"
                )
            out_adj[u][v] = nw
            out_adj[v][u] = nw
        out._num_edges = self._num_edges
        return out

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set]:
        """Connected components as a list of node sets (deterministic order)."""
        seen: set = set()
        components: list[set] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in component:
                        component.add(v)
                        stack.append(v)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # sequential oracles (ground truth for tests and for simulator-internal
    # assertions; the distributed algorithms never call these)
    # ------------------------------------------------------------------
    def dijkstra(self, sources: Iterable[object]) -> dict[object, float]:
        """Exact closest-source distances ``dist(S, v)`` for all nodes.

        Standard binary-heap Dijkstra.  Nonnegative weights only, which the
        constructor already enforces.  Unreachable nodes map to ``INFINITY``.
        """
        dist: dict[object, float] = {u: INFINITY for u in self._adj}
        heap: list[tuple[float, int, object]] = []
        counter = 0  # tie-break so heterogeneous node ids never get compared
        for s in sources:
            if s not in self._adj:
                raise KeyError(f"source {s!r} is not a node of the graph")
            if dist[s] != 0:
                dist[s] = 0
                heapq.heappush(heap, (0, counter, s))
                counter += 1
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u].items():
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, counter, v))
                    counter += 1
        return dist

    def hop_distances(self, sources: Iterable[object]) -> dict[object, float]:
        """Unweighted (hop) distances from the closest source — a BFS oracle."""
        from collections import deque

        dist: dict[object, float] = {u: INFINITY for u in self._adj}
        queue: deque = deque()
        for s in sources:
            if s not in self._adj:
                raise KeyError(f"source {s!r} is not a node of the graph")
            if dist[s] != 0:
                dist[s] = 0
                queue.append(s)
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if dist[v] == INFINITY:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def mst_weight(self) -> int:
        """Total weight of a minimum spanning forest (sequential Kruskal).

        A sequential oracle like :meth:`dijkstra`: ground truth for the
        distributed Boruvka forest (Thm 2.2).  Disconnected graphs get a
        minimum spanning *forest* — one tree per component.
        """
        parent: dict[object, object] = {u: u for u in self._adj}

        def find(u: object) -> object:
            root = u
            while parent[root] != root:
                root = parent[root]
            while parent[u] != root:  # path compression
                parent[u], u = root, parent[u]
            return root

        total = 0
        # Deterministic tie-break: sort by (weight, endpoint reprs).
        for u, v, w in sorted(self.edges(), key=lambda e: (e[2], repr(e[0]), repr(e[1]))):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                total += w
        return total

    def hop_diameter(self) -> int:
        """Exact hop diameter of the (connected) graph.

        ``O(n * m)`` — fine at simulation scale; used only by experiments.
        Raises on disconnected graphs because the diameter is then infinite.
        """
        if not self.is_connected():
            raise ValueError("hop diameter of a disconnected graph is infinite")
        diameter = 0
        for u in self._adj:
            ecc = max(self.hop_distances([u]).values())
            diameter = max(diameter, int(ecc))
        return diameter

    def hop_eccentricity(self, u: object) -> int:
        """Max hop distance from ``u`` to any node in its component."""
        dist = self.hop_distances([u])
        finite = [d for d in dist.values() if d != INFINITY]
        return int(max(finite))

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, u: object) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"

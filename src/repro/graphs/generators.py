"""Deterministic and seeded graph-family generators for experiments.

The paper's lower bounds and claimed complexities are parameterized by the
node count ``n``, edge count ``m``, hop diameter ``D`` and max weight ``W``.
The families here let experiments sweep each parameter independently:

* ``path``/``cycle``: extreme diameter (``D = Theta(n)``) — the worst case in
  which the ``~O(n)`` SSSP time bound is trivially tight.
* ``grid``: ``D = Theta(sqrt(n))`` — intermediate diameter.
* ``balanced_tree``/``star``: logarithmic / constant diameter.
* ``random_graph`` (Erdos–Renyi G(n, p)): dense low-diameter graphs, the
  regime where congestion (not distance) is the bottleneck.
* ``random_connected_graph``: ER conditioned on connectivity via a random
  spanning-tree backbone — used when an experiment needs one component.
* ``caterpillar``/``lollipop``/``barbell``: classic stress shapes mixing a
  long path with a dense blob, exercising the recursion's uneven splits.
* ``weighted(...)``: wraps any family with random integer weights in
  ``[1, W]`` (or ``[0, W]`` for the Theorem 2.7 zero-weight experiments).

All randomness flows through an explicit ``random.Random(seed)`` so every
experiment is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .weighted_graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "star_graph",
    "complete_graph",
    "balanced_tree",
    "random_tree",
    "caterpillar_graph",
    "lollipop_graph",
    "barbell_graph",
    "random_graph",
    "random_connected_graph",
    "hypercube_graph",
    "random_geometric_graph",
    "circulant_graph",
    "random_weights",
    "with_random_weights",
    "FAMILIES",
    "make_family",
]


def path_graph(n: int) -> Graph:
    """Path ``0 - 1 - ... - n-1``; hop diameter ``n - 1``."""
    _require_positive(n)
    graph = Graph.from_edges(((i, i + 1) for i in range(n - 1)), nodes=range(n))
    return graph


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` nodes; hop diameter ``floor(n / 2)``."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """``rows x cols`` 4-neighbor grid; nodes are ``r * cols + c``."""
    _require_positive(rows)
    _require_positive(cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph.from_edges(edges, nodes=range(rows * cols))


def star_graph(n: int) -> Graph:
    """Star with center 0 and ``n - 1`` leaves; hop diameter 2."""
    _require_positive(n)
    return Graph.from_edges(((0, i) for i in range(1, n)), nodes=range(n))


def complete_graph(n: int) -> Graph:
    """Complete graph ``K_n``."""
    _require_positive(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(edges, nodes=range(n))


def balanced_tree(branching: int, height: int) -> Graph:
    """Complete ``branching``-ary tree of the given height (root = 0)."""
    if branching < 1:
        raise ValueError(f"branching must be >= 1, got {branching}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    edges = []
    next_id = 1
    frontier = [0]
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Graph.from_edges(edges, nodes=range(next_id))


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform-attachment random tree: node ``i`` attaches to a random ``j < i``."""
    _require_positive(n)
    rng = random.Random(seed)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return Graph.from_edges(edges, nodes=range(n))


def caterpillar_graph(spine: int, legs_per_node: int = 2) -> Graph:
    """A path of length ``spine`` with ``legs_per_node`` pendant leaves each."""
    _require_positive(spine)
    graph = path_graph(spine)
    next_id = spine
    for u in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(u, next_id)
            next_id += 1
    return graph


def lollipop_graph(clique: int, tail: int) -> Graph:
    """``K_clique`` with a path of ``tail`` extra nodes hanging off node 0."""
    graph = complete_graph(clique)
    prev = 0
    for i in range(tail):
        node = clique + i
        graph.add_edge(prev, node)
        prev = node
    return graph


def barbell_graph(clique: int, bridge: int) -> Graph:
    """Two ``K_clique`` blobs joined by a path of ``bridge`` nodes."""
    graph = complete_graph(clique)
    offset = clique + bridge
    for i in range(clique):
        for j in range(i + 1, clique):
            graph.add_edge(offset + i, offset + j)
    prev = 0
    for i in range(bridge):
        node = clique + i
        graph.add_edge(prev, node)
        prev = node
    graph.add_edge(prev, offset)
    return graph


def random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos–Renyi ``G(n, p)`` (possibly disconnected)."""
    _require_positive(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    graph = Graph()
    for u in range(n):
        graph.add_node(u)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                graph.add_edge(i, j)
    return graph


def random_connected_graph(n: int, extra_edge_prob: float = 0.05, seed: int = 0) -> Graph:
    """A connected random graph: random tree backbone + ER extra edges."""
    rng = random.Random(seed)
    graph = random_tree(n, seed=rng.randrange(2**31))
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.has_edge(i, j) and rng.random() < extra_edge_prob:
                graph.add_edge(i, j)
    return graph


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-cube: ``2^d`` nodes, diameter ``d`` — the classic
    low-diameter topology where congestion, not distance, dominates."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    n = 1 << dimension
    edges = []
    for u in range(n):
        for bit in range(dimension):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return Graph.from_edges(edges, nodes=range(n))


def random_geometric_graph(n: int, radius: float, seed: int = 0) -> Graph:
    """Unit-square geometric graph — the standard sensor-network model.

    Nodes get uniform positions; edges join pairs within ``radius``.  May
    be disconnected for small radii; weight = rounded scaled distance
    (minimum 1), so nearby sensors are "cheap" to reach.
    """
    _require_positive(n)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = random.Random(seed)
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    graph = Graph()
    for u in range(n):
        graph.add_node(u)
    for i in range(n):
        for j in range(i + 1, n):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            dist = (dx * dx + dy * dy) ** 0.5
            if dist <= radius:
                graph.add_edge(i, j, max(1, round(10 * dist / radius)))
    return graph


def circulant_graph(n: int, jumps: tuple = (1, 2)) -> Graph:
    """Circulant (ring + chords) — a simple bounded-degree expander-ish
    family with adjustable diameter via the jump set."""
    if n < 3:
        raise ValueError(f"circulant needs n >= 3, got {n}")
    edges = set()
    for u in range(n):
        for j in jumps:
            if j % n == 0:
                continue
            v = (u + j) % n
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(edges, nodes=range(n))


def random_weights(
    graph: Graph, max_weight: int, seed: int = 0, min_weight: int = 1
) -> Graph:
    """Copy of ``graph`` with uniform random integer weights in ``[min, max]``.

    ``min_weight=0`` produces the zero-weight-edge instances of Theorem 2.7.
    """
    if max_weight < min_weight:
        raise ValueError("max_weight must be >= min_weight")
    rng = random.Random(seed)
    return graph.reweighted(lambda _w: rng.randint(min_weight, max_weight))


def with_random_weights(
    family: Callable[..., Graph], max_weight: int, seed: int = 0, min_weight: int = 1
) -> Callable[..., Graph]:
    """Wrap a generator so it emits randomly weighted instances."""

    def build(*args, **kwargs) -> Graph:
        return random_weights(family(*args, **kwargs), max_weight, seed=seed, min_weight=min_weight)

    return build


#: Name -> (builder taking only n, description).  Used by experiments that
#: sweep node count across families uniformly.
FAMILIES: dict[str, Callable[[int], Graph]] = {
    "path": path_graph,
    "cycle": cycle_graph,
    "grid": lambda n: grid_graph(max(1, int(round(n**0.5))), max(1, int(round(n**0.5)))),
    "star": star_graph,
    "tree": lambda n: random_tree(n, seed=1),
    "er": lambda n: random_connected_graph(n, extra_edge_prob=min(1.0, 4.0 / max(n, 2)), seed=1),
    "caterpillar": lambda n: caterpillar_graph(max(1, n // 3), 2),
}


def make_family(name: str, n: int, max_weight: int = 1, seed: int = 0) -> Graph:
    """Build a named family instance at (approximately) ``n`` nodes.

    The topology comes from ``name`` and ``n`` alone: the random families
    (``tree``, ``er``) use a fixed generator seed.  ``seed`` draws only the
    weights, and only for ``max_weight > 1`` (random integers in
    ``[1, max_weight]``), so at ``max_weight == 1`` every seed gives the
    same instance.
    """
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; options: {sorted(FAMILIES)}")
    graph = FAMILIES[name](n)
    if max_weight > 1:
        graph = random_weights(graph, max_weight, seed=seed)
    return graph


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")

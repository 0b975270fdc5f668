"""Edge-list serialization for graphs.

Plain-text, one edge per line (``u v w``), with a header comment carrying the
node count so isolated nodes round-trip.  Used by the examples to persist
generated topologies and by users who want to feed their own networks in.
"""

from __future__ import annotations

import io
from pathlib import Path

from .weighted_graph import Graph

__all__ = ["write_edge_list", "read_edge_list", "dumps", "loads"]


def dumps(graph: Graph) -> str:
    """Serialize to the edge-list text format.

    :func:`loads` reads ``int`` node ids only, so the first other label
    in written order (a ``bool`` included) raises ``ValueError``.
    """
    nodes = sorted(graph.nodes(), key=repr)
    for u in nodes:
        if not isinstance(u, int) or isinstance(u, bool):
            raise ValueError(f"node ids must be ints; {u!r} would not read back")
    out = io.StringIO()
    out.write(f"# nodes {graph.num_nodes}\n")
    for u in nodes:
        out.write(f"# node {u}\n")
    for u, v, w in sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))):
        out.write(f"{u} {v} {w}\n")
    return out.getvalue()


def loads(text: str) -> Graph:
    """Parse the edge-list text format (integer node ids only).

    A malformed line raises ``ValueError`` naming its 1-based number and
    quoting its text: a wrong field count, a non-integer token, a
    self-loop or a negative weight.
    """
    graph = Graph()
    for k, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "node":
                    graph.add_node(int(parts[1]))
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"expected 3 fields 'u v w', got {len(fields)}")
            u, v, w = map(int, fields)
            graph.add_edge(u, v, w)
        except ValueError as exc:
            raise ValueError(f"line {k}: {line!r}: {exc}") from None
    return graph


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` in the edge-list format."""
    Path(path).write_text(dumps(graph))


def read_edge_list(path: str | Path) -> Graph:
    """Read a graph previously written by :func:`write_edge_list`."""
    return loads(Path(path).read_text())

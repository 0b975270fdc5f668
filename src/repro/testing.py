"""Shared test helpers, importable as a real module.

The suite used to keep these in ``tests/conftest.py`` and pull them in with
``from conftest import ...`` — which silently binds to *whichever* conftest
pytest imported first and broke collection outright once ``benchmarks/``
grew a conftest of its own.  Living under ``repro.testing`` they resolve the
same way for tests, benchmarks, and downstream users.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import graphs
from .graphs import Graph, INFINITY

__all__ = [
    "oracle_distances",
    "assert_distances_equal",
    "small_weighted_graph",
    "subprocess_env",
]


def subprocess_env() -> dict:
    """Environment for subprocess-based tests, with ``src/`` on PYTHONPATH.

    pytest's in-process ``pythonpath`` config does not reach spawned
    interpreters, so tests that ``subprocess.run([sys.executable, ...])``
    must inject the path to this source tree themselves.
    """
    src = str(Path(__file__).resolve().parent.parent)
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }


def oracle_distances(graph: Graph, sources: dict) -> dict:
    """Offset-aware ground truth: ``min_s (offset_s + dist(s, v))``."""
    best = {u: INFINITY for u in graph.nodes()}
    for s, offset in sources.items():
        d = graph.dijkstra([s])
        for u in graph.nodes():
            best[u] = min(best[u], offset + d[u])
    return best


def assert_distances_equal(actual: dict, expected: dict, context: str = "") -> None:
    bad = [
        (u, actual[u], expected[u])
        for u in expected
        if actual.get(u) != expected[u]
    ]
    assert not bad, f"{context}: first mismatches {bad[:5]}"


def small_weighted_graph(n: int, seed: int, max_weight: int = 10) -> Graph:
    return graphs.random_weights(
        graphs.random_connected_graph(n, seed=seed), max_weight, seed=seed + 1000
    )

"""Construction memo: build each distinct input once per call, replay its cost.

Some constructions are pure functions of their input graph's CSR snapshot
and a few parameters, and the recursions ask for the same input again and
again: the CSSP recursion rebuilds the Boruvka forest of the same graph, and
reruns its "everyone done?" convergecast over that forest, whenever
``V1`` keeps every node; the energy cutter rebuilds the same sparse
covers; and APSP runs ``n`` sources over one graph.

:func:`memoized` serves all of them from a caller-owned dict.  A miss
builds the construction against a fresh :class:`Metrics`; a hit returns
the stored value and charges that stored cost again through
:meth:`Metrics.merge`, so every caller pays for each construction it asks
for, exactly as if it had built it.  A replayed send trace shares the
stored cost's segments by reference: only their base clock is new.  The
memo lives as long as the dict its caller made, normally one top-level
call.
"""

from __future__ import annotations

from ..graphs import Graph
from ..graphs.indexed import IndexedGraph
from .events import current_engine
from .metrics import Metrics, SendTrace

__all__ = ["construction_key", "memoized"]


def construction_key(graph: Graph, *params) -> tuple:
    """Everything a construction reads from ``graph``, plus ``params``.

    Node and port order decide step and message order, so the key is the
    CSR snapshot itself (labels in order, ``indptr``/``nbr``/``wt`` in
    port order), not the edge set.
    """
    view = IndexedGraph.of(graph)
    return (
        tuple(view.labels), tuple(view.indptr), tuple(view.nbr), tuple(view.wt),
        *params,
    )


def memoized(memo: dict | None, metrics: Metrics, graph: Graph, params: tuple, construct):
    """``construct(metrics)``, through ``memo`` when the gate allows.

    ``params`` names the construction and its arguments besides
    ``graph``.  The gate bypasses the memo (and builds straight into
    ``metrics``) when:

    * ``memo`` is ``None``;
    * the ambient engine has a ``max_time`` or ``message_budget`` — a
      replay cannot note the stop outcome in its ``EngineStats``;
    * the ambient engine has a fault plane — no test shows a replay
      under faults to be exact.

    The key also holds the ambient engine config (the latency model
    changes the execution) and whether the caller keeps a send trace, so
    a cost recorded without a trace never replays into a traced caller.
    """
    if memo is None:
        return construct(metrics)
    config = current_engine()
    if config is not None and (
        config.faults is not None
        or config.max_time is not None
        or config.message_budget is not None
    ):
        return construct(metrics)
    traced = metrics.send_trace is not None
    key = (construction_key(graph, *params), config, traced)
    entry = memo.get(key)
    if entry is None:
        cost = Metrics()
        if traced:
            cost.send_trace = SendTrace()
        entry = memo[key] = (construct(cost), cost)
    value, cost = entry
    metrics.merge(cost, sequential=True)
    return value

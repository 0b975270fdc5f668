"""Labeled multi-source BFS: "which cluster is nearest, and how far?"

The decomposition growth steps (Theorem 3.10) and the cover expansion
(Theorem 3.11) both need a depth-``k`` BFS *from every active cluster at
once*, where each node learns the nearest cluster's label, its distance to
it, and a parent pointer back toward it.  Distances are weighted (the
energy-model CSSP of Section 3.7 grows covers by weighted radii; unit
weights recover the unweighted Section 3.3 case).

Ties break toward the smallest label key, deterministically, so the whole
construction is deterministic as the paper requires.  Each edge carries at
most one offer per direction (congestion ``O(1)`` per step).
"""

from __future__ import annotations

from ..graphs import Graph, INFINITY
from ..sim import Context, Metrics, Mode, NodeAlgorithm, make_runner
from ..sim.kernels import WAKE_HALT, BatchKernel, numpy_or_none

__all__ = ["LabeledBFS", "run_labeled_bfs"]


class _LabeledBFSKernel(BatchKernel):
    """Batch kernel for :class:`LabeledBFS`: the roster as state columns.

    Full-state kernel, written back in :meth:`finalize`; every branch
    mirrors one of :meth:`LabeledBFS.on_round`, including its exact
    finalization test ``_best[0] == r`` (it runs in strict CONGEST only).
    Offer payloads are tuples, so numpy only vectorizes the
    offer/threshold selection of high-degree nodes, with ``tolist()``
    keeping the distances plain ints.
    """

    def __init__(self, runner, algorithms) -> None:
        indexed = runner.indexed
        self._algorithms = algorithms
        self._indptr = indexed.indptr
        self._wt = indexed.wt
        self._np = np = numpy_or_none()
        csr = indexed.csr() if np is not None else None
        self._np_wt = csr[2] if csr is not None else None
        self._best = [a._best for a in algorithms]
        self._finalized = [a._finalized for a in algorithms]
        self._dist = [a.dist for a in algorithms]
        self._label = [a.label for a in algorithms]
        self._parent = [a.parent for a in algorithms]
        self._hops = [a.hops for a in algorithms]
        self._threshold = [a.threshold for a in algorithms]

    def on_round_batch(
        self, r, awake, inboxes,
        out_ports, out_payloads, bcast_src, bcast_payloads,
    ):
        best_col = self._best
        finalized = self._finalized
        threshold = self._threshold
        indptr = self._indptr
        wt = self._wt
        np = self._np
        np_wt = self._np_wt
        codes = []
        append = codes.append
        for i in awake:
            if finalized[i]:
                append(WAKE_HALT)
                continue
            box = inboxes[i]
            b = best_col[i]
            if box.senders:
                for sender, (dist, key, label, hops) in zip(box.senders, box.payloads):
                    if b is None or dist < b[0] or (dist == b[0] and key < b[1]):
                        b = (dist, key, label, sender, hops)
                best_col[i] = b
            thr = threshold[i]
            if b is not None and b[0] == r and r <= thr:
                dist, key, label, parent, hops = b
                self._dist[i] = dist
                self._label[i] = label
                self._parent[i] = parent
                self._hops[i] = hops
                finalized[i] = True
                payload_hops = hops + 1
                lo = indptr[i]
                hi = indptr[i + 1]
                if np_wt is not None and hi - lo >= 16:
                    offers = np_wt[lo:hi] + dist
                    sel = np.flatnonzero(offers <= thr)
                    for k, offer in zip(sel.tolist(), offers[sel].tolist()):
                        out_ports.append(lo + k)
                        out_payloads.append((offer, key, label, payload_hops))
                else:
                    for p in range(lo, hi):
                        offer = dist + wt[p]
                        if offer <= thr:
                            out_ports.append(p)
                            out_payloads.append((offer, key, label, payload_hops))
                append(WAKE_HALT)
            elif b is not None and b[0] <= thr:
                append(b[0])  # wake_at(_best): b[0] > r in this branch
            elif r <= thr:
                append(thr + 1)
            else:
                append(WAKE_HALT)
        return codes

    def finalize(self) -> None:
        for i, alg in enumerate(self._algorithms):
            alg.dist = self._dist[i]
            alg.label = self._label[i]
            alg.parent = self._parent[i]
            alg.hops = self._hops[i]
            alg._best = self._best[i]
            alg._finalized = self._finalized[i]


class LabeledBFS(NodeAlgorithm):
    """One node's role in the nearest-labeled-source weighted BFS.

    Offers are ``(distance, label_key, label, hops)``; a node finalizes the
    lexicographically smallest ``(distance, label_key)`` it can realize when
    the round ruler reaches that distance, exactly like
    :class:`repro.core.bfs.WeightedBFS` but carrying the winning label.
    ``self.dist``, ``self.label`` and ``self.parent`` hold the result.
    """

    def __init__(self, node: object, threshold: int, source_label: object = None) -> None:
        self.node = node
        self.threshold = threshold
        self.dist: float = INFINITY
        self.label: object = None
        self.parent: object = None
        self.hops: int = 0
        self._finalized = False
        if source_label is not None:
            self._best: tuple | None = (0, repr(source_label), source_label, None, 0)
        else:
            self._best = None

    def on_round(self, ctx: Context, inbox: list[tuple[object, object]]) -> None:
        if self._finalized:
            ctx.halt()
            return
        if inbox.senders:
            best = self._best
            for sender, (dist, key, label, hops) in zip(inbox.senders, inbox.payloads):
                if best is None or dist < best[0] or (dist == best[0] and key < best[1]):
                    best = (dist, key, label, sender, hops)
            self._best = best
        r = ctx.round
        if self._best is not None and self._best[0] == r and r <= self.threshold:
            dist, key, label, parent, hops = self._best
            self.dist = dist
            self.label = label
            self.parent = parent
            self.hops = hops
            self._finalized = True
            threshold = self.threshold
            payload_hops = hops + 1
            for v, w in zip(ctx.neighbors, ctx.edge_weights):
                offer = dist + w
                if offer <= threshold:
                    ctx.send(v, (offer, key, label, payload_hops))
            ctx.halt()
            return
        if self._best is not None and self._best[0] <= self.threshold:
            ctx.wake_at(self._best[0])
            return
        if r <= self.threshold:
            ctx.wake_at(self.threshold + 1)
            return
        ctx.halt()

    @classmethod
    def batch_kernel(cls, runner) -> _LabeledBFSKernel:
        return _LabeledBFSKernel(runner, runner._algorithms_by_index)


def run_labeled_bfs(
    graph: Graph,
    source_labels: dict,
    threshold: int,
    *,
    metrics: Metrics | None = None,
) -> dict:
    """Run the labeled BFS; returns node -> (dist, label, parent, hops).

    ``source_labels`` maps source node -> its cluster label.  Nodes beyond
    ``threshold`` (weighted distance) come back with ``dist == INFINITY``
    and ``label is None``.
    """
    algorithms = {
        u: LabeledBFS(u, threshold, source_label=source_labels.get(u))
        for u in graph.nodes()
    }
    make_runner(graph, algorithms, Mode.CONGEST, metrics=metrics).run()
    return {
        u: (algorithms[u].dist, algorithms[u].label, algorithms[u].parent, algorithms[u].hops)
        for u in graph.nodes()
    }

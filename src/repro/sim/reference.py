"""The original dict-of-objects simulator, retained as a semantic oracle.

:class:`ReferenceRunner` is the pre-indexed :class:`~repro.sim.Runner`
verbatim: dict mailboxes, a heap-plus-set wake schedule, per-message
``Counter`` capacity accounting, and the ``sorted(awake, key=repr)`` round
order.  It is deliberately *not* optimized — its whole job is to define the
model semantics so that differential tests can assert the fast indexed
engine produces identical metrics (rounds, messages, lost messages, energy,
congestion, and the opt-in send trace, stamped here one ``record_send``
or ``record_awake`` call at a time) on the same protocols.

Use it only in tests and debugging; everything else should go through
:class:`repro.sim.Runner`.
"""

from __future__ import annotations

import heapq
from collections import Counter

from ..graphs import Graph
from .metrics import Metrics
from .runner import _IDLE, Inbox, Mode, SimulationError

__all__ = ["ReferenceRunner"]


class _ReferenceContext:
    """Per-node handle of the reference engine (same API as ``Context``)."""

    __slots__ = ("node", "round", "_runner", "_neighbors", "_weights", "_next_wake", "_halted")

    def __init__(self, runner: "ReferenceRunner", node: object) -> None:
        self.node = node
        self.round = 0
        self._runner = runner
        self._neighbors = tuple(runner.graph.neighbors(node))
        self._weights = {v: runner.graph.weight(node, v) for v in self._neighbors}
        self._next_wake: int | None = None
        self._halted = False

    @property
    def neighbors(self) -> tuple:
        return self._neighbors

    @property
    def edge_weights(self) -> tuple:
        return tuple(self._weights[v] for v in self._neighbors)

    def weight(self, neighbor: object) -> int:
        return self._weights[neighbor]

    @property
    def degree(self) -> int:
        return len(self._neighbors)

    def send(self, neighbor: object, payload: object) -> None:
        if neighbor not in self._weights:
            raise SimulationError(f"{self.node!r} tried to message non-neighbor {neighbor!r}")
        self._runner._enqueue(self.node, neighbor, payload)

    def broadcast(self, payload: object) -> None:
        for v in self._neighbors:
            self.send(v, payload)

    def wake_at(self, round_number: int) -> None:
        if round_number <= self.round:
            raise SimulationError(
                f"{self.node!r} scheduled wake at {round_number} <= current round {self.round}"
            )
        if self._next_wake is None or round_number < self._next_wake:
            self._next_wake = round_number

    def sleep_for(self, rounds: int) -> None:
        self.wake_at(self.round + rounds)

    def wake_at_unchecked(self, round_number: int) -> None:
        self._next_wake = round_number

    def idle(self) -> None:
        self._next_wake = _IDLE

    def halt(self) -> None:
        self._halted = True


class ReferenceRunner:
    """Reference (slow, dict-based) executor with the original semantics."""

    def __init__(
        self,
        graph: Graph,
        algorithms: dict,
        mode: Mode = Mode.CONGEST,
        *,
        round_width: int = 1,
        edge_capacity: int = 1,
        metrics: Metrics | None = None,
        max_rounds: int = 10_000_000,
    ) -> None:
        missing = [u for u in graph.nodes() if u not in algorithms]
        if missing:
            raise SimulationError(f"nodes without an algorithm: {missing[:5]}")
        self.graph = graph
        self.algorithms = algorithms
        self.mode = mode
        self.round_width = round_width
        self.edge_capacity = edge_capacity
        self.metrics = metrics if metrics is not None else Metrics()
        self.max_rounds = max_rounds
        self._contexts = {u: _ReferenceContext(self, u) for u in graph.nodes()}
        # Mailboxes are Inbox views (same shape the fast engine hands out),
        # so the oracle can run the library's real algorithms — which read
        # the columnar ``senders`` / ``payloads`` attributes — not just the
        # differential-test protocols.
        self._mailboxes: dict[object, Inbox] = {u: Inbox() for u in graph.nodes()}
        self._outbox: list[tuple[object, object, object]] = []
        self._edge_load: Counter = Counter()

    # ------------------------------------------------------------------
    def _enqueue(self, src: object, dst: object, payload: object) -> None:
        self._edge_load[(src, dst)] += 1
        if self._edge_load[(src, dst)] > self.edge_capacity:
            raise SimulationError(
                f"edge capacity exceeded: {src!r}->{dst!r} sent "
                f"{self._edge_load[(src, dst)]} messages in round "
                f"{self._contexts[src].round} "
                f"(capacity {self.edge_capacity})"
            )
        self._outbox.append((src, dst, payload))

    # ------------------------------------------------------------------
    def run(self) -> Metrics:
        """Simulate until quiescence; return the (possibly shared) metrics."""
        self._wake_heap: list[int] = []
        self._wake_rounds: dict[int, set] = {}
        self._next_wake_of: dict[object, int | None] = {}
        for u in self.graph.nodes():
            self._schedule(u, 0)
        last_round = -1

        while self._wake_heap:
            r = heapq.heappop(self._wake_heap)
            bucket = self._wake_rounds.pop(r, set())
            awake = {
                u
                for u in bucket
                if self._next_wake_of.get(u) == r and not self._contexts[u]._halted
            }
            if not awake:
                continue
            if r >= self.max_rounds:
                raise SimulationError(f"exceeded max_rounds={self.max_rounds}")
            last_round = r

            self.metrics.current_round = r
            self._outbox = []
            self._edge_load = Counter()
            for u in sorted(awake, key=repr):
                ctx = self._contexts[u]
                ctx.round = r
                ctx._next_wake = None
                self._next_wake_of[u] = None
                inbox = self._mailboxes[u]
                self._mailboxes[u] = Inbox()
                self.algorithms[u].on_round(ctx, inbox)
                self.metrics.record_awake(u, self.round_width)

            for u in awake:
                ctx = self._contexts[u]
                if ctx._halted or ctx._next_wake is _IDLE:
                    continue
                nxt = ctx._next_wake if ctx._next_wake is not None else r + 1
                self._schedule(u, nxt)

            for src, dst, payload in self._outbox:
                if self.mode is Mode.SLEEPING:
                    delivered = dst in awake and not self._contexts[dst]._halted
                    self.metrics.record_send(src, dst, delivered)
                    if delivered:
                        box = self._mailboxes[dst]
                        box.senders.append(src)
                        box.payloads.append(payload)
                else:
                    self.metrics.record_send(src, dst, True)
                    if not self._contexts[dst]._halted:
                        box = self._mailboxes[dst]
                        box.senders.append(src)
                        box.payloads.append(payload)
                        self._schedule(dst, r + 1)

        self.metrics.record_rounds((last_round + 1) * self.round_width)
        return self.metrics

    def _schedule(self, node: object, round_number: int) -> None:
        current = self._next_wake_of.get(node)
        if current is not None and current <= round_number:
            return
        self._next_wake_of[node] = round_number
        bucket = self._wake_rounds.get(round_number)
        if bucket is None:
            self._wake_rounds[round_number] = {node}
            heapq.heappush(self._wake_heap, round_number)
        else:
            bucket.add(node)

"""Round-accurate simulator of the synchronous message-passing model.

Two execution modes mirror the paper's two settings:

* :data:`Mode.CONGEST` — the classic synchronous CONGEST model of
  Section 1.1.  Every node is conceptually awake every round.  As a pure
  simulation optimization, node algorithms may *sleep* through rounds in
  which they have nothing to do; the runner then buffers their messages and
  wakes them on arrival ("wake-on-message").  This changes no observable of
  the model — time, message and congestion accounting are exactly those of
  an always-awake execution — it only skips no-op Python work.  The energy
  metric is *not meaningful* in this mode.

* :data:`Mode.SLEEPING` — the sleeping model of Section 1.2.  A node is
  awake only in rounds it scheduled; **messages sent to a sleeping node are
  lost** (recorded in ``Metrics.lost_messages``) and there is no
  wake-on-message.  The awake-round count per node is the energy complexity.

Rounds are lock-step.  In round ``r`` every awake node consumes the messages
delivered to it in earlier rounds (its mailbox), updates state, and sends at
most ``edge_capacity`` messages per incident directed edge.  Messages sent in
round ``r`` are available from round ``r + 1``.

``round_width`` supports the paper's *megarounds* (Section 3.1.3): when
``k`` logical subroutines share edges, the paper groups ``k`` real rounds
into one megaround and a node awake in any of them stays awake for all of
them.  Setting ``round_width=k, edge_capacity=k`` makes one simulated round
stand for one megaround: the rounds/energy metrics advance by ``k`` per
simulated round and up to ``k`` messages may cross an edge (one per real
slot).  All paper-facing metrics remain exact.

Engine
------
This module holds the simulator's one engine loop.  :class:`Runner` runs
it under unit latency; :class:`~repro.sim.events.EventRunner` runs the
same loop with a per-edge latency model and graceful stopping conditions
(``max_time``, ``message_budget``).  The loop executes on the frozen
:class:`~repro.graphs.IndexedGraph` view of the network (built once per
graph and cached on it), so all per-round bookkeeping is integer-indexed
array work.  The message plane is *columnar*: per-round state lives in
flat parallel arrays, not per-message objects.

* the outbox is a pair of parallel lists ``(port_id, payload)`` — a unicast
  send appends one integer and one payload, no tuple is built;
* :meth:`Context.broadcast` is a fast path: a single ``(src_index,
  payload)`` record, not ``degree`` individual sends.  After the round's
  capacity check, each record is expanded over the node's CSR port slice
  into the unicast columns with C-level ``extend(range)`` and
  ``extend(repeat)``, so one inline loop delivers every message;
* delivery writes into reusable per-node :class:`Inbox` buffers (parallel
  ``senders`` / ``payloads`` lists cleared by truncation after each node
  steps), with sender labels taken from a precomputed per-port label table
  — steady-state rounds allocate no per-message tuples;
* the wake schedule is a heap of *distinct pending rounds* over per-round
  integer buckets, so quiet stretches between wakes are skipped outright
  (a round is pushed once when its bucket is created — no per-node heap
  churn); a kernel round whose nodes all return one wake code books its
  whole awake list into one bucket with one ``extend``;
* edge capacity is checked once per delivery round over the outbox port
  and broadcast columns, whether scalar steps or a batch kernel filled
  them; a round within capacity costs a few C-level set or ``Counter``
  passes, and exact per-port loads are computed only on a breach;
* awake nodes step in node-index order (graph insertion order), which is
  deterministic.

Messages get their arrival time from the latency model.  Under unit
latency a message sent in round ``r`` goes straight into its receiver's
inbox at the end of ``r`` and a CONGEST receiver is booked to wake at
``r + 1``: nothing reads an inbox between two rounds, so this is the same
execution as delivering at ``r + 1``.  Under any other model the message
is parked in a per-arrival-time slot (parallel port and payload lists)
and moved into the inbox at its arrival time, before that time's wakes
run.  Every accumulator, :class:`Metrics` subclasses included, is metered
in bulk under every latency model and fault plane: the run logs wake
indices and port ids, and folds each log in one C-level count
(``collections._count_elements``) through the label table and the cached
:meth:`~repro.graphs.IndexedGraph.port_pairs` table.  The engine makes no
``record_send`` or ``record_awake`` call.
An opt-in send trace is not folded at all: a traced run extends a port
column and a round column per delivery round, and a round column and an
awake-count column per active round, and hands them to the
:class:`~repro.sim.metrics.SendTrace` as one send segment and one wake
segment when it ends.

The :class:`Inbox` handed to ``on_round`` is a *view* over the runner's
reusable buffers: it iterates as ``(sender, payload)`` pairs exactly like
the old list-of-tuples mailbox, but it is valid **only during that
``on_round`` call** — algorithms that need the contents later must copy
them (``list(inbox)``).

Semantics are identical to :class:`repro.sim.reference.ReferenceRunner`
(the retained original implementation); the differential tests in
``tests/test_runner_differential.py`` pin the two engines to byte-identical
metrics, including broadcast-heavy, megaround and ``edge_capacity > 1``
protocols in both modes.
"""

from __future__ import annotations

import copy
import enum
from array import array
from collections import Counter, _count_elements
from heapq import heappop, heappush
from itertools import repeat

from ..graphs import Graph
from ..graphs.indexed import IndexedGraph
from .kernels import WAKE_HALT, kernel_for
from .metrics import Metrics

__all__ = ["Mode", "Context", "Inbox", "NodeAlgorithm", "Runner", "SimulationError"]


class Mode(enum.Enum):
    """Execution semantics: classic CONGEST vs the sleeping (energy) model."""

    CONGEST = "congest"
    SLEEPING = "sleeping"


class SimulationError(RuntimeError):
    """Raised on protocol violations (capacity breach, bad target, overrun)."""


#: Sentinel for :meth:`Context.idle` — sleep with no scheduled wake.
_IDLE = -1

#: Deferred metric logs fold into their counters once they reach this many
#: entries, bounding runner memory on message-heavy executions.  A send
#: trace's columns never fold: they are the trace, O(traced messages).
_LOG_FOLD = 1 << 20


def _fold_wakes(awake_rounds: Counter, wake_log: list, labels: list, width: int) -> None:
    if width == 1:
        _count_elements(awake_rounds, map(labels.__getitem__, wake_log))
        return
    for i, count in Counter(wake_log).items():
        awake_rounds[labels[i]] += count * width


def _check_capacity(r: int, cap: int, out_ports: list, bcast_src: list,
                    port_src: list, labels: list, nbr: list, indptr: list) -> None:
    """Raise if round ``r``'s outbox columns put more than ``cap`` messages
    on one directed edge; a broadcast charges each port of its sender.

    The common within-capacity round costs C-level set or ``Counter``
    passes only; exact per-port loads are computed when that test fails.
    """
    if cap == 1:
        if (len(set(out_ports)) == len(out_ports)
                and len(set(bcast_src)) == len(bcast_src)
                and (not out_ports or not bcast_src
                     or set(map(labels.__getitem__, bcast_src)).isdisjoint(
                         map(port_src.__getitem__, out_ports)))):
            return
    elif (max(Counter(out_ports).values(), default=0)
          + max(Counter(bcast_src).values(), default=0)) <= cap:
        return
    loads = Counter(out_ports)
    for src_i, count in Counter(bcast_src).items():
        for port_id in range(indptr[src_i], indptr[src_i + 1]):
            loads[port_id] += count
    over = [port_id for port_id, count in loads.items() if count > cap]
    if over:
        port_id = min(over)
        raise SimulationError(
            f"edge capacity exceeded: {port_src[port_id]!r}->{labels[nbr[port_id]]!r} "
            f"sent {loads[port_id]} messages in round {r} (capacity {cap})"
        )


#: ``next_wake`` marker for "no live wake scheduled".
_NONE = -1


class Inbox:
    """Columnar mailbox view: parallel ``senders`` / ``payloads`` lists.

    Iterating yields ``(sender, payload)`` pairs, so existing algorithms
    written against the list-of-tuples mailbox keep working unchanged; hot
    algorithms may read the parallel lists directly.  The view is backed by
    the runner's reusable per-node buffers and is valid **only during the
    ``on_round`` call it was handed to** — the runner truncates the buffers
    when the node's step returns.  Copy (``list(inbox)``) to keep contents.
    """

    __slots__ = ("senders", "payloads")

    def __init__(self) -> None:
        self.senders: list = []
        self.payloads: list = []

    def __len__(self) -> int:
        return len(self.senders)

    def __bool__(self) -> bool:
        return bool(self.senders)

    def __iter__(self):
        return zip(self.senders, self.payloads)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(zip(self.senders[key], self.payloads[key]))
        return (self.senders[key], self.payloads[key])

    def __eq__(self, other) -> bool:
        if isinstance(other, Inbox):
            return self.senders == other.senders and self.payloads == other.payloads
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Inbox({list(self)!r})"


class Context:
    """Per-node handle through which an algorithm interacts with the network.

    Exposes the node's local view only: its id, its incident edges and their
    weights, the current round, and the actions *send*, *broadcast*, *sleep*,
    *halt*.  Algorithms must not touch the graph globally — that is what
    keeps the implementations honest distributed algorithms.
    """

    __slots__ = (
        "node",
        "round",
        "_runner",
        "_index",
        "_neighbors",
        "_weights",
        "_ports",
        "_lo",
        "_hi",
        "_next_wake",
        "_halted",
    )

    def __init__(self, runner: "Runner", node: object, index: int, view: tuple) -> None:
        self.node = node
        self.round = 0
        self._runner = runner
        self._index = index
        # Shared, read-only per-node structures from IndexedGraph.node_views()
        # — built once per graph, reused by every runner over it.
        self._neighbors, self._weights, self._ports, self._lo, self._hi = view
        self._next_wake: int | None = None
        self._halted = False

    # -- local topology -------------------------------------------------
    @property
    def neighbors(self) -> tuple:
        return self._neighbors

    @property
    def edge_weights(self) -> tuple:
        """Weights aligned with :attr:`neighbors` — the bulk accessor.

        ``zip(ctx.neighbors, ctx.edge_weights)`` is the no-lookup way to
        walk incident edges in hot per-node loops.
        """
        return self._weights

    def weight(self, neighbor: object) -> int:
        # One dict hit on the port table (which the send path needs anyway)
        # instead of a second weight-only dict.
        return self._ports[neighbor][2]

    @property
    def degree(self) -> int:
        return len(self._neighbors)

    # -- actions ---------------------------------------------------------
    def send(self, neighbor: object, payload: object) -> None:
        """Send ``payload`` to ``neighbor`` this round.

        It arrives after the edge's delay: the next round under unit
        latency.
        """
        port = self._ports.get(neighbor)
        if port is None:
            raise SimulationError(f"{self.node!r} tried to message non-neighbor {neighbor!r}")
        runner = self._runner
        runner._out_ports.append(port[0])
        runner._out_payloads.append(payload)

    def broadcast(self, payload: object) -> None:
        """Send ``payload`` to every neighbor (one message per edge).

        The outbox records a single ``(src, payload)`` entry that the
        delivery phase expands over the node's CSR port slice — no
        per-edge Python work at send time.
        """
        if self._lo == self._hi:
            return
        runner = self._runner
        runner._bcast_src.append(self._index)
        runner._bcast_payloads.append(payload)

    def wake_at(self, round_number: int) -> None:
        """Sleep after this round and wake at the given absolute round."""
        if round_number <= self.round:
            raise SimulationError(
                f"{self.node!r} scheduled wake at {round_number} <= current round {self.round}"
            )
        if self._next_wake is None or round_number < self._next_wake:
            self._next_wake = round_number

    def sleep_for(self, rounds: int) -> None:
        """Sleep for ``rounds`` rounds (wake at ``round + rounds``)."""
        self.wake_at(self.round + rounds)

    def wake_at_unchecked(self, round_number: int) -> None:
        """Fast-path :meth:`wake_at` for a round's *single* schedule writer.

        Skips the future-round validation and the min-combine with earlier
        requests — the caller guarantees ``round_number > self.round`` and
        that no other ``wake_at`` was issued this round.  Hot schedulers
        that compute one final wake per round use this; everything else
        should call :meth:`wake_at`.
        """
        self._next_wake = round_number

    def idle(self) -> None:
        """Sleep with no scheduled wake.

        In CONGEST mode an arriving message wakes the node (this is the
        no-op-skipping optimization; the node is conceptually awake).  In the
        SLEEPING model an idle node genuinely never wakes again — use only
        when the protocol guarantees nothing more is coming.
        """
        self._next_wake = _IDLE

    def halt(self) -> None:
        """Finish: never wake again.  Output must already be in local state."""
        self._halted = True


class NodeAlgorithm:
    """Base class for one node's protocol logic.

    Subclasses implement :meth:`on_round`.  The same instance persists for
    the whole execution, so instance attributes are the node's local memory.
    By default a node stays awake every round until it calls ``ctx.halt()``
    or schedules a wake; override behavior entirely in ``on_round``.
    """

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        """Handle one awake round.

        ``inbox`` iterates as ``(sender, payload)`` pairs; it is a view over
        reusable buffers and is valid only during this call.
        """
        raise NotImplementedError

    @classmethod
    def batch_kernel(cls, runner) -> object | None:
        """Build a :class:`~repro.sim.kernels.BatchKernel` for ``runner``.

        Protocols ported to the batch path override this to return a
        kernel instance (or ``None`` when this particular run does not fit
        the kernel's shape).  The default keeps the scalar path.  The
        engine only consults this hook when every dispatch gate in
        :func:`~repro.sim.kernels.kernel_for` passes.
        """
        return None


class Runner:
    """Executes one protocol over a graph and meters it.

    Parameters
    ----------
    graph:
        The network — a :class:`~repro.graphs.Graph` (its cached
        :class:`~repro.graphs.IndexedGraph` view is used) or an
        :class:`~repro.graphs.IndexedGraph` directly.  Every node must have
        an algorithm.
    algorithms:
        Mapping node label -> :class:`NodeAlgorithm` instance.
    mode:
        :data:`Mode.CONGEST` (buffered, wake-on-message) or
        :data:`Mode.SLEEPING` (lossy, strict schedules).
    round_width / edge_capacity:
        Megaround support; see the module docstring.
    metrics:
        Optional shared accumulator (for phase composition).  A fresh one is
        created if omitted.
    max_rounds:
        Hard safety bound; exceeding it raises :class:`SimulationError`.
    faults:
        Optional :class:`~repro.sim.faults.FaultModel` (or axis string) —
        seeded message drop/duplication and node crash-restart applied in
        the delivery phase.  ``None``/``"none"`` leaves every hot path
        byte-identical to the fault-free engine.
    """

    def __init__(
        self,
        graph: Graph | IndexedGraph,
        algorithms: dict,
        mode: Mode = Mode.CONGEST,
        *,
        round_width: int = 1,
        edge_capacity: int = 1,
        metrics: Metrics | None = None,
        max_rounds: int = 10_000_000,
        faults=None,
    ) -> None:
        self._setup(graph, algorithms, mode, round_width, edge_capacity,
                    metrics, max_rounds, faults)

    def _setup(self, graph, algorithms, mode, round_width, edge_capacity,
               metrics, max_rounds, faults) -> None:
        """Constructor body shared by :class:`Runner` and the event runner."""
        indexed = graph if isinstance(graph, IndexedGraph) else IndexedGraph.of(graph)
        try:
            algorithms_by_index = [algorithms[label] for label in indexed.labels]
        except KeyError:
            missing = [u for u in indexed.labels if u not in algorithms]
            raise SimulationError(
                f"nodes without an algorithm: {missing[:5]}"
            ) from None
        self.graph = graph
        self.indexed = indexed
        self.algorithms = algorithms
        self.mode = mode
        self.round_width = round_width
        self.edge_capacity = edge_capacity
        self.metrics = metrics if metrics is not None else Metrics()
        self.max_rounds = max_rounds
        from .faults import parse_fault_model

        self.faults = parse_fault_model(faults)
        # Restart snapshots: a rebooted node comes back with *fresh*
        # algorithm state, so capture each node's initial instance before
        # the first step mutates it.  Only crash+restart plans pay for the
        # copies.
        if self.faults is not None and self.faults.crashes and self.faults.restart_after:
            self._restart_snapshots = [copy.deepcopy(alg) for alg in algorithms_by_index]
        else:
            self._restart_snapshots = None
        # Per-graph engine-state pool: recursive algorithms create runners
        # by the thousand over the same frozen view, so contexts and inbox
        # buffers are checked out of a single-slot pool on the IndexedGraph
        # instead of rebuilt.  The slot is returned only by a clean run(); a
        # second live runner over the same view (or a run that raised,
        # leaving dirty state) simply builds fresh.
        pool = indexed._engine_pool
        if pool is not None:
            indexed._engine_pool = None
            contexts, inboxes = pool
            for ctx in contexts:
                ctx._runner = self
                ctx._halted = False
                ctx._next_wake = None
            for box in inboxes:
                if box.senders:
                    box.senders.clear()
                    box.payloads.clear()
            self._contexts_by_index = contexts
            self._inboxes = inboxes
        else:
            self._build_state()
        self._algorithms_by_index = algorithms_by_index
        # Columnar outboxes: unicast sends as parallel (port, payload) lists,
        # broadcasts as one (src_index, payload) record each.
        self._out_ports: list[int] = []
        self._out_payloads: list[object] = []
        self._bcast_src: list[int] = []
        self._bcast_payloads: list[object] = []

    def _build_state(self) -> None:
        """Fresh per-run engine state (contexts and inbox buffers)."""
        indexed = self.indexed
        views = indexed.node_views()
        self._contexts_by_index = [
            Context(self, label, i, views[i])
            for i, label in enumerate(indexed.labels)
        ]
        self._inboxes = [Inbox() for _ in range(indexed.num_nodes)]

    # ------------------------------------------------------------------
    def run(self) -> Metrics:
        """Simulate until quiescence; return the (possibly shared) metrics."""
        self._execute()
        return self.metrics

    def _execute(self, delays=None, max_time=None, message_budget=None):
        """The engine loop, shared by :class:`Runner` and the event runner.

        ``delays`` is the per-port delay table of a non-unit latency model;
        ``None`` means unit latency, where a message sent at ``t`` goes
        straight into its receiver's inbox.  ``max_time`` and
        ``message_budget`` are the event runner's graceful stopping
        conditions.  Returns ``(stop_reason, final_time)``.
        """
        indexed = self.indexed
        n = indexed.num_nodes
        labels = indexed.labels
        nbr = indexed.nbr
        indptr = indexed.indptr
        port_src = indexed.port_src_labels()
        port_pairs = indexed.port_pairs()
        contexts = self._contexts_by_index
        if contexts and contexts[0]._runner is not self:
            # Our pooled state was checked out by a runner created after us
            # (pool checkout happens in __init__); rebuild private state so
            # this run stays correct and isolated.
            self._build_state()
            contexts = self._contexts_by_index
        algorithms = self._algorithms_by_index
        on_rounds = [alg.on_round for alg in algorithms]
        inboxes = self._inboxes
        out_ports = self._out_ports
        out_payloads = self._out_payloads
        bcast_src = self._bcast_src
        bcast_payloads = self._bcast_payloads
        metrics = self.metrics
        max_rounds = self.max_rounds
        cap = self.edge_capacity
        sleeping = self.mode is Mode.SLEEPING
        # An opt-in send trace is kept as columns: port and in-run round per
        # send, in-run round and awake count per active round.  They are
        # handed over as one send and one wake segment when the run ends.
        trace = metrics.send_trace
        if trace is not None:
            trace_ports = array("q")
            trace_rounds = array("q")
            wake_rounds = array("q")
            wake_counts = array("q")
        plane = self.faults
        # Batch-kernel dispatch: when every gate passes (numpy backend, no
        # fault plane, homogeneous roster that opts in, unit latency) the
        # per-round node loop below is replaced by one kernel call over the
        # whole awake set.  Delivery, scheduling, the
        # capacity check and all metering stay on the exact scalar code
        # path, which is what keeps kernel runs byte-identical (see
        # repro.sim.kernels).
        kernel = kernel_for(self) if delays is None else None

        # Wake schedule: per-round buckets of node indices plus a heap of the
        # *distinct* pending rounds.  A round enters the heap exactly once,
        # when its bucket is created, so the main loop pops straight from one
        # active round to the next — empty stretches cost nothing.  Stale
        # bucket entries (nodes rescheduled elsewhere) are filtered against
        # ``next_wake`` at pop time.
        heap: list[int] = []
        buckets: dict[int, list[int]] = {}
        next_wake = [0] * n
        if n:
            buckets[0] = list(range(n))
            heap.append(0)
        # Messages in flight under non-unit latency, by arrival time:
        # ``[unicast ports, unicast payloads, broadcast ports, broadcast
        # payloads]``, each lane in send order.  Arrivals at ``t`` enter
        # the inboxes before the wakes at ``t`` run, unicasts first — the
        # order a unit-latency round's delivery phase fills them in.
        parked: dict[int, list[list]] = {}
        # last round each node woke (for sleeping-mode delivery).
        awake_stamp = [-1] * n if sleeping else None
        # --- fault plane (repro.sim.faults) ---------------------------
        # ``plane is None`` on fault-free runs: every branch below then
        # follows the exact pre-fault code path (the byte-identity
        # guarantee the differential tests pin).
        crashed: list[bool] | None = None
        crash_at: dict[int, list[int]] | None = None
        restart_at: dict[int, list[int]] = {}
        # Each rate is tested once per run: a zero-rate hazard makes no draws.
        drops = plane.drop_message if plane is not None and plane.drop else None
        dups = plane.duplicate_message if plane is not None and plane.dup else None
        if plane is not None:
            crashed = [False] * n
            if plane.crashes:
                index_of = {label: i for i, label in enumerate(labels)}
                crash_at = {}
                for node, (when, restart) in plane.crash_plan(labels).items():
                    crash_at.setdefault(when, []).append(index_of[node])
                    if restart is not None:
                        restart_at.setdefault(restart, []).append(index_of[node])
                # Force a scheduler visit at every fault-event round so
                # crashes and restarts fire even in quiet stretches.
                for when in (*crash_at, *restart_at):
                    if when not in buckets:
                        buckets[when] = []
                        heappush(heap, when)
        last_round = -1
        messages_sent = 0
        stop_reason = None
        # Metric logs: per-round counter updates are deferred to batched
        # folds (Counter.update and dict increments have per-call overhead
        # that dominates sparse rounds).  The logs fold mid-run
        # whenever they pass _LOG_FOLD entries, so memory stays bounded even
        # on Theta(mn)-message workloads.
        wake_log: list[int] = []
        port_log: list[int] = []
        # Fault-draw occurrence counters of the delivery round.
        occ: dict[int, int] = {}

        while heap:
            r = heappop(heap)
            if max_time is not None and r > max_time:
                # Stop only if work remains past the horizon: a live wake or
                # a message still in flight.  Fault-event rounds alone (a
                # crash scheduled after the run went quiet) do not count.
                if parked or any(
                    wake != _NONE and (crashed is None or not crashed[i])
                    for i, wake in enumerate(next_wake)
                ):
                    stop_reason = "max_time"
                break
            bucket = buckets.pop(r)
            if crash_at is not None:
                # Crash events fire before anything else at their round: the
                # victim does not step, its buffered inbox is destroyed (the
                # messages were metered as delivered sends — they vanish
                # into ``messages_dropped`` only).
                for i in crash_at.get(r, ()):
                    crashed[i] = True
                    metrics.record_crash(labels[i])
                    box = inboxes[i]
                    if box.senders:
                        metrics.messages_dropped += len(box.senders)
                        box.senders.clear()
                        box.payloads.clear()
            if parked:
                arrivals = parked.pop(r, None)
                if arrivals is not None:
                    # A message arriving at a dead node is metered as
                    # dropped; a halted one discards it silently; CONGEST
                    # receivers wake on arrival.
                    for lane in (0, 2):
                        for port_id, payload in zip(arrivals[lane], arrivals[lane + 1]):
                            dst_i = nbr[port_id]
                            if crashed is not None and crashed[dst_i]:
                                metrics.messages_dropped += 1
                                continue
                            if contexts[dst_i]._halted:
                                continue
                            box = inboxes[dst_i]
                            box.senders.append(port_src[port_id])
                            box.payloads.append(payload)
                            if not sleeping:
                                cur = next_wake[dst_i]
                                if cur == _NONE or cur > r:
                                    next_wake[dst_i] = r
                                    bucket.append(dst_i)
            if restart_at:
                # Restarts rebind a fresh copy of the node's initial
                # algorithm and book it to wake *this* round, as if it had
                # just joined the network.  They fire after this round's
                # arrivals, which a node down until now never sees.
                for i in restart_at.get(r, ()):
                    fresh = copy.deepcopy(self._restart_snapshots[i])
                    algorithms[i] = fresh
                    self.algorithms[labels[i]] = fresh
                    on_rounds[i] = fresh.on_round
                    ctx = contexts[i]
                    ctx._halted = False
                    ctx._next_wake = None
                    crashed[i] = False
                    metrics.record_recovery(labels[i])
                    next_wake[i] = r
                    bucket.append(i)
            # Keep live entries only; consuming an entry marks it dead so a
            # node double-booked into one bucket still steps once.
            awake: list[int] = []
            if crashed is None:
                for i in bucket:
                    if next_wake[i] == r:
                        next_wake[i] = _NONE
                        awake.append(i)
            else:
                for i in bucket:
                    if next_wake[i] == r:
                        next_wake[i] = _NONE
                        if not crashed[i]:
                            awake.append(i)
            if not awake:
                continue
            if r >= max_rounds:
                raise SimulationError(f"exceeded max_rounds={max_rounds}")
            last_round = r
            awake.sort()
            wake_log.extend(awake)
            if trace is not None:
                wake_rounds.append(r)
                wake_counts.append(len(awake))

            # --- node steps (deterministic node-index order) ------------
            nxt_round = r + 1
            codes = None
            if kernel is not None:
                codes = kernel.on_round_batch(
                    r, awake, inboxes,
                    out_ports, out_payloads, bcast_src, bcast_payloads,
                )
            if codes is not None:
                # Kernel round: apply the returned wake codes with the
                # same scheduling logic as the scalar loop below.  The
                # kernel's sends sit in the outbox columns, where the
                # delivery phase checks their capacity like scalar sends.
                for i in awake:
                    if sleeping:
                        awake_stamp[i] = r
                    box = inboxes[i]
                    if box.senders:
                        box.senders.clear()
                        box.payloads.clear()
                wake = codes[0]
                if codes.count(wake) == len(codes):
                    # One code for the whole round, the common case: the
                    # awake list (this round's own) is booked as one bucket.
                    if wake >= 0:
                        for i in awake:
                            next_wake[i] = wake
                        slot_bucket = buckets.get(wake)
                        if slot_bucket is None:
                            buckets[wake] = awake
                            heappush(heap, wake)
                        else:
                            slot_bucket.extend(awake)
                    else:  # WAKE_HALT
                        for i in awake:
                            contexts[i]._halted = True
                else:
                    for i, wake in zip(awake, codes):
                        if wake == WAKE_HALT:
                            contexts[i]._halted = True
                            continue
                        next_wake[i] = wake
                        slot_bucket = buckets.get(wake)
                        if slot_bucket is None:
                            buckets[wake] = [i]
                            heappush(heap, wake)
                        else:
                            slot_bucket.append(i)
                awake = ()  # the kernel stepped the whole round
            for i in awake:
                if sleeping:
                    awake_stamp[i] = r
                ctx = contexts[i]
                ctx.round = r
                ctx._next_wake = None
                box = inboxes[i]
                on_rounds[i](ctx, box)
                # Truncate the reusable buffers; the Inbox view the
                # algorithm saw is now dead (documented contract).
                if box.senders:
                    box.senders.clear()
                    box.payloads.clear()
                # Schedule the node's next wake right here: all steps finish
                # before delivery runs, so wake-on-message still sees the
                # complete post-round schedule.
                wake = ctx._next_wake
                if ctx._halted or wake is _IDLE:
                    continue
                s = wake if wake is not None else nxt_round
                next_wake[i] = s
                slot_bucket = buckets.get(s)
                if slot_bucket is None:
                    buckets[s] = [i]
                    heappush(heap, s)
                else:
                    slot_bucket.append(i)

            # --- delivery -------------------------------------------------
            if out_ports or bcast_src:
                if bcast_src or len(out_ports) > cap:
                    _check_capacity(r, cap, out_ports, bcast_src, port_src,
                                    labels, nbr, indptr)
                # Expand each broadcast over its sender's port slice: the
                # round's sends become one port column and one payload
                # column, unicasts first, then broadcasts, each in send order.
                unicasts = len(out_ports)
                if bcast_src:
                    for src_i, payload in zip(bcast_src, bcast_payloads):
                        lo, hi = indptr[src_i], indptr[src_i + 1]
                        out_ports.extend(range(lo, hi))
                        out_payloads.extend(repeat(payload, hi - lo))
                    bcast_src.clear()
                    bcast_payloads.clear()
                sent = len(out_ports)
                metrics.total_messages += sent
                port_log.extend(out_ports)
                if trace is not None:
                    trace_ports.extend(out_ports)
                    trace_rounds.extend(repeat(r, sent))
                nxt_bucket = buckets.get(nxt_round)
                if plane is not None:
                    occ.clear()
                # Resolve each send: fault draws, loss, routing.  A draw's key
                # counts occurrences in send order (see repro.sim.faults), so
                # a faulted run draws the same faults under every latency model.
                for j, (port_id, payload) in enumerate(zip(out_ports, out_payloads)):
                    dst_i = nbr[port_id]
                    src = port_src[port_id]
                    if plane is not None:
                        dst = labels[dst_i]
                        k = occ.get(port_id, 0)
                        occ[port_id] = k + 1
                        if (drops is not None and drops(src, dst, r, k)) or crashed[dst_i]:
                            metrics.messages_dropped += 1
                            continue
                    # A sleeping-model message reaches its target only if the
                    # target was awake in the round it was sent (Sec 1.2); a
                    # CONGEST message is never lost, and a halted node
                    # discards it silently.
                    if contexts[dst_i]._halted or (sleeping and awake_stamp[dst_i] != r):
                        if sleeping:
                            metrics.lost_messages += 1
                        continue
                    # The duplicate lands right after the original — a fault
                    # artifact outside the capacity and message metering.
                    dup = dups is not None and dups(src, dst, r, k)
                    if dup:
                        metrics.record_duplicated(src, dst)
                    if delays is not None:
                        arrival = r + delays[port_id]
                        slot = parked.get(arrival)
                        if slot is None:
                            slot = parked[arrival] = [[], [], [], []]
                            if arrival not in buckets:
                                buckets[arrival] = []
                                heappush(heap, arrival)
                        lane = 0 if j < unicasts else 2
                        ports, payloads = slot[lane], slot[lane + 1]
                        ports.append(port_id)
                        payloads.append(payload)
                        if dup:
                            ports.append(port_id)
                            payloads.append(payload)
                        continue
                    box = inboxes[dst_i]
                    box.senders.append(src)
                    box.payloads.append(payload)
                    if dup:
                        box.senders.append(src)
                        box.payloads.append(payload)
                    if not sleeping:
                        cur = next_wake[dst_i]
                        if cur == _NONE or cur > nxt_round:
                            next_wake[dst_i] = nxt_round
                            if nxt_bucket is None:
                                nxt_bucket = buckets[nxt_round] = [dst_i]
                                heappush(heap, nxt_round)
                            else:
                                nxt_bucket.append(dst_i)
                out_ports.clear()
                out_payloads.clear()
                if len(port_log) >= _LOG_FOLD:
                    _count_elements(metrics.edge_messages, map(port_pairs.__getitem__, port_log))
                    port_log.clear()
                if message_budget is not None:
                    # Budgets bound work; they do not tear messages, so the
                    # round's batch resolves whole before the stop.
                    messages_sent += sent
                    if messages_sent >= message_budget:
                        stop_reason = "message_budget"
                        break
            # wake_log grows on message-free rounds too, so its bound check
            # cannot hide inside the delivery block.
            if len(wake_log) >= _LOG_FOLD:
                _fold_wakes(metrics.awake_rounds, wake_log, labels, self.round_width)
                wake_log.clear()

        if stop_reason is None and max_time is not None and sleeping and delays is None:
            # Unit latency puts the sends of round max_time straight into
            # the inboxes, but they arrive at max_time + 1, past the
            # horizon.  A receiver that stepped at max_time and holds mail
            # is undelivered work, as its parked twin is under any other
            # latency model.  (CONGEST receivers are booked for the next
            # round, which the horizon check above already sees.)
            if any(stamp == max_time and inboxes[i].senders
                   for i, stamp in enumerate(awake_stamp)):
                stop_reason = "max_time"
        if kernel is not None:
            # Kernels that mirror instance state in their own columns write
            # it back here — drivers read results off the instances.
            kernel.finalize()
        # Final fold of the deferred logs: one C-level count each, through
        # the label and port-pair tables; no per-message label objects.
        if wake_log:
            _fold_wakes(metrics.awake_rounds, wake_log, labels, self.round_width)
        if port_log:
            _count_elements(metrics.edge_messages, map(port_pairs.__getitem__, port_log))
        if trace is not None:
            # Before record_rounds below: metrics.rounds is still the clock
            # this run started at.
            trace.add(metrics.rounds, port_pairs, trace_ports, trace_rounds)
            trace.add_wakes(metrics.rounds, wake_rounds, wake_counts)
        final_time = (last_round + 1) * self.round_width
        metrics.record_rounds(final_time)
        if indexed._engine_pool is None:
            # Park the state for the next runner over this view.  Drop the
            # backreferences first: the pool outlives this runner (it hangs
            # off the cached IndexedGraph), and a live ctx._runner would pin
            # the whole finished runner — algorithms, metrics and all — for
            # the graph's lifetime.  Checkout re-points _runner anyway.
            for ctx in contexts:
                ctx._runner = None
            indexed._engine_pool = (contexts, inboxes)
        return stop_reason, final_time

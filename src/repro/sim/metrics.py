"""Complexity metrics for simulated distributed executions.

The paper's claims are stated in four currencies (Sections 1.1 and 1.2):

* **time** — number of lock-step rounds until all nodes have their outputs;
* **message complexity** — total messages sent network-wide;
* **congestion** — the maximum, over directed edges, of messages sent
  through that edge during the whole execution;
* **energy** — the maximum, over nodes, of rounds in which the node is awake.

:class:`Metrics` records all four, plus per-node subproblem participation
(to validate Lemma 2.4) and lost-message counts (sleeping model).  Metrics
objects merge, so a recursive algorithm's totals are honest sums over its
phases.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress, repeat
from operator import add

__all__ = ["Metrics", "SendTrace"]

#: The shared columns of a one-wake segment (:meth:`SendTrace.stamp_wake`).
_ROUND_ZERO, _ONE = array("q", [0]), array("q", [1])


def _add_counts(target: Counter, other: Counter) -> None:
    """``target.update(other)`` for a mapping ``other``, looped in C.

    ``Counter.update`` adds a mapping into a non-empty counter one key at
    a time in Python.  This sums the same pairs and inserts new keys in
    the same order, through ``dict.update`` over a lazy ``zip``; each
    key's old count is read before its new count is stored.  An empty
    ``other`` (a replayed run records no participation) costs one test.
    """
    if other:
        dict.update(
            target, zip(other, map(add, map(target.get, other, repeat(0)), other.values()))
        )


class SendTrace:
    """Per-(directed edge, round) send counts and per-round wakes, as columns.

    The trace is a list of immutable *segments* ``(base, pairs, ports,
    rounds)``: send ``k`` of a segment went over the directed edge
    ``pairs[ports[k]]`` (a ``(src, dst)`` label pair) in round ``base +
    rounds[k]``.  An engine run adds one segment whose ``pairs`` is its
    graph view's per-port label table and whose ``base`` is the clock the
    run started at; merging another trace appends that trace's segments
    with their ``base`` shifted, sharing the columns by reference.  Once a
    segment is in :attr:`segments` nothing mutates it.

    :attr:`wake_segments` ``(base, rounds, counts)`` follow the same
    rules: ``counts[k]`` nodes were awake in round ``base + rounds[k]``.
    An engine run adds one, with an entry per active round.

    :meth:`stamp` records one send by label (the reference engine's
    path); stamps collect in an open segment that is sealed into
    :attr:`segments` on the next read.  :meth:`stamp_wake` adds a
    one-wake segment.  :meth:`counts` materializes the classic
    ``Counter{((src, dst), round): messages}``.
    """

    __slots__ = ("_segments", "_open", "wake_segments")

    def __init__(self) -> None:
        self._segments: list[tuple] = []
        #: Unsealed stamps: ``({(src, dst): port}, pairs, ports, rounds)``.
        self._open: tuple | None = None
        self.wake_segments: list[tuple] = []

    def stamp(self, src: object, dst: object, round_number: int) -> None:
        """Record one send on ``src -> dst`` in absolute round ``round_number``."""
        if self._open is None:
            self._open = ({}, [], array("q"), array("q"))
        index, pairs, ports, rounds = self._open
        pair = (src, dst)
        port = index.get(pair)
        if port is None:
            port = index[pair] = len(pairs)
            pairs.append(pair)
        ports.append(port)
        rounds.append(round_number)

    def stamp_wake(self, round_number: int) -> None:
        """Record one node awake in absolute round ``round_number``."""
        self.wake_segments.append((round_number, _ROUND_ZERO, _ONE))

    def add(self, base: int, pairs, ports: array, rounds: array) -> None:
        """Append one segment; the caller hands over ``ports``/``rounds``.

        An empty segment is dropped, so every stored segment has a round.
        """
        if ports:
            self._segments.append((base, pairs, ports, rounds))

    def add_wakes(self, base: int, rounds: array, counts: array) -> None:
        """Append one wake segment; the caller hands over the columns."""
        if rounds:
            self.wake_segments.append((base, rounds, counts))

    @property
    def segments(self) -> list[tuple]:
        """The ``(base, pairs, ports, rounds)`` segments (open stamps sealed)."""
        if self._open is not None:
            _index, pairs, ports, rounds = self._open
            self._segments.append((0, tuple(pairs), ports, rounds))
            self._open = None
        return self._segments

    def extend(self, other: "SendTrace", shift: int) -> None:
        """Append ``other``'s segments, ``shift`` rounds later, sharing columns."""
        self._segments.extend(
            [(base + shift, pairs, ports, rounds)
             for base, pairs, ports, rounds in other.segments]
        )
        self.wake_segments.extend(
            [(base + shift, rounds, counts) for base, rounds, counts in other.wake_segments]
        )

    def counts(self) -> Counter:
        """``Counter{((src, dst), round): messages}`` over every segment."""
        out: Counter = Counter()
        for base, pairs, ports, rounds in self.segments:
            out.update(zip(map(pairs.__getitem__, ports), map(base.__add__, rounds)))
        return out

    def wakes(self) -> Counter:
        """``Counter{round: awake nodes}`` over every wake segment."""
        out: Counter = Counter()
        for base, rounds, counts in self.wake_segments:
            for r, count in zip(rounds, counts):
                out[base + r] += count
        return out

    def rounds_on(self, edges) -> Counter:
        """``Counter{round: messages}`` over the directed ``edges`` only."""
        out: Counter = Counter()
        wanted_by_table: dict[int, set] = {}
        for base, pairs, ports, rounds in self.segments:
            wanted = wanted_by_table.get(id(pairs))
            if wanted is None:
                wanted = wanted_by_table[id(pairs)] = {
                    port for port, pair in enumerate(pairs) if pair in edges
                }
            if wanted:
                out.update(map(base.__add__, compress(rounds, map(wanted.__contains__, ports))))
        return out


class Metrics:
    """Mutable accumulator of execution costs.

    Directed edge counts are keyed ``(src, dst)``; the undirected per-edge
    congestion used in the paper's statements is exposed via
    :meth:`edge_congestion` / :attr:`max_congestion` (max over directions —
    the sleeping-model definition "at most T messages through it in each
    direction" makes per-direction the faithful reading).
    """

    def __init__(self) -> None:
        self.rounds: int = 0
        self.total_messages: int = 0
        self.lost_messages: int = 0
        self.edge_messages: Counter = Counter()
        self.awake_rounds: Counter = Counter()
        self.subproblem_participation: Counter = Counter()
        # Fault-plane meters (repro.sim.faults): all stay zero on fault-free
        # runs, and to_dict() omits them when zero, so serialized metrics
        # remain byte-identical to pre-fault stores.
        self.messages_dropped: int = 0
        self.messages_duplicated: int = 0
        self.nodes_crashed: int = 0
        self.recoveries: int = 0
        # In-phase round of the running ReferenceRunner, which sets it so
        # record_send and record_awake can timestamp the trace.
        self.current_round: int = 0
        #: Opt-in send trace: ``None``, or a :class:`SendTrace` of the sends
        #: that ``edge_messages`` counts, by ``(src, dst)`` and round, and of
        #: the awake nodes per round.  The round is absolute: rounds before
        #: the run plus the in-run round.  Never serialized; see DESIGN.md.
        self.send_trace: SendTrace | None = None

    # ------------------------------------------------------------------
    # recording (called by the runner)
    # ------------------------------------------------------------------
    def record_send(self, src: object, dst: object, delivered: bool) -> None:
        """Count one message on directed edge ``src -> dst``."""
        self.total_messages += 1
        self.edge_messages[(src, dst)] += 1
        if not delivered:
            self.lost_messages += 1
        if self.send_trace is not None:
            self.send_trace.stamp(src, dst, self.rounds + self.current_round)

    def record_awake(self, node: object, rounds: int = 1) -> None:
        """Credit ``rounds`` awake rounds to ``node``."""
        self.awake_rounds[node] += rounds
        if self.send_trace is not None:
            self.send_trace.stamp_wake(self.rounds + self.current_round)

    def record_rounds(self, rounds: int) -> None:
        """Extend the global round clock by ``rounds``."""
        self.rounds += rounds

    def record_participation(self, node: object) -> None:
        """Note that ``node`` took part in one (sub)problem (Lemma 2.4)."""
        self.subproblem_participation[node] += 1

    # -- fault-plane events (called only by faulted engine paths) -------
    def record_duplicated(self, src: object, dst: object) -> None:
        """One fault-injected duplicate delivery on ``src -> dst``.

        Duplicates are artifacts of the network, not protocol work: they
        bypass edge-capacity metering and do not inflate message or
        congestion totals — only this counter.
        """
        self.messages_duplicated += 1

    def record_crash(self, node: object) -> None:
        """``node`` crashed (fault plane); its pending inbox is destroyed."""
        self.nodes_crashed += 1

    def record_recovery(self, node: object) -> None:
        """``node`` restarted with fresh algorithm state after a crash."""
        self.recoveries += 1

    # ------------------------------------------------------------------
    # derived quantities (the paper's four complexity measures)
    # ------------------------------------------------------------------
    @property
    def max_congestion(self) -> int:
        """Max messages through any directed edge — the congestion measure."""
        if not self.edge_messages:
            return 0
        return max(self.edge_messages.values())

    @property
    def max_energy(self) -> int:
        """Max awake rounds over nodes — the energy complexity measure."""
        if not self.awake_rounds:
            return 0
        return max(self.awake_rounds.values())

    @property
    def max_participation(self) -> int:
        """Max number of subproblems any node appeared in (Lemma 2.4)."""
        if not self.subproblem_participation:
            return 0
        return max(self.subproblem_participation.values())

    def energy_of(self, node: object) -> int:
        return self.awake_rounds.get(node, 0)

    def congestion_of(self, u: object, v: object) -> int:
        """Messages through the undirected edge ``{u, v}`` (both directions)."""
        return self.edge_messages.get((u, v), 0) + self.edge_messages.get((v, u), 0)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def merge(self, other: "Metrics", *, sequential: bool = True) -> None:
        """Fold ``other`` into this accumulator.

        ``sequential=True`` (phases run back-to-back) adds round counts;
        ``sequential=False`` (phases run concurrently, e.g. independent
        connected components) takes the max of round counts.  Messages,
        congestion, energy and participation always add — they are totals
        regardless of scheduling.

        A send trace on both sides folds too: ``other``'s segments are
        appended, shifted by this accumulator's clock when the phases run
        back-to-back and by nothing when they run concurrently.
        """
        if self.send_trace is not None and other.send_trace is not None:
            self.send_trace.extend(other.send_trace, self.rounds if sequential else 0)
        if sequential:
            self.rounds += other.rounds
        else:
            self.rounds = max(self.rounds, other.rounds)
        self.total_messages += other.total_messages
        self.lost_messages += other.lost_messages
        self.messages_dropped += other.messages_dropped
        self.messages_duplicated += other.messages_duplicated
        self.nodes_crashed += other.nodes_crashed
        self.recoveries += other.recoveries
        _add_counts(self.edge_messages, other.edge_messages)
        _add_counts(self.awake_rounds, other.awake_rounds)
        _add_counts(self.subproblem_participation, other.subproblem_participation)

    def copy(self) -> "Metrics":
        out = type(self)()
        out.send_trace = None if self.send_trace is None else SendTrace()
        out.merge(self)
        out.current_round = self.current_round
        return out

    # ------------------------------------------------------------------
    # (de)serialization — the JSONL ResultSet row format
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless, JSON-ready form of the full accumulator state.

        Counter entries are emitted as sorted ``[key..., count]`` triples /
        pairs (sorted by key repr so the output is byte-stable regardless
        of insertion order).  ``from_dict(to_dict())`` reproduces every
        recorded quantity exactly — including the per-edge and per-node
        breakdowns behind the four headline currencies — for the integer
        node labels the graph substrate uses.

        Fault meters are emitted under a ``"faults"`` sub-dict **only
        when any of them is nonzero**: a fault-free run serializes to the
        exact pre-fault byte layout, so existing stores and differential
        baselines are untouched.  The send trace is left out.
        """
        out = {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "lost_messages": self.lost_messages,
            "current_round": self.current_round,
            "edge_messages": [
                [src, dst, count]
                for (src, dst), count in sorted(
                    self.edge_messages.items(), key=lambda item: repr(item[0])
                )
            ],
            "awake_rounds": [
                [node, count]
                for node, count in sorted(
                    self.awake_rounds.items(), key=lambda item: repr(item[0])
                )
            ],
            "subproblem_participation": [
                [node, count]
                for node, count in sorted(
                    self.subproblem_participation.items(), key=lambda item: repr(item[0])
                )
            ],
        }
        if (
            self.messages_dropped
            or self.messages_duplicated
            or self.nodes_crashed
            or self.recoveries
        ):
            out["faults"] = {
                "messages_dropped": self.messages_dropped,
                "messages_duplicated": self.messages_duplicated,
                "nodes_crashed": self.nodes_crashed,
                "recoveries": self.recoveries,
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Metrics":
        """Rebuild a :class:`Metrics` from :meth:`to_dict` output."""
        out = cls()
        out.rounds = int(data["rounds"])
        out.total_messages = int(data["total_messages"])
        out.lost_messages = int(data["lost_messages"])
        out.current_round = int(data.get("current_round", 0))
        faults = data.get("faults")
        if faults:
            out.messages_dropped = int(faults.get("messages_dropped", 0))
            out.messages_duplicated = int(faults.get("messages_duplicated", 0))
            out.nodes_crashed = int(faults.get("nodes_crashed", 0))
            out.recoveries = int(faults.get("recoveries", 0))
        for src, dst, count in data["edge_messages"]:
            out.edge_messages[(src, dst)] = count
        for node, count in data["awake_rounds"]:
            out.awake_rounds[node] = count
        for node, count in data["subproblem_participation"]:
            out.subproblem_participation[node] = count
        return out

    def summary(self) -> dict[str, int]:
        """The headline numbers as a plain dict (for tables and logs)."""
        return {
            "rounds": self.rounds,
            "messages": self.total_messages,
            "lost_messages": self.lost_messages,
            "congestion": self.max_congestion,
            "energy": self.max_energy,
            "max_participation": self.max_participation,
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"Metrics(rounds={s['rounds']}, messages={s['messages']}, "
            f"congestion={s['congestion']}, energy={s['energy']})"
        )

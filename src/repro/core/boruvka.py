"""Distributed Boruvka: maximal spanning forest in ``O(n log n)`` rounds.

Theorem 2.2 (classic, [Bor26, GHS83]): a deterministic distributed algorithm
computing a maximal spanning forest with ``O(n log n)`` time and polylog
congestion.  The CSSP recursion uses it in step 2 to get per-component
rooted spanning trees for the convergecast coordination.

Structure (all nodes know ``n``, so the schedule is globally agreed):

* ``ceil(log2 n) + 1`` *phases*; fragment count per component at least
  halves each phase, so by the last phase every fragment spans its whole
  component and detects completion.
* Each phase has five fixed-budget *segments* of ``n + 2`` rounds each:

  1. **refresh** — the fragment root floods (fragment id, depth) down the
     current tree, repairing labels left stale by the previous merge;
  2. **hello** — every node tells each neighbor its fragment id (the only
     all-edges traffic: 1 message per direction per phase);
  3. **convergecast** — fold the minimum outgoing edge candidate
     ``(target fragment key, edge key)`` up to the root; choosing the
     *minimum* target fragment makes the fragment pointer graph have only
     2-cycles, and the shared edge-key tiebreak makes both sides of a
     2-cycle pick the same physical edge (so merges never create cycles);
  4. **decision** — the root floods the chosen edge (or "complete" when no
     outgoing edge exists — the fragment then spans its component and
     halts at phase end);
  5. **merge** — chosen endpoints fire a ``join`` across the chosen edge;
     core edges (both fragments chose the same edge) elect the endpoint in
     the larger-keyed fragment as the new root; every fragment re-roots by
     flipping parent pointers along the path from its join point to its old
     root (a ``flip`` walk of at most ``n`` rounds).

Costs: time ``5 (n + 2) (log2 n + 2) = O(n log n)``; per-edge congestion
``O(log n)`` (hellos dominate); messages ``O((n + m) log n)``.  Because the
implementation is event-driven, each node is *awake* for only ``O(log n)``
scheduled rounds plus its message arrivals — the low-energy adaptation of
[AMJP22] (Theorem 3.1) is obtained by running this same protocol under the
sleeping-model accounting with buffered wake-ups standing in for AMJP22's
wake-up machinery (see DESIGN.md, "Boruvka's low energy comes from
buffered wake-ups").
"""

from __future__ import annotations

import math

from ..graphs import Graph
from ..sim import Context, Metrics, Mode, NodeAlgorithm, SimulationError, make_runner
from ..sim.kernels import WAKE_HALT, BatchKernel
from ..sim.memo import memoized
from .trees import RootedForest

__all__ = ["BoruvkaNode", "build_maximal_forest", "boruvka_phase_count", "boruvka_round_bound"]


def boruvka_phase_count(n: int) -> int:
    """Phases needed: fragment counts halve, plus one detection phase."""
    return max(1, math.ceil(math.log2(max(2, n)))) + 1


def boruvka_round_bound(n: int) -> int:
    """Upper bound on total rounds, for schedule-aware callers."""
    segment = n + 2
    return 5 * segment * boruvka_phase_count(n)


def _fragment_key(frag: object) -> str:
    return repr(frag)


def _edge_key(u: object, v: object) -> tuple[str, str]:
    a, b = repr(u), repr(v)
    return (a, b) if a <= b else (b, a)


class BoruvkaNode(NodeAlgorithm):
    """One node's role in the phase-scheduled Boruvka protocol."""

    def __init__(self, node: object, n: int) -> None:
        self.node = node
        self.n = n
        self.segment = n + 2
        self.phase_len = 5 * self.segment
        self.total_phases = boruvka_phase_count(n)
        # Tree state (the algorithm's real output).
        self.parent: object = None
        self.children: set = set()
        self.fragment: object = node
        self.depth: int = 0
        self.complete = False
        # Per-phase scratch state.
        self._neighbor_fragment: dict = {}
        self._reports: list = []
        self._report_count = 0
        self._sent_report = False
        self._decision: object = "pending"  # "pending" | None | (cu, cv)
        self._sent_join_to: object = None
        # repr-sorted children, rebuilt only when the child set changes.
        self._kids_cache: list | None = []
        # Lazily built per-run repr tables (repr is the hottest string work
        # in the protocol: fragment and edge keys are all repr-based).
        self._edge_key_of: dict | None = None

    def _kids(self) -> list:
        kids = self._kids_cache
        if kids is None:
            kids = self._kids_cache = sorted(self.children, key=repr)
        return kids

    # -- helpers ---------------------------------------------------------
    def _my_candidate(self) -> tuple | None:
        """Minimum outgoing edge at this node: (frag key, edge key, u, v)."""
        best: tuple | None = None
        fragment = self.fragment
        edge_key_of = self._edge_key_of
        node = self.node
        for v, (frag_v, frag_key) in self._neighbor_fragment.items():
            if frag_v == fragment:
                continue
            cand = (frag_key, edge_key_of[v], node, v)
            if best is None or cand[:2] < best[:2]:
                best = cand
        return best

    def _reset_phase_state(self) -> None:
        self._neighbor_fragment = {}
        self._reports = []
        self._report_count = 0
        self._sent_report = False
        self._decision = "pending"
        self._sent_join_to = None

    def _fold_report(self) -> tuple | None:
        """Convergecast step: fold the candidates once all children reported.

        A root turns the fold into its fragment's decision.  Any other node
        gets the ``("report", best)`` payload for its parent; the caller
        sends it.  ``None`` when nothing goes up.
        """
        if self._sent_report or self._report_count < len(self.children):
            return None
        candidates = [c for c in self._reports if c is not None]
        own = self._my_candidate()
        if own is not None:
            candidates.append(own)
        best = min(candidates, key=lambda c: c[:2]) if candidates else None
        self._sent_report = True
        if self.parent is None:
            self._decision = None if best is None else (best[2], best[3])
            return None
        return ("report", best)

    def _broadcast_decision(self, ctx: Context) -> None:
        for child in self._kids():
            ctx.send(child, ("decision", self._decision))

    def _start_flip_walk(self, ctx: Context, new_parent: object) -> None:
        """Re-root my old tree at me; hang me under ``new_parent``.

        ``new_parent`` is None when I become the merged fragment's root.
        """
        old_parent = self.parent
        self.parent = new_parent
        if old_parent is not None:
            self.children.add(old_parent)
            self._kids_cache = None
            ctx.send(old_parent, ("flip",))

    # -- main dispatch -----------------------------------------------------
    def on_round(self, ctx: Context, inbox: list[tuple[object, object]]) -> None:
        r = ctx.round
        phase, offset = divmod(r, self.phase_len)
        seg = self.segment

        if offset == 0:
            self._reset_phase_state()
            if phase >= self.total_phases:
                raise SimulationError(
                    f"Boruvka did not converge in {self.total_phases} phases at {self.node!r}"
                )
            if self.parent is None:
                self.fragment = self.node
                self.depth = 0
                for child in self._kids():
                    ctx.send(child, ("refresh", self.fragment, 1))

        for sender, payload in zip(inbox.senders, inbox.payloads) if inbox.senders else ():
            kind = payload[0]
            if kind == "refresh":
                _, frag, depth = payload
                self.fragment = frag
                self.depth = depth
                for child in self._kids():
                    ctx.send(child, ("refresh", frag, depth + 1))
            elif kind == "hello":
                self._neighbor_fragment[sender] = (payload[1], payload[2])
            elif kind == "report":
                self._reports.append(payload[1])
                self._report_count += 1
            elif kind == "decision":
                self._decision = payload[1]
                self._broadcast_decision(ctx)
            elif kind == "join":
                self._handle_join(ctx, sender, payload[1])
            elif kind == "flip":
                # Continue the re-rooting walk: sender is my new parent.
                old_parent = self.parent
                self.parent = sender
                self.children.discard(sender)
                self._kids_cache = None
                if old_parent is not None:
                    self.children.add(old_parent)
                    ctx.send(old_parent, ("flip",))

        phase_start = phase * self.phase_len
        if offset == seg:
            # The only all-edges traffic — one columnar broadcast record
            # instead of ``degree`` individual sends.  The fragment key rides
            # along so each receiver skips recomputing the repr.
            if self._edge_key_of is None:
                node = self.node
                self._edge_key_of = {v: _edge_key(node, v) for v in ctx.neighbors}
            ctx.broadcast(("hello", self.fragment, _fragment_key(self.fragment)))
        elif 2 * seg <= offset < 3 * seg:
            report = self._fold_report()
            if report is not None:
                ctx.send(self.parent, report)
        elif offset == 3 * seg and self.parent is None:
            if self._decision is None:
                self.complete = True
            self._broadcast_decision(ctx)
        elif offset == 4 * seg:
            if self._decision is None:
                self.complete = True
            if (
                self._decision not in ("pending", None)
                and self._decision[0] == self.node
            ):
                cu, cv = self._decision
                self._sent_join_to = cv
                ctx.send(cv, ("join", self.fragment))
        elif offset == 4 * seg + 1 and self._sent_join_to is not None:
            # No reciprocal join arrived over the chosen edge, so this is
            # not a core edge: my fragment hangs under the target fragment.
            target = self._sent_join_to
            self._sent_join_to = None
            self._start_flip_walk(ctx, new_parent=target)

        # Completion: fragments with no outgoing edge span their whole
        # component; their nodes stop at the end of the detection phase.
        if self.complete and offset == 4 * seg + 2:
            ctx.halt()
            return

        # Next wake: the next segment boundary this node acts on (messages
        # wake it too).  Inlined from the former _schedule_next helper —
        # this runs once per awake round.
        if self.complete:
            ctx.wake_at(phase_start + 4 * seg + 2)
            return
        nxt = phase_start + self.phase_len  # next phase's offset 0; always > r
        for b in (
            phase_start + seg,
            phase_start + 2 * seg,
            phase_start + 4 * seg,
        ):
            if r < b < nxt:
                nxt = b
        if self.parent is None:
            b = phase_start + 3 * seg
            if r < b < nxt:
                nxt = b
        if self._sent_join_to is not None:
            b = phase_start + 4 * seg + 1
            if r < b < nxt:
                nxt = b
        ctx.wake_at(nxt)

    def _handle_join(self, ctx: Context, sender: object, sender_fragment: object) -> None:
        my_edge = None if self._decision in ("pending", None) else self._decision
        is_core = (
            my_edge is not None
            and my_edge[0] == self.node
            and my_edge[1] == sender
        )
        if is_core:
            # Both fragments chose this same physical edge.  The endpoint in
            # the larger-keyed fragment becomes the merged fragment's root.
            self._sent_join_to = None
            i_win = _fragment_key(self.fragment) > _fragment_key(sender_fragment)
            if i_win:
                self.children.add(sender)
                self._kids_cache = None
                self._start_flip_walk(ctx, new_parent=None)
            else:
                self.children.discard(sender)
                self._kids_cache = None
                self._start_flip_walk(ctx, new_parent=sender)
        else:
            # A foreign fragment hangs its tree under me via this edge.
            self.children.add(sender)
            self._kids_cache = None

    @classmethod
    def batch_kernel(cls, runner) -> "_BoruvkaKernel | None":
        algorithms = runner._algorithms_by_index
        n = algorithms[0].n
        if any(alg.n != n for alg in algorithms):
            return None  # mixed schedules: no globally agreed offsets
        return _BoruvkaKernel(runner, algorithms)


class _BoruvkaKernel(BatchKernel):
    """Declining kernel for Boruvka's globally scheduled offsets.

    Most in-phase offsets have a regular batch shape every node agrees on
    (the schedule is global — all nodes know ``n``):

    * ``1 .. seg-1`` — refresh forwarding (the down-the-tree flood);
    * ``seg`` — the hello broadcast, the only all-edges traffic;
    * ``seg + 1`` — the hello ingest (``degree`` messages per node);
    * ``2 seg`` — the convergecast kickoff (leaves fold and report);
    * ``2 seg + 1 .. 3 seg - 1`` — the report folds up the tree;
    * ``3 seg + 1 .. 4 seg - 1`` — the decision flood down the tree;
    * ``4 seg`` — the merge kickoff (chosen endpoints fire joins).

    Everything else (the ``3 seg`` root/ingest mix, join handshakes, flip
    walks) is message-driven and irregular, so the kernel declines (``None``)
    and the scalar dispatch runs unchanged.  Offsets that *emit sends*
    validate the whole awake set before mutating anything — a scalar
    replay after a half-stepped round would double-send.  The hello
    ingest emits nothing and its writes are idempotent, so it may bail
    mid-scan: the scalar replay redoes the same assignments.

    Instance-backed: state stays on the :class:`BoruvkaNode` instances
    (the scalar path handles the irregular offsets), so there is nothing
    to write back in ``finalize``.
    """

    def __init__(self, runner, algorithms) -> None:
        first = algorithms[0]
        self._algorithms = algorithms
        self._seg = first.segment
        self._total_phases = first.total_phases
        self._phase_len = first.phase_len
        views = runner.indexed.node_views()
        self._nbr_labels = [v[0] for v in views]
        self._ports = [v[2] for v in views]
        self._degree0 = [v[3] == v[4] for v in views]

    def on_round_batch(
        self, r, awake, inboxes,
        out_ports, out_payloads, bcast_src, bcast_payloads,
    ):
        seg = self._seg
        phase_len = self._phase_len
        phase, offset = divmod(r, phase_len)
        algorithms = self._algorithms
        phase_start = phase * phase_len

        if offset == 0:
            # Phase reset; roots rename their fragment and start the
            # refresh flood.  No message ever lands here (flip walks die
            # out by offset 5*seg - 1), so a non-empty inbox or the
            # convergence overrun both fall back to the scalar path (the
            # latter so the SimulationError carries the exact node).
            if phase >= self._total_phases:
                return None
            for i in awake:
                if inboxes[i].senders or algorithms[i].complete:
                    return None
            wake = phase_start + seg
            codes = []
            for i in awake:
                alg = algorithms[i]
                alg._reset_phase_state()
                if alg.parent is None:
                    alg.fragment = alg.node
                    alg.depth = 0
                    if alg.children:
                        ports = self._ports[i]
                        message = ("refresh", alg.node, 1)
                        for child in alg._kids():
                            out_ports.append(ports[child][0])
                            out_payloads.append(message)
                codes.append(wake)
            return codes

        if offset == seg:
            for i in awake:
                if inboxes[i].senders or algorithms[i].complete:
                    return None
            # Scalar wake scan resolves to the convergecast boundary for
            # every non-complete node at this offset.
            wake = phase_start + 2 * seg
            codes = []
            for i in awake:
                alg = algorithms[i]
                if alg._edge_key_of is None:
                    node = alg.node
                    alg._edge_key_of = {
                        v: _edge_key(node, v) for v in self._nbr_labels[i]
                    }
                if not self._degree0[i]:  # broadcast's degree-0 early return
                    bcast_src.append(i)
                    bcast_payloads.append(
                        ("hello", alg.fragment, _fragment_key(alg.fragment))
                    )
                codes.append(wake)
            return codes

        if offset == seg + 1:
            # Ingest-only round: no sends, idempotent writes — single pass,
            # safe to decline mid-scan.
            wake = phase_start + 2 * seg
            codes = []
            for i in awake:
                alg = algorithms[i]
                if alg.complete:
                    return None
                box = inboxes[i]
                neighbor_fragment = alg._neighbor_fragment
                for sender, payload in zip(box.senders, box.payloads):
                    if payload[0] != "hello":
                        return None
                    neighbor_fragment[sender] = (payload[1], payload[2])
                codes.append(wake)
            return codes

        if 0 < offset < seg:
            # Refresh forwarding: relabel and flood down the current tree.
            for i in awake:
                for payload in inboxes[i].payloads:
                    if payload[0] != "refresh":
                        return None
            wake = phase_start + seg
            codes = []
            for i in awake:
                alg = algorithms[i]
                box = inboxes[i]
                ports = self._ports[i]
                for payload in box.payloads:
                    _, frag, depth = payload
                    alg.fragment = frag
                    alg.depth = depth
                    if alg.children:
                        message = ("refresh", frag, depth + 1)
                        for child in alg._kids():
                            out_ports.append(ports[child][0])
                            out_payloads.append(message)
                codes.append(wake)
            return codes

        if offset == 2 * seg:
            # Convergecast kickoff: leaves (and childless roots) fold and
            # report; everyone else just waits for child reports.
            for i in awake:
                if inboxes[i].senders or algorithms[i].complete:
                    return None
            root_wake = phase_start + 3 * seg
            wake = phase_start + 4 * seg
            codes = []
            for i in awake:
                alg = algorithms[i]
                report = alg._fold_report()
                if report is not None:
                    out_ports.append(self._ports[i][alg.parent][0])
                    out_payloads.append(report)
                codes.append(root_wake if alg.parent is None else wake)
            return codes

        if 2 * seg < offset < 3 * seg:
            # Report folds: ingest child reports, forward when the subtree
            # is accounted for.  Offset 3*seg itself stays scalar (roots
            # broadcast their decision there while late reports ingest).
            for i in awake:
                if algorithms[i].complete:
                    return None
                for payload in inboxes[i].payloads:
                    if payload[0] != "report":
                        return None
            root_wake = phase_start + 3 * seg
            wake = phase_start + 4 * seg
            codes = []
            for i in awake:
                alg = algorithms[i]
                box = inboxes[i]
                for payload in box.payloads:
                    alg._reports.append(payload[1])
                    alg._report_count += 1
                report = alg._fold_report()
                if report is not None:
                    out_ports.append(self._ports[i][alg.parent][0])
                    out_payloads.append(report)
                codes.append(root_wake if alg.parent is None else wake)
            return codes

        if 3 * seg < offset < 4 * seg:
            # Decision flood: relabel and forward down the tree.
            for i in awake:
                if algorithms[i].complete:
                    return None
                for payload in inboxes[i].payloads:
                    if payload[0] != "decision":
                        return None
            wake = phase_start + 4 * seg
            codes = []
            for i in awake:
                alg = algorithms[i]
                box = inboxes[i]
                ports = self._ports[i]
                for payload in box.payloads:
                    decision = alg._decision = payload[1]
                    if alg.children:
                        message = ("decision", decision)
                        for child in alg._kids():
                            out_ports.append(ports[child][0])
                            out_payloads.append(message)
                codes.append(wake)
            return codes

        if offset == 4 * seg:
            # Merge kickoff: completion detection plus the join fire.
            for i in awake:
                if inboxes[i].senders:
                    return None
            next_phase = phase_start + phase_len
            codes = []
            for i in awake:
                alg = algorithms[i]
                decision = alg._decision
                if decision is None:
                    alg.complete = True
                if alg.complete:
                    codes.append(phase_start + 4 * seg + 2)
                    continue
                if decision != "pending" and decision[0] == alg.node:
                    cv = decision[1]
                    alg._sent_join_to = cv
                    out_ports.append(self._ports[i][cv][0])
                    out_payloads.append(("join", alg.fragment))
                    codes.append(phase_start + 4 * seg + 1)
                else:
                    codes.append(next_phase)
            return codes

        if offset == 4 * seg + 2:
            # Completion round: fragments that found no outgoing edge halt
            # together.  Mixed with flip-walk arrivals it stays scalar.
            for i in awake:
                if inboxes[i].senders or not algorithms[i].complete:
                    return None
            return [WAKE_HALT] * len(awake)

        return None


def build_maximal_forest(
    graph: Graph, *, metrics: Metrics | None = None, memo: dict | None = None
) -> RootedForest:
    """Run distributed Boruvka over ``graph`` and return the rooted forest.

    The returned forest is validated structurally (parent pointers acyclic);
    ``RootedForest.validate_against`` offers the full spanning check for
    tests.  Costs accrue into ``metrics``.

    ``memo`` is a caller-owned dict that shares forests between calls
    (see :func:`repro.sim.memo.memoized`): the protocol is a pure function
    of the graph's CSR snapshot, so an input seen before returns the
    stored forest and charges its metered cost again.  Callers must not
    mutate the returned forest.
    """
    metrics = metrics if metrics is not None else Metrics()
    if graph.num_nodes == 0:
        return RootedForest({})
    return memoized(
        memo, metrics, graph, ("boruvka-forest",),
        lambda cost: _construct_forest(graph, cost),
    )


def _construct_forest(graph: Graph, metrics: Metrics) -> RootedForest:
    n = graph.num_nodes
    algorithms = {u: BoruvkaNode(u, n) for u in graph.nodes()}
    runner = make_runner(graph, algorithms, Mode.CONGEST, metrics=metrics)
    runner.run()
    parent = {u: algorithms[u].parent for u in graph.nodes()}
    return RootedForest(parent)

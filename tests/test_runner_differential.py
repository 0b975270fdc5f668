"""Differential tests: the indexed Runner vs the retained reference engine.

Seeded synthetic protocols — gossipy CONGEST traffic and lossy sleeping
schedules — run on random graphs through both :class:`repro.sim.Runner`
(indexed, batched) and :class:`repro.sim.ReferenceRunner` (the original
dict-of-objects implementation).  The two executions must agree on *every*
metric: rounds, messages, lost messages, energy, congestion, and the full
per-edge / per-node counters.

The protocols are deliberately order-insensitive (they aggregate their
inbox, never index into it), because the engines step awake nodes in
different deterministic orders (node-index vs ``repr``-sorted) and the model
makes no promise about mailbox ordering.
"""

import random

import pytest

from repro import graphs
from repro.graphs.indexed import IndexedGraph
from repro.sim import EventRunner, Metrics, Mode, NodeAlgorithm, ReferenceRunner, Runner


class Gossip(NodeAlgorithm):
    """CONGEST chatter: seeded random sends, naps, idles; halts at a horizon.

    Exercises wake-on-message, rescheduling to earlier rounds (stale wake
    entries), idling, and halting mid-conversation.
    """

    def __init__(self, node, seed, horizon=14):
        self.node = node
        self.rng = random.Random(seed * 1_000_003 + node * 7919)
        self.horizon = horizon
        self.heard = 0

    def on_round(self, ctx, inbox):
        self.heard += sum(payload for _, payload in inbox)  # order-insensitive
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        for v in ctx.neighbors:
            if self.rng.random() < 0.35:
                ctx.send(v, (self.node + self.heard + ctx.round) % 97)
        choice = self.rng.random()
        if choice < 0.25:
            ctx.sleep_for(1 + int(choice * 20))
        elif choice < 0.35:
            ctx.idle()
        # else: default — awake again next round


class SleepyBeacon(NodeAlgorithm):
    """Sleeping-model protocol: staggered wake schedules, lossy sends.

    Nodes wake on their own seeded schedule and broadcast to random
    neighbors; whether a message lands depends on the recipient's schedule,
    so this exercises the lost-message accounting of Section 1.2.
    """

    def __init__(self, node, seed, budget=8):
        self.node = node
        self.rng = random.Random(seed * 998_244_353 + node * 104_729)
        self.budget = budget

    def on_round(self, ctx, inbox):
        self.budget -= 1
        if self.budget <= 0:
            ctx.halt()
            return
        for v in ctx.neighbors:
            if self.rng.random() < 0.5:
                ctx.send(v, self.budget)
        ctx.wake_at(ctx.round + 1 + self.rng.randrange(4))


def both_metrics(graph, make_algorithms, mode, **kwargs):
    runs = []
    for engine in (Runner, ReferenceRunner):
        metrics = Metrics()
        engine(graph, make_algorithms(), mode, metrics=metrics, **kwargs).run()
        runs.append(metrics)
    return runs


def assert_identical(new: Metrics, ref: Metrics) -> None:
    assert new.summary() == ref.summary()
    assert new.edge_messages == ref.edge_messages
    assert new.awake_rounds == ref.awake_rounds


@pytest.mark.parametrize("seed", range(8))
def test_congest_parity_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 40)
    g = graphs.random_connected_graph(n, extra_edge_prob=rng.choice([0.0, 0.1, 0.3]), seed=seed)
    new, ref = both_metrics(g, lambda: {u: Gossip(u, seed) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(new, ref)
    assert new.lost_messages == 0  # CONGEST never loses messages


@pytest.mark.parametrize("seed", range(8))
def test_sleeping_parity_on_random_graphs(seed):
    rng = random.Random(1000 + seed)
    n = rng.randrange(5, 40)
    g = graphs.random_connected_graph(n, extra_edge_prob=0.15, seed=seed)
    new, ref = both_metrics(
        g, lambda: {u: SleepyBeacon(u, seed) for u in g.nodes()}, Mode.SLEEPING
    )
    assert_identical(new, ref)
    assert new.lost_messages > 0  # the schedules are staggered enough to lose some


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_megaround_parity(seed):
    g = graphs.random_connected_graph(16, extra_edge_prob=0.2, seed=seed)
    new, ref = both_metrics(
        g,
        lambda: {u: Gossip(u, seed, horizon=9) for u in g.nodes()},
        Mode.CONGEST,
        round_width=3,
        edge_capacity=3,
    )
    assert_identical(new, ref)


def test_parity_on_disconnected_graph():
    g = graphs.random_graph(24, p=0.05, seed=7)  # usually several components
    new, ref = both_metrics(g, lambda: {u: Gossip(u, 7) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(new, ref)


class Chatter(NodeAlgorithm):
    """Broadcast-heavy protocol: exercises the columnar broadcast fast path.

    Every awake round the node broadcasts (sometimes repeatedly, to stress
    ``edge_capacity > 1``), occasionally unicasts on top of the broadcast in
    the same round, and follows a seeded nap schedule so both CONGEST
    wake-on-message and SLEEPING loss accounting are hit.
    """

    def __init__(self, node, seed, horizon=12, extra_sends=0):
        self.node = node
        self.rng = random.Random(seed * 69_061 + node * 50_021)
        self.horizon = horizon
        self.extra_sends = extra_sends
        self.heard = 0

    def on_round(self, ctx, inbox):
        self.heard += sum(payload for _, payload in inbox)  # order-insensitive
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        if self.rng.random() < 0.7:
            ctx.broadcast((self.node + ctx.round) % 89)
        for _ in range(self.extra_sends):
            # A unicast on top of the broadcast meters the same per-port
            # capacity accounting (needs edge_capacity > 1 to be legal).
            v = self.rng.choice(ctx.neighbors) if ctx.neighbors else None
            if v is not None and self.rng.random() < 0.5:
                ctx.send(v, 1)
        choice = self.rng.random()
        if choice < 0.2:
            ctx.sleep_for(1 + int(choice * 15))


class LoopBroadcast(NodeAlgorithm):
    """Same traffic as ``Chatter`` but via per-neighbor ``send`` calls.

    Drives the property test that ``broadcast`` and a send-loop meter
    capacity and metrics identically on the fast engine.
    """

    def __init__(self, node, seed, horizon=12, extra_sends=0):
        self._inner = Chatter(node, seed, horizon, extra_sends)

    @property
    def heard(self):
        return self._inner.heard

    def on_round(self, ctx, inbox):
        inner = self._inner
        inner.heard += sum(payload for _, payload in inbox)
        if ctx.round >= inner.horizon:
            ctx.halt()
            return
        if inner.rng.random() < 0.7:
            payload = (inner.node + ctx.round) % 89
            for v in ctx.neighbors:
                ctx.send(v, payload)
        for _ in range(inner.extra_sends):
            v = inner.rng.choice(ctx.neighbors) if ctx.neighbors else None
            if v is not None and inner.rng.random() < 0.5:
                ctx.send(v, 1)
        choice = inner.rng.random()
        if choice < 0.2:
            ctx.sleep_for(1 + int(choice * 15))


@pytest.mark.parametrize("seed", range(6))
def test_broadcast_congest_parity(seed):
    rng = random.Random(4000 + seed)
    n = rng.randrange(5, 32)
    g = graphs.random_connected_graph(n, extra_edge_prob=rng.choice([0.0, 0.2]), seed=seed)
    new, ref = both_metrics(g, lambda: {u: Chatter(u, seed) for u in g.nodes()}, Mode.CONGEST)
    assert_identical(new, ref)
    assert new.total_messages > 0
    assert new.lost_messages == 0


@pytest.mark.parametrize("seed", range(6))
def test_broadcast_sleeping_parity_with_loss(seed):
    rng = random.Random(5000 + seed)
    n = rng.randrange(6, 32)
    g = graphs.random_connected_graph(n, extra_edge_prob=0.15, seed=seed)
    new, ref = both_metrics(
        g, lambda: {u: Chatter(u, seed) for u in g.nodes()}, Mode.SLEEPING
    )
    assert_identical(new, ref)
    assert new.lost_messages > 0  # staggered naps lose some broadcasts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_broadcast_capacity_gt_one_parity(seed):
    g = graphs.random_connected_graph(14, extra_edge_prob=0.25, seed=seed)
    new, ref = both_metrics(
        g,
        lambda: {u: Chatter(u, seed, extra_sends=2) for u in g.nodes()},
        Mode.CONGEST,
        edge_capacity=3,
    )
    assert_identical(new, ref)


@pytest.mark.parametrize("seed", [0, 1])
def test_broadcast_megaround_parity(seed):
    g = graphs.random_connected_graph(12, extra_edge_prob=0.2, seed=seed)
    new, ref = both_metrics(
        g,
        lambda: {u: Chatter(u, seed, horizon=8, extra_sends=1) for u in g.nodes()},
        Mode.CONGEST,
        round_width=4,
        edge_capacity=4,
    )
    assert_identical(new, ref)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mode", [Mode.CONGEST, Mode.SLEEPING])
@pytest.mark.parametrize("edge_capacity", [1, 3])
def test_broadcast_equals_send_loop(seed, mode, edge_capacity):
    """Property: broadcast and the equivalent send-loop meter identically.

    Same seeded traffic through ``Chatter`` (broadcast fast path) and
    ``LoopBroadcast`` (per-neighbor sends) on the fast engine must agree on
    every metric *and* on each node's aggregated inbox contents — mixed
    ``send`` + ``broadcast`` rounds included.
    """
    rng = random.Random(7000 + seed)
    n = rng.randrange(5, 26)
    g = graphs.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    extra = 1 if edge_capacity > 1 else 0
    results = []
    for make in (Chatter, LoopBroadcast):
        algorithms = {u: make(u, seed, extra_sends=extra) for u in g.nodes()}
        metrics = Metrics()
        Runner(g, algorithms, mode, metrics=metrics, edge_capacity=edge_capacity).run()
        results.append((metrics, {u: algorithms[u].heard for u in g.nodes()}))
    (m_bcast, heard_bcast), (m_loop, heard_loop) = results
    assert_identical(m_bcast, m_loop)
    assert heard_bcast == heard_loop


def test_broadcast_capacity_breach_detected():
    """Two broadcasts in one round breach capacity 1 on both engines."""
    from repro.sim import SimulationError

    class DoubleCast(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            ctx.broadcast("a")
            ctx.broadcast("b")

    g = graphs.path_graph(3)
    for engine in (Runner, ReferenceRunner):
        with pytest.raises(SimulationError, match="capacity"):
            engine(g, {u: DoubleCast() for u in g.nodes()}, Mode.CONGEST).run()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_algorithms_run_under_the_reference_oracle(seed):
    """The oracle must execute the library's actual protocols, not just the
    synthetic differential ones — they read the columnar inbox view."""
    from repro.baselines.bellman_ford import BellmanFordNode
    from repro.core.bfs import WeightedBFS

    g = graphs.random_weights(
        graphs.random_connected_graph(12, extra_edge_prob=0.2, seed=seed), 7, seed=seed
    )
    source = next(iter(g.nodes()))
    oracle = g.dijkstra([source])
    for make in (
        lambda u: BellmanFordNode(u, u == source, g.num_nodes, send_on_change=False),
        lambda u: WeightedBFS(
            u, g.num_nodes * 7, source_offset=0 if u == source else None
        ),
    ):
        results = []
        for engine in (Runner, ReferenceRunner):
            algorithms = {u: make(u) for u in g.nodes()}
            metrics = Metrics()
            engine(g, algorithms, Mode.CONGEST, metrics=metrics).run()
            results.append((metrics, {u: algorithms[u].dist for u in g.nodes()}))
        (m_new, d_new), (m_ref, d_ref) = results
        assert d_new == d_ref == oracle
        assert_identical(m_new, m_ref)


class CastOnce(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        if ctx.round == 0:
            ctx.broadcast(1)
        else:
            ctx.halt()


@pytest.mark.parametrize("engine", [Runner, EventRunner])
def test_engine_pool_checkout_does_not_corrupt_live_runner(engine):
    """A runner whose pooled state was checked out by a newer runner must
    rebuild private state instead of leaking into the thief's buffers."""
    g = graphs.path_graph(4)
    a = engine(g, {u: CastOnce() for u in g.nodes()}, Mode.CONGEST)
    baseline = a.run().total_messages  # clean run returns state to the pool
    assert baseline == 6  # one broadcast per node: 2 messages per edge

    # b's __init__ checks the pooled state out and repoints it at b.  A
    # second run of a (stateless algorithms, so semantically a replay) must
    # rebuild its own state rather than metering into b's buffers.
    b = engine(g, {u: CastOnce() for u in g.nodes()}, Mode.CONGEST)
    a.metrics = Metrics()
    assert a.run().total_messages == baseline
    assert b._bcast_src == [] and b._out_ports == []  # nothing leaked into b
    assert b.run().total_messages == baseline


def test_engine_pool_shared_by_interleaved_round_and_event_runners():
    """Both runner classes check state out of one pool on the IndexedGraph;
    interleaved runs over the same view stay isolated and agree."""
    g = graphs.cycle_graph(5)
    view = IndexedGraph.of(g)

    def make(engine, **kwargs):
        return engine(view, {u: CastOnce() for u in g.nodes()}, Mode.CONGEST, **kwargs)

    a = make(Runner)
    expected = a.run().to_dict()  # parks a's state in the pool
    pooled = view._engine_pool[0]
    b = make(EventRunner)  # checks a's state out
    assert b._contexts_by_index is pooled
    c = make(EventRunner, latency="uniform:2")  # pool now empty: builds fresh
    assert c._contexts_by_index is not pooled
    a.metrics = Metrics()
    assert a.run().to_dict() == expected  # a rebuilds, then parks its state
    d = make(Runner)  # checks a's new state out
    assert b.run().to_dict() == expected
    assert b._bcast_src == [] and b._out_ports == []
    assert c.run().to_dict()["total_messages"] == expected["total_messages"]
    assert d.run().to_dict() == expected


def test_parity_with_non_integer_labels():
    base = graphs.random_connected_graph(12, seed=3)
    g = graphs.Graph.from_edges(
        ((f"v{u}", f"v{v}", w) for u, v, w in base.edges()),
        nodes=(f"v{u}" for u in base.nodes()),
    )
    index_of = {label: i for i, label in enumerate(g.nodes())}
    new, ref = both_metrics(
        g, lambda: {u: Gossip(index_of[u], 3) for u in g.nodes()}, Mode.CONGEST
    )
    assert_identical(new, ref)

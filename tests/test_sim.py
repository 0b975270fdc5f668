"""Simulator semantics: rounds, delivery, sleeping loss, capacity, metrics."""

import pytest

from repro.graphs import Graph
from repro.sim import Metrics, Mode, NodeAlgorithm, Runner, SimulationError


class Echo(NodeAlgorithm):
    """Round 0: node 0 sends 'ping'; receiver records and halts."""

    def __init__(self, node):
        self.node = node
        self.got = []

    def on_round(self, ctx, inbox):
        self.got.extend(inbox)
        if ctx.round == 0 and self.node == 0:
            ctx.send(1, "ping")
            ctx.halt()
        elif self.got:
            ctx.halt()
        else:
            ctx.idle()


def two_nodes():
    return Graph.from_edges([(0, 1)])


class TestDelivery:
    def test_message_arrives_next_round(self):
        g = two_nodes()
        algs = {u: Echo(u) for u in g.nodes()}
        m = Runner(g, algs, Mode.CONGEST).run()
        assert algs[1].got == [(0, "ping")]
        assert m.rounds == 2  # round 0 send, round 1 receive

    def test_total_messages_counted(self):
        g = two_nodes()
        m = Runner(g, {u: Echo(u) for u in g.nodes()}, Mode.CONGEST).run()
        assert m.total_messages == 1
        assert m.lost_messages == 0

    def test_send_to_non_neighbor_rejected(self):
        class Bad(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.send(99, "x")

        g = two_nodes()
        with pytest.raises(SimulationError):
            Runner(g, {0: Bad(), 1: Bad()}, Mode.CONGEST).run()

    def test_missing_algorithm_rejected(self):
        g = two_nodes()
        with pytest.raises(SimulationError):
            Runner(g, {0: Echo(0)}, Mode.CONGEST)

    def test_edge_capacity_enforced(self):
        class Spam(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.send(1, "a")
                ctx.send(1, "b")

        g = two_nodes()
        with pytest.raises(SimulationError):
            Runner(g, {0: Spam(), 1: Echo(1)}, Mode.CONGEST).run()

    def test_edge_capacity_raised(self):
        class Spam(NodeAlgorithm):
            def __init__(self, node):
                self.node = node

            def on_round(self, ctx, inbox):
                if self.node == 0 and ctx.round == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")
                ctx.halt()

        g = two_nodes()
        m = Runner(g, {u: Spam(u) for u in g.nodes()}, Mode.CONGEST, edge_capacity=2).run()
        assert m.total_messages == 2


class TestSleepingModel:
    def test_message_to_sleeping_node_lost(self):
        class Sender(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.wake_at(2)  # stay scheduled, send later
                    return
                if ctx.round == 2:
                    ctx.send(1, "late")
                    ctx.halt()

        class Sleeper(NodeAlgorithm):
            def __init__(self):
                self.got = []

            def on_round(self, ctx, inbox):
                self.got.extend(inbox)
                if ctx.round == 0:
                    ctx.wake_at(5)  # asleep at round 2 when the send happens
                else:
                    ctx.halt()

        g = two_nodes()
        sleeper = Sleeper()
        m = Runner(g, {0: Sender(), 1: sleeper}, Mode.SLEEPING).run()
        assert sleeper.got == []
        assert m.lost_messages == 1

    def test_message_to_awake_node_delivered(self):
        class Sender(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.send(1, "hi")
                ctx.halt()

        class Listener(NodeAlgorithm):
            def __init__(self):
                self.got = []

            def on_round(self, ctx, inbox):
                self.got.extend(inbox)
                if ctx.round >= 1:
                    ctx.halt()
                else:
                    ctx.wake_at(1)

        g = two_nodes()
        listener = Listener()
        m = Runner(g, {0: Sender(), 1: listener}, Mode.SLEEPING).run()
        assert listener.got == [(0, "hi")]
        assert m.lost_messages == 0

    def test_energy_counts_awake_rounds_only(self):
        class Napper(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.wake_at(10)
                else:
                    ctx.halt()

        g = two_nodes()
        m = Runner(g, {0: Napper(), 1: Napper()}, Mode.SLEEPING).run()
        assert m.max_energy == 2  # rounds 0 and 10
        assert m.rounds == 11

    def test_no_wake_on_message_in_sleeping_mode(self):
        class Sender(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.send(1, "x")
                ctx.halt()

        class IdleNode(NodeAlgorithm):
            def __init__(self):
                self.woken = 0

            def on_round(self, ctx, inbox):
                self.woken += 1
                ctx.idle()

        g = two_nodes()
        idle = IdleNode()
        Runner(g, {0: Sender(), 1: idle}, Mode.SLEEPING).run()
        assert idle.woken == 1  # only the initial round-0 wake


class TestWakeScheduling:
    def test_wake_on_message_in_congest_mode(self):
        class Sender(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 3:
                    ctx.send(1, "x")
                    ctx.halt()
                else:
                    ctx.wake_at(3)

        class IdleNode(NodeAlgorithm):
            def __init__(self):
                self.got = []

            def on_round(self, ctx, inbox):
                self.got.extend(inbox)
                if self.got:
                    ctx.halt()
                else:
                    ctx.idle()

        g = two_nodes()
        idle = IdleNode()
        m = Runner(g, {0: Sender(), 1: idle}, Mode.CONGEST).run()
        assert idle.got == [(0, "x")]
        assert m.rounds == 5

    def test_wake_at_past_round_rejected(self):
        class Bad(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.wake_at(ctx.round)

        g = two_nodes()
        with pytest.raises(SimulationError):
            Runner(g, {0: Bad(), 1: Bad()}, Mode.CONGEST).run()

    def test_halted_node_never_runs_again(self):
        class Once(NodeAlgorithm):
            def __init__(self):
                self.runs = 0

            def on_round(self, ctx, inbox):
                self.runs += 1
                ctx.halt()

        g = two_nodes()
        algs = {0: Once(), 1: Once()}
        Runner(g, algs, Mode.CONGEST).run()
        assert algs[0].runs == 1

    def test_max_rounds_guard(self):
        class Forever(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                pass  # default: wake next round, forever

        g = two_nodes()
        with pytest.raises(SimulationError):
            Runner(g, {0: Forever(), 1: Forever()}, Mode.CONGEST, max_rounds=50).run()

    def test_round_skipping_is_fast_and_correct(self):
        class LongNap(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.wake_at(100000)
                else:
                    ctx.halt()

        g = two_nodes()
        m = Runner(g, {0: LongNap(), 1: LongNap()}, Mode.CONGEST).run()
        assert m.rounds == 100001


class TestMegarounds:
    def test_round_width_scales_rounds_and_energy(self):
        class OneShot(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.halt()

        g = two_nodes()
        m = Runner(g, {0: OneShot(), 1: OneShot()}, Mode.CONGEST, round_width=5).run()
        assert m.rounds == 5
        assert m.max_energy == 5

    def test_capacity_with_megarounds(self):
        class Multi(NodeAlgorithm):
            def __init__(self, node):
                self.node = node

            def on_round(self, ctx, inbox):
                if self.node == 0 and ctx.round == 0:
                    for i in range(3):
                        ctx.send(1, i)
                ctx.halt()

        g = two_nodes()
        m = Runner(
            g, {u: Multi(u) for u in g.nodes()}, Mode.CONGEST,
            round_width=3, edge_capacity=3,
        ).run()
        assert m.total_messages == 3


class TestMetrics:
    def test_merge_sequential_adds_rounds(self):
        a, b = Metrics(), Metrics()
        a.record_rounds(10)
        b.record_rounds(7)
        a.merge(b)
        assert a.rounds == 17

    def test_merge_concurrent_takes_max_rounds(self):
        a, b = Metrics(), Metrics()
        a.record_rounds(10)
        b.record_rounds(7)
        a.merge(b, sequential=False)
        assert a.rounds == 10

    def test_merge_always_adds_messages(self):
        a, b = Metrics(), Metrics()
        a.record_send(0, 1, True)
        b.record_send(0, 1, True)
        b.record_send(1, 0, False)
        a.merge(b, sequential=False)
        assert a.total_messages == 3
        assert a.lost_messages == 1
        assert a.edge_messages[(0, 1)] == 2

    def test_congestion_is_max_directed_edge(self):
        m = Metrics()
        for _ in range(5):
            m.record_send(0, 1, True)
        m.record_send(1, 0, True)
        assert m.max_congestion == 5
        assert m.congestion_of(0, 1) == 6

    def test_energy_is_max_node(self):
        m = Metrics()
        m.record_awake("a", 3)
        m.record_awake("b", 9)
        assert m.max_energy == 9
        assert m.energy_of("a") == 3
        assert m.energy_of("zzz") == 0

    def test_participation(self):
        m = Metrics()
        m.record_participation(1)
        m.record_participation(1)
        assert m.max_participation == 2

    def test_summary_keys(self):
        s = Metrics().summary()
        assert set(s) == {
            "rounds", "messages", "lost_messages", "congestion", "energy",
            "max_participation",
        }

    def test_copy_is_independent(self):
        a = Metrics()
        a.record_rounds(5)
        b = a.copy()
        b.record_rounds(5)
        assert a.rounds == 5 and b.rounds == 10

    def test_empty_metrics(self):
        m = Metrics()
        assert m.max_congestion == 0
        assert m.max_energy == 0
        assert m.max_participation == 0

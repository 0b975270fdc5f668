"""Regression tests for Runner protocol violations and engine edge cases.

The violation battery pins the :class:`SimulationError` contract of the
indexed engine (capacity breach, non-neighbor send, ``wake_at`` in the past,
``max_rounds`` overrun); the edge cases target the machinery the rewrite
introduced — the bucketed wake ring's far-future overflow and the cached
indexed view.
"""

import pytest

from repro.graphs import Graph, IndexedGraph, path_graph
from repro.sim import Mode, NodeAlgorithm, Runner, SimulationError


def two_nodes() -> Graph:
    return Graph.from_edges([(0, 1)])


class Quiet(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        ctx.halt()


class TestViolations:
    def test_capacity_breach(self):
        class Spam(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.send(1, "a")
                ctx.send(1, "b")

        g = two_nodes()
        with pytest.raises(
            SimulationError,
            match=r"^edge capacity exceeded: 0->1 sent 2 messages in round 0 \(capacity 1\)$",
        ):
            Runner(g, {0: Spam(), 1: Quiet()}, Mode.CONGEST).run()

    def test_capacity_breach_names_lowest_port(self):
        """With several edges over in one round, the error names the edge
        with the lowest port id and its total for the round."""
        class Spam(NodeAlgorithm):
            def __init__(self, node):
                self.node = node

            def on_round(self, ctx, inbox):
                if ctx.round < 3:
                    ctx.wake_at(3)
                    return
                for v in reversed(ctx.neighbors):
                    for _ in range(3):
                        ctx.send(v, "x")
                ctx.broadcast("y")
                ctx.halt()

        g = path_graph(3)  # port 0 is 0->1
        with pytest.raises(
            SimulationError,
            match=r"^edge capacity exceeded: 0->1 sent 4 messages in round 3 \(capacity 2\)$",
        ):
            Runner(g, {u: Spam(u) for u in g.nodes()}, Mode.CONGEST, edge_capacity=2).run()

    def test_non_neighbor_send(self):
        class Bad(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.send(99, "x")

        g = two_nodes()
        with pytest.raises(SimulationError, match="non-neighbor"):
            Runner(g, {0: Bad(), 1: Quiet()}, Mode.CONGEST).run()

    def test_wake_at_in_the_past(self):
        class Bad(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.wake_at(ctx.round)

        g = two_nodes()
        with pytest.raises(SimulationError, match="scheduled wake"):
            Runner(g, {0: Bad(), 1: Bad()}, Mode.CONGEST).run()

    def test_max_rounds_overrun(self):
        class Forever(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                pass  # default: wake next round, forever

        g = two_nodes()
        with pytest.raises(SimulationError, match="max_rounds"):
            Runner(g, {0: Forever(), 1: Forever()}, Mode.CONGEST, max_rounds=40).run()

    def test_missing_algorithm(self):
        with pytest.raises(SimulationError, match="without an algorithm"):
            Runner(two_nodes(), {0: Quiet()}, Mode.CONGEST)


class TestRingScheduler:
    """Wakes beyond the ring window must survive the overflow map."""

    @pytest.mark.parametrize("gap", [1023, 1024, 1025, 5000, 123_456])
    def test_far_future_wake(self, gap):
        class LongNap(NodeAlgorithm):
            def __init__(self):
                self.wakes = 0

            def on_round(self, ctx, inbox):
                self.wakes += 1
                if ctx.round == 0:
                    ctx.wake_at(gap)
                else:
                    assert ctx.round == gap
                    ctx.halt()

        g = two_nodes()
        algorithms = {0: LongNap(), 1: LongNap()}
        metrics = Runner(g, algorithms, Mode.CONGEST).run()
        assert metrics.rounds == gap + 1
        assert algorithms[0].wakes == 2

    def test_mixed_near_and_far_wakes(self):
        class Stagger(NodeAlgorithm):
            def __init__(self, node):
                self.node = node
                self.seen = []

            def on_round(self, ctx, inbox):
                self.seen.append(ctx.round)
                if ctx.round == 0:
                    ctx.wake_at(3 if self.node == 0 else 2000)
                else:
                    ctx.halt()

        g = two_nodes()
        algorithms = {u: Stagger(u) for u in g.nodes()}
        metrics = Runner(g, algorithms, Mode.SLEEPING).run()
        assert algorithms[0].seen == [0, 3]
        assert algorithms[1].seen == [0, 2000]
        assert metrics.rounds == 2001
        assert metrics.max_energy == 2

    def test_wake_on_message_supersedes_far_wake(self):
        class Poker(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.send(1, "poke")
                ctx.halt()

        class FarSleeper(NodeAlgorithm):
            def __init__(self):
                self.seen = []

            def on_round(self, ctx, inbox):
                self.seen.append((ctx.round, list(inbox)))
                if ctx.round == 0:
                    ctx.wake_at(9999)
                else:
                    ctx.halt()

        g = two_nodes()
        sleeper = FarSleeper()
        metrics = Runner(g, {0: Poker(), 1: sleeper}, Mode.CONGEST).run()
        # The message wakes node 1 at round 1; the stale round-9999 entry
        # must not produce a second wake after it halts.
        assert sleeper.seen == [(0, []), (1, [(0, "poke")])]
        assert metrics.rounds == 2


class TestIndexedConstruction:
    def test_runner_accepts_indexed_graph_directly(self):
        g = path_graph(6)
        indexed = IndexedGraph.of(g)
        metrics = Runner(indexed, {u: Quiet() for u in g.nodes()}, Mode.CONGEST).run()
        assert metrics.rounds == 1
        assert metrics.max_energy == 1

    def test_runners_share_the_cached_view(self):
        g = path_graph(10)
        first = Runner(g, {u: Quiet() for u in g.nodes()})
        second = Runner(g, {u: Quiet() for u in g.nodes()})
        assert first.indexed is second.indexed

    def test_empty_graph(self):
        metrics = Runner(Graph(), {}, Mode.CONGEST).run()
        assert metrics.rounds == 0
        assert metrics.total_messages == 0

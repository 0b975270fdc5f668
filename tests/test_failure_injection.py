"""Failure injection and negative controls.

The sleeping model's message loss is the hazard the whole Section 3
machinery exists to defeat.  These tests prove the machinery is
*load-bearing*: sabotage the schedule (or skip the machinery entirely) and
the BFS demonstrably breaks, in exactly the way the paper predicts.
"""

import dataclasses

from repro import graphs
from repro.core.bfs import WeightedBFS
from repro.energy.covers import build_layered_cover
from repro.energy.low_energy_bfs import make_schedule, run_low_energy_bfs
from repro.graphs import INFINITY
from repro.sim import Metrics, Mode, Runner


class TestNegativeControls:
    def test_naive_bfs_breaks_in_sleeping_mode(self):
        """A protocol written for CONGEST (event-driven sleeps, relying on
        wake-on-message) must fail under lossy sleeping semantics — this is
        why Theorem 3.8 needs the whole cover machinery."""
        g = graphs.path_graph(10)
        algorithms = {
            u: WeightedBFS(u, 10, source_offset=0 if u == 0 else None)
            for u in g.nodes()
        }
        m = Metrics()
        Runner(g, algorithms, Mode.SLEEPING, metrics=m).run()
        distances = {u: algorithms[u].dist for u in g.nodes()}
        assert distances != g.hop_distances([0])
        assert m.lost_messages > 0

    def test_sabotaged_sigma_loses_the_race(self):
        """With the BFS sped up far beyond the activation cascade's latency
        (sigma too small), the wavefront reaches sleeping clusters and
        offers are lost — Lemma 3.7's condition is necessary, not just
        sufficient bookkeeping."""
        g = graphs.path_graph(48)
        cover = build_layered_cover(g, 48, base=4, stretch=3)
        good = make_schedule(g, cover, 48)
        bad = dataclasses.replace(good, sigma=2, t_end=good.t0 + 2 * (48 + 2) + 2)
        m = Metrics()
        dist, _ = run_low_energy_bfs(g, cover, {0: 0}, 48, metrics=m, schedule=bad)
        truth = g.hop_distances([0])
        wrong = [u for u in g.nodes() if dist[u] != truth[u]]
        assert wrong, "sabotaged schedule should break distant nodes"

    def test_correct_sigma_wins_the_race(self):
        """Control for the control: the derived schedule succeeds."""
        g = graphs.path_graph(48)
        cover = build_layered_cover(g, 48, base=4, stretch=3)
        dist, _ = run_low_energy_bfs(g, cover, {0: 0}, 48)
        assert dist == g.hop_distances([0])


class TestRobustness:
    def test_isolated_source(self):
        from repro.core.cssp import cssp
        from repro.graphs import Graph

        g = Graph.from_edges([(1, 2, 3)], nodes=[0])
        d, _ = cssp(g, {0: 0})
        assert d == {0: 0, 1: INFINITY, 2: INFINITY}

    def test_source_equals_whole_graph(self):
        from repro.core.cssp import cssp

        g = graphs.path_graph(5)
        d, _ = cssp(g, {u: 0 for u in g.nodes()})
        assert all(v == 0 for v in d.values())

    def test_very_heavy_single_edge(self):
        from repro.core.cssp import cssp
        from repro.graphs import Graph

        g = Graph.from_edges([(0, 1, 10**6)])
        d, _ = cssp(g, {0: 0})
        assert d[1] == 10**6

    def test_energy_bfs_two_node_graph(self):
        from repro.graphs import Graph

        g = Graph.from_edges([(0, 1)])
        cover = build_layered_cover(g, 2, base=4, stretch=3)
        dist, _ = run_low_energy_bfs(g, cover, {0: 0}, 2)
        assert dist == {0: 0, 1: 1}

    def test_energy_bfs_singleton(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_node(0)
        cover = build_layered_cover(g, 1, base=4, stretch=3)
        dist, _ = run_low_energy_bfs(g, cover, {0: 0}, 1)
        assert dist == {0: 0}

    def test_disconnected_energy_bfs(self):
        from repro.graphs import Graph

        g = Graph.from_edges([(0, 1), (2, 3)])
        cover = build_layered_cover(g, 4, base=4, stretch=3)
        dist, _ = run_low_energy_bfs(g, cover, {0: 0}, 4)
        assert dist[1] == 1
        assert dist[2] == INFINITY and dist[3] == INFINITY

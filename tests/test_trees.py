"""Rooted forests and the convergecast/broadcast tree protocol."""

import pytest

from repro import graphs
from repro.core.trees import (
    RootedForest,
    bfs_forest,
    run_convergecast_broadcast,
)
from repro.graphs import Graph
from repro.sim import Metrics


class TestRootedForest:
    def test_single_tree(self):
        f = RootedForest({0: None, 1: 0, 2: 0, 3: 1})
        assert f.roots == [0]
        assert f.depth == {0: 0, 1: 1, 2: 1, 3: 2}
        assert f.root_of[3] == 0
        assert f.children[0] == [1, 2]

    def test_forest_with_two_trees(self):
        f = RootedForest({0: None, 1: 0, 2: None, 3: 2})
        assert set(f.roots) == {0, 2}
        assert f.component(0) == {0, 1}
        assert f.components()[2] == {2, 3}

    def test_tree_depth(self):
        f = RootedForest({0: None, 1: 0, 2: 1, 3: 2})
        assert f.tree_depth(0) == 3

    def test_cycle_detected(self):
        with pytest.raises(ValueError):
            RootedForest({0: 1, 1: 0})

    def test_dangling_parent_detected(self):
        with pytest.raises(ValueError):
            RootedForest({0: 5})

    def test_validate_against_graph(self):
        g = graphs.path_graph(4)
        f = RootedForest({0: None, 1: 0, 2: 1, 3: 2})
        f.validate_against(g)

    def test_validate_rejects_non_edges(self):
        g = graphs.path_graph(4)
        f = RootedForest({0: None, 1: 0, 2: 0, 3: 2})  # 2-0 not an edge
        with pytest.raises(ValueError):
            f.validate_against(g)

    def test_validate_rejects_non_spanning(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        f = RootedForest({0: None, 1: 0, 2: None})  # 2 split off its component
        with pytest.raises(ValueError):
            f.validate_against(g)


class TestBFSForest:
    def test_spans_and_validates(self):
        for seed in range(4):
            g = graphs.random_graph(20, 0.15, seed=seed)
            f = bfs_forest(g)
            f.validate_against(g)

    def test_respects_requested_roots(self):
        g = graphs.path_graph(6)
        f = bfs_forest(g, roots=[3])
        assert f.roots == [3]

    def test_depth_is_hop_distance(self):
        g = graphs.grid_graph(4, 4)
        f = bfs_forest(g, roots=[0])
        truth = g.hop_distances([0])
        for u in g.nodes():
            assert f.depth[u] == truth[u]


class TestConvergecastBroadcast:
    def test_sum_aggregate(self):
        g = graphs.path_graph(6)
        f = bfs_forest(g, roots=[0])
        result = run_convergecast_broadcast(g, f, {u: 1 for u in g.nodes()}, sum)
        assert all(v == 6 for v in result.values())

    def test_max_aggregate(self):
        g = graphs.balanced_tree(2, 3)
        f = bfs_forest(g, roots=[0])
        result = run_convergecast_broadcast(g, f, {u: u for u in g.nodes()}, max)
        assert all(v == 14 for v in result.values())

    def test_all_aggregate_detects_false(self):
        g = graphs.path_graph(5)
        f = bfs_forest(g, roots=[0])
        values = {u: u != 3 for u in g.nodes()}
        result = run_convergecast_broadcast(g, f, values, all)
        assert all(v is False for v in result.values())

    def test_per_tree_aggregation(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        f = bfs_forest(g)
        result = run_convergecast_broadcast(g, f, {0: 1, 1: 2, 2: 10, 3: 20}, sum)
        assert result[0] == 3 and result[1] == 3
        assert result[2] == 30 and result[3] == 30

    def test_singleton_tree(self):
        g = Graph()
        g.add_node(7)
        f = bfs_forest(g)
        result = run_convergecast_broadcast(g, f, {7: 42}, sum)
        assert result[7] == 42

    def test_costs_two_messages_per_tree_edge(self):
        g = graphs.path_graph(10)
        f = bfs_forest(g, roots=[0])
        m = Metrics()
        run_convergecast_broadcast(g, f, {u: 0 for u in g.nodes()}, sum, metrics=m)
        assert m.total_messages == 2 * 9
        assert m.max_congestion == 1

    def test_time_linear_in_depth(self):
        g = graphs.path_graph(20)
        f = bfs_forest(g, roots=[0])
        m = Metrics()
        run_convergecast_broadcast(g, f, {u: 0 for u in g.nodes()}, sum, metrics=m)
        assert m.rounds <= 2 * 20 + 4

    def test_none_values_supported(self):
        g = graphs.path_graph(3)
        f = bfs_forest(g, roots=[0])
        pick = lambda vals: next((v for v in vals if v is not None), None)
        result = run_convergecast_broadcast(g, f, {0: None, 1: None, 2: None}, pick)
        assert all(v is None for v in result.values())

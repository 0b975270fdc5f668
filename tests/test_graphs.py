"""Unit tests for the graph substrate: structure, generators, IO, oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import graphs
from repro.graphs import Graph, INFINITY, dumps, loads


class TestGraphBasics:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []
        assert g.is_connected()

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(1)
        g.add_node(1)
        assert g.num_nodes == 1

    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge(1, 2, 5)
        assert g.has_node(1) and g.has_node(2)
        assert g.weight(1, 2) == 5
        assert g.weight(2, 1) == 5

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(3, 3)

    def test_negative_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 2, -1)

    def test_non_integer_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 2, 1.5)

    def test_zero_weight_allowed(self):
        g = Graph()
        g.add_edge(1, 2, 0)
        assert g.weight(1, 2) == 0

    def test_duplicate_edge_keeps_minimum(self):
        g = Graph()
        g.add_edge(1, 2, 7)
        g.add_edge(1, 2, 3)
        assert g.weight(1, 2) == 3
        assert g.num_edges == 1

    def test_degree_and_neighbors(self):
        g = graphs.star_graph(5)
        assert g.degree(0) == 4
        assert set(g.neighbors(0)) == {1, 2, 3, 4}
        assert g.degree(1) == 1

    def test_edges_iterated_once(self):
        g = graphs.complete_graph(5)
        assert len(list(g.edges())) == 10

    def test_max_weight(self):
        g = Graph.from_edges([(0, 1, 3), (1, 2, 9)])
        assert g.max_weight() == 9
        assert Graph().max_weight() == 0

    def test_contains_and_len(self):
        g = graphs.path_graph(4)
        assert 2 in g
        assert 9 not in g
        assert len(g) == 4

    def test_repr(self):
        assert "n=3" in repr(graphs.path_graph(3))

    def test_from_edges_with_isolated_nodes(self):
        g = Graph.from_edges([(0, 1)], nodes=[5])
        assert g.has_node(5)
        assert g.degree(5) == 0


class TestDerivedGraphs:
    def test_induced_subgraph(self):
        g = graphs.path_graph(5)
        sub = g.induced_subgraph({1, 2, 4})
        assert sub.num_nodes == 3
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 4)

    def test_induced_subgraph_keeps_weights(self):
        g = Graph.from_edges([(0, 1, 7), (1, 2, 3)])
        sub = g.induced_subgraph({0, 1})
        assert sub.weight(0, 1) == 7

    @pytest.mark.parametrize(
        "container", ["set", "frozenset", "reversed-list", "tuple", "generator", "dict"]
    )
    def test_induced_subgraph_keeps_the_parents_node_order(self, container):
        # Node order is the parent's insertion order whatever order ``keep``
        # iterates in; string labels iterate a set in hash order.
        labels = [f"v{i}" for i in (5, 3, 8, 0, 9, 1, 7)]
        g = Graph.from_edges(zip(labels, labels[1:]))
        kept = labels[::2]
        keep = {
            "set": lambda: set(kept),
            "frozenset": lambda: frozenset(kept),
            "reversed-list": lambda: kept[::-1],
            "tuple": lambda: tuple(sorted(kept)),
            "generator": lambda: (u for u in reversed(kept)),
            "dict": lambda: dict.fromkeys(sorted(kept)),
        }[container]()
        assert list(g.induced_subgraph(keep).nodes()) == kept

    def test_induced_subgraph_ignores_labels_not_in_the_graph(self):
        g = graphs.path_graph(4)
        sub = g.induced_subgraph({1, 2, 99})
        assert list(sub.nodes()) == [1, 2]
        assert sub.num_edges == 1

    def test_induced_subgraph_order_is_the_same_under_two_hash_seeds(self):
        import json
        import subprocess
        import sys

        from repro.testing import subprocess_env

        script = (
            "import json; from repro.graphs import Graph; "
            "labels = [f'v{i}' for i in range(20)]; "
            "g = Graph.from_edges(zip(labels, labels[1:])); "
            "sub = g.induced_subgraph(set(labels[::3])); "
            "print(json.dumps([list(sub.nodes()), list(set(labels))]))"
        )
        runs = []
        for hash_seed in ("1", "3"):
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env={**subprocess_env(), "PYTHONHASHSEED": hash_seed}, timeout=60,
            )
            assert out.returncode == 0, out.stderr[-2000:]
            runs.append(json.loads(out.stdout))
        (nodes1, set_order1), (nodes3, set_order3) = runs
        assert nodes1 == nodes3 == [f"v{i}" for i in range(0, 20, 3)]
        # Control: the two hash seeds do order a set of these labels apart.
        assert set_order1 != set_order3

    def test_reweighted(self):
        g = Graph.from_edges([(0, 1, 2), (1, 2, 5)])
        doubled = g.reweighted(lambda w: 2 * w)
        assert doubled.weight(0, 1) == 4
        assert g.weight(0, 1) == 2  # original untouched

    def test_reweighted_preserves_isolated_nodes(self):
        g = Graph.from_edges([(0, 1)], nodes=[9])
        assert 9 in g.reweighted(lambda w: w)


class TestConnectivity:
    def test_connected_components_path(self):
        g = graphs.path_graph(4)
        assert len(g.connected_components()) == 1

    def test_connected_components_disjoint(self):
        g = Graph.from_edges([(0, 1), (2, 3)], nodes=[4])
        comps = g.connected_components()
        assert len(comps) == 3
        assert {4} in comps

    def test_is_connected(self):
        assert graphs.cycle_graph(5).is_connected()
        assert not Graph.from_edges([(0, 1)], nodes=[2]).is_connected()


class TestOracles:
    def test_dijkstra_path(self):
        g = graphs.path_graph(5)
        d = g.dijkstra([0])
        assert d == {i: i for i in range(5)}

    def test_dijkstra_weighted(self):
        g = Graph.from_edges([(0, 1, 10), (0, 2, 1), (2, 1, 2)])
        assert g.dijkstra([0])[1] == 3

    def test_dijkstra_multi_source(self):
        g = graphs.path_graph(10)
        d = g.dijkstra([0, 9])
        assert d[5] == 4

    def test_dijkstra_unreachable(self):
        g = Graph.from_edges([(0, 1)], nodes=[2])
        assert g.dijkstra([0])[2] == INFINITY

    def test_dijkstra_missing_source(self):
        with pytest.raises(KeyError):
            graphs.path_graph(3).dijkstra([7])

    def test_hop_distances_ignore_weights(self):
        g = Graph.from_edges([(0, 1, 100), (1, 2, 100)])
        assert g.hop_distances([0]) == {0: 0, 1: 1, 2: 2}

    def test_hop_diameter_path(self):
        assert graphs.path_graph(6).hop_diameter() == 5

    def test_hop_diameter_disconnected_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 1)], nodes=[2]).hop_diameter()

    def test_hop_eccentricity(self):
        g = graphs.path_graph(5)
        assert g.hop_eccentricity(0) == 4
        assert g.hop_eccentricity(2) == 2

    def test_weighted_diameter_upper_bound(self):
        g = Graph.from_edges([(0, 1, 5)])
        assert g.weighted_diameter_upper_bound() >= 5

    def test_dijkstra_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = graphs.random_weights(graphs.random_connected_graph(30, seed=7), 9, seed=8)
        ng = nx.Graph()
        for u, v, w in g.edges():
            ng.add_edge(u, v, weight=w)
        truth = nx.single_source_dijkstra_path_length(ng, 0)
        mine = g.dijkstra([0])
        for u in g.nodes():
            assert mine[u] == truth.get(u, INFINITY)


class TestGenerators:
    def test_path_sizes(self):
        g = graphs.path_graph(7)
        assert g.num_nodes == 7 and g.num_edges == 6

    def test_path_rejects_zero(self):
        with pytest.raises(ValueError):
            graphs.path_graph(0)

    def test_cycle_sizes(self):
        g = graphs.cycle_graph(8)
        assert g.num_nodes == 8 and g.num_edges == 8
        assert all(g.degree(u) == 2 for u in g.nodes())

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            graphs.cycle_graph(2)

    def test_grid(self):
        g = graphs.grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4
        assert g.hop_diameter() == 2 + 3

    def test_star(self):
        g = graphs.star_graph(6)
        assert g.degree(0) == 5

    def test_complete(self):
        g = graphs.complete_graph(6)
        assert g.num_edges == 15

    def test_balanced_tree(self):
        g = graphs.balanced_tree(2, 3)
        assert g.num_nodes == 15
        assert g.num_edges == 14
        assert g.is_connected()

    def test_random_tree_is_tree(self):
        g = graphs.random_tree(20, seed=3)
        assert g.num_edges == 19 and g.is_connected()

    def test_caterpillar(self):
        g = graphs.caterpillar_graph(4, 2)
        assert g.num_nodes == 4 + 8
        assert g.is_connected()

    def test_lollipop(self):
        g = graphs.lollipop_graph(4, 3)
        assert g.num_nodes == 7 and g.is_connected()

    def test_barbell(self):
        g = graphs.barbell_graph(3, 2)
        assert g.num_nodes == 8 and g.is_connected()

    def test_random_graph_bounds(self):
        g = graphs.random_graph(10, 0.0, seed=1)
        assert g.num_edges == 0
        g2 = graphs.random_graph(10, 1.0, seed=1)
        assert g2.num_edges == 45

    def test_random_graph_deterministic_by_seed(self):
        a = graphs.random_graph(15, 0.3, seed=5)
        b = graphs.random_graph(15, 0.3, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_random_connected_graph_connected(self):
        for seed in range(5):
            assert graphs.random_connected_graph(25, seed=seed).is_connected()

    def test_random_weights_range(self):
        g = graphs.random_weights(graphs.path_graph(20), 5, seed=2)
        assert all(1 <= w <= 5 for _, _, w in g.edges())

    def test_random_weights_zero_min(self):
        g = graphs.random_weights(graphs.path_graph(50), 3, seed=2, min_weight=0)
        assert any(w == 0 for _, _, w in g.edges())

    def test_random_weights_invalid(self):
        with pytest.raises(ValueError):
            graphs.random_weights(graphs.path_graph(3), 0, min_weight=1)

    def test_with_random_weights_wrapper(self):
        build = graphs.with_random_weights(graphs.path_graph, 9, seed=4)
        g = build(10)
        assert g.num_nodes == 10 and g.max_weight() <= 9

    def test_make_family_all(self):
        for name in graphs.FAMILIES:
            g = graphs.make_family(name, 20)
            assert g.num_nodes >= 5, name

    def test_make_family_weighted(self):
        g = graphs.make_family("er", 20, max_weight=7, seed=1)
        assert g.max_weight() <= 7

    def test_make_family_unknown(self):
        with pytest.raises(KeyError):
            graphs.make_family("nope", 10)


def _edge_set(g):
    return {(frozenset((u, v)), w) for u, v, w in g.edges()}


class TestIO:
    def test_roundtrip(self):
        g = graphs.random_weights(graphs.random_connected_graph(12, seed=1), 9, seed=2)
        g2 = loads(dumps(g))
        assert _edge_set(g) == _edge_set(g2)
        assert set(g.nodes()) == set(g2.nodes())

    def test_roundtrip_isolated_nodes(self):
        g = Graph.from_edges([(0, 1)], nodes=[7])
        g2 = loads(dumps(g))
        assert g2.has_node(7)

    def test_file_roundtrip(self, tmp_path):
        from repro.graphs import read_edge_list, write_edge_list

        g = graphs.grid_graph(3, 3)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert _edge_set(g) == _edge_set(g2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_property_random_tree_always_spanning(n, seed):
    g = graphs.random_tree(n, seed=seed)
    assert g.num_edges == n - 1
    assert g.is_connected()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=25),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_er_graph_valid(n, p, seed):
    g = graphs.random_graph(n, p, seed=seed)
    assert g.num_nodes == n
    assert 0 <= g.num_edges <= n * (n - 1) // 2


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_property_dijkstra_triangle_inequality(n, seed):
    g = graphs.random_weights(graphs.random_connected_graph(n, seed=seed), 9, seed=seed)
    d = g.dijkstra([0])
    for u, v, w in g.edges():
        assert d[u] <= d[v] + w
        assert d[v] <= d[u] + w

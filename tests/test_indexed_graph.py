"""Property-based tests for the frozen CSR view (seeded, no new deps)."""

import random

import pytest

from repro import graphs
from repro.graphs import Graph, IndexedGraph


def random_instance(rng: random.Random) -> Graph:
    n = rng.randrange(1, 60)
    p = rng.choice([0.0, 0.05, 0.2, 0.6])
    g = graphs.random_graph(n, p, seed=rng.randrange(2**31))
    if rng.random() < 0.5 and g.num_edges:
        g = graphs.random_weights(g, rng.randrange(1, 50), seed=rng.randrange(2**31))
    return g


@pytest.mark.parametrize("trial", range(25))
def test_round_trip_preserves_graph(trial):
    rng = random.Random(9000 + trial)
    g = random_instance(rng)
    indexed = IndexedGraph.of(g)
    back = indexed.to_graph()

    assert list(back.nodes()) == list(g.nodes())
    assert back.num_nodes == g.num_nodes == indexed.num_nodes
    assert back.num_edges == g.num_edges == indexed.num_edges
    assert sorted(map(repr, back.edges())) == sorted(map(repr, g.edges()))
    for u in g.nodes():
        assert sorted(map(repr, back.neighbors(u))) == sorted(map(repr, g.neighbors(u)))
        for v in g.neighbors(u):
            assert back.weight(u, v) == g.weight(u, v)


@pytest.mark.parametrize("trial", range(10))
def test_csr_structure_matches_adjacency(trial):
    rng = random.Random(4242 + trial)
    g = random_instance(rng)
    indexed = IndexedGraph.of(g)
    assert indexed.indptr[0] == 0
    assert indexed.indptr[-1] == len(indexed.nbr) == len(indexed.wt)
    for i, label in enumerate(indexed.labels):
        assert indexed.index_of[label] == i
        assert indexed.degree(i) == g.degree(label)
        neighbor_labels = {indexed.labels[j] for j in indexed.neighbor_indices(i)}
        assert neighbor_labels == set(g.neighbors(label))
        for j, w in zip(indexed.neighbor_indices(i), indexed.neighbor_weights(i)):
            assert g.weight(label, indexed.labels[j]) == w


def test_view_is_cached_until_mutation():
    g = graphs.random_connected_graph(20, seed=1)
    first = IndexedGraph.of(g)
    assert IndexedGraph.of(g) is first  # cached
    g.add_edge(0, 19, 5)
    second = IndexedGraph.of(g)
    assert second is not first  # mutation dropped the cache
    assert second.num_edges == first.num_edges + (0 if first.num_edges == g.num_edges else 1)
    assert any(
        (u, v) in ((0, 19), (19, 0)) for u, v, _ in second.edges()
    )


def test_add_node_invalidates_cache():
    g = graphs.path_graph(4)
    first = IndexedGraph.of(g)
    g.add_node(99)
    second = IndexedGraph.of(g)
    assert second is not first
    assert second.num_nodes == 5
    assert second.labels[-1] == 99


def test_node_views_shared_and_consistent():
    g = graphs.random_weights(graphs.random_connected_graph(15, seed=2), 9, seed=3)
    indexed = IndexedGraph.of(g)
    views = indexed.node_views()
    assert indexed.node_views() is views  # built once
    for i, (neighbors, weights, ports, lo, hi) in enumerate(views):
        label = indexed.labels[i]
        assert set(neighbors) == set(g.neighbors(label))
        assert (lo, hi) == (indexed.indptr[i], indexed.indptr[i + 1])
        assert hi - lo == len(neighbors) == len(weights)
        for k, v in enumerate(neighbors):
            port_id, dst_index, w = ports[v]
            assert port_id == lo + k
            assert weights[k] == w == g.weight(label, v)
            assert indexed.nbr[port_id] == dst_index
            assert indexed.labels[dst_index] == v


def test_port_src_labels_align_with_csr():
    g = graphs.random_weights(graphs.random_connected_graph(18, seed=5), 7, seed=6)
    indexed = IndexedGraph.of(g)
    srcs = indexed.port_src_labels()
    assert indexed.port_src_labels() is srcs  # built once
    assert len(srcs) == len(indexed.nbr)
    for i, label in enumerate(indexed.labels):
        for port_id in range(indexed.indptr[i], indexed.indptr[i + 1]):
            assert srcs[port_id] == label


def test_tuple_labels_round_trip():
    g = Graph.from_edges([((0, "a"), (1, "b"), 3), ((1, "b"), (2, "c"), 7)])
    indexed = IndexedGraph.of(g)
    back = indexed.to_graph()
    assert set(back.nodes()) == set(g.nodes())
    assert back.weight((0, "a"), (1, "b")) == 3
    assert back.weight((1, "b"), (2, "c")) == 7

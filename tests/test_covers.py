"""Sparse covers (Def 3.2 / Thm 3.11) and layered covers (Def 3.4)."""

import pytest

from repro import graphs
from repro.energy.covers import build_layered_cover, build_sparse_cover


def ball(g, v, d):
    return {u for u, dist in g.dijkstra([v]).items() if dist <= d}


class TestSparseCover:
    @pytest.mark.parametrize(
        "builder,d",
        [
            (lambda: graphs.path_graph(24), 2),
            (lambda: graphs.grid_graph(5, 5), 2),
            (lambda: graphs.cycle_graph(16), 3),
            (lambda: graphs.random_connected_graph(25, seed=1), 2),
        ],
    )
    def test_home_contains_ball(self, builder, d):
        g = builder()
        cover = build_sparse_cover(g, d, stretch=3)
        for v in g.nodes():
            assert ball(g, v, d) <= cover.home[v].members, f"ball({v}) escapes home"

    def test_membership_bounded_by_colors(self):
        g = graphs.path_graph(40)
        cover = build_sparse_cover(g, 2, stretch=3)
        memberships = cover.memberships()
        assert set(memberships) == set(g.nodes())
        # Expansion adds at most one cluster per color.
        assert cover.max_membership() <= 12

    def test_trees_are_graph_edges_and_rooted(self):
        g = graphs.grid_graph(5, 5)
        cover = build_sparse_cover(g, 2, stretch=3)
        for cluster in cover.clusters:
            for u, p in cluster.tree_edges():
                assert g.has_edge(u, p)
            assert cluster.tree_parent[cluster.root] is None
            for u in cluster.members:
                assert u in cluster.tree_parent

    def test_tree_hops_consistent(self):
        g = graphs.path_graph(20)
        cover = build_sparse_cover(g, 2, stretch=3)
        for cluster in cover.clusters:
            for u, p in cluster.tree_parent.items():
                if p is not None:
                    assert cluster.tree_hops[u] == cluster.tree_hops[p] + 1

    def test_tree_wdist_consistent(self):
        g = graphs.random_weights(graphs.path_graph(15), 4, seed=3)
        cover = build_sparse_cover(g, 4, stretch=3)
        for cluster in cover.clusters:
            for u, p in cluster.tree_parent.items():
                if p is not None:
                    assert cluster.tree_wdist[u] == cluster.tree_wdist[p] + g.weight(u, p)

    def test_weighted_cover_ball_property(self):
        g = graphs.random_weights(graphs.cycle_graph(14), 3, seed=5)
        d = 4
        cover = build_sparse_cover(g, d, stretch=3)
        for v in g.nodes():
            assert ball(g, v, d) <= cover.home[v].members

    def test_edge_tree_load(self):
        g = graphs.path_graph(30)
        cover = build_sparse_cover(g, 2, stretch=3)
        load = cover.edge_tree_load()
        assert max(load.values()) <= len(cover.clusters)

    def test_universal_cluster_detection(self):
        g = graphs.path_graph(6)
        cover = build_sparse_cover(g, 10, stretch=10)
        assert cover.has_universal_cluster(g)


class TestLayeredCover:
    def test_radii_strictly_increase(self):
        g = graphs.path_graph(48)
        layered = build_layered_cover(g, 47, base=4, stretch=3)
        assert all(b > a for a, b in zip(layered.radii, layered.radii[1:]))

    def test_parent_containment(self):
        g = graphs.path_graph(48)
        layered = build_layered_cover(g, 47, base=4, stretch=3)
        for j in range(len(layered.levels) - 1):
            upper = {c.cid: c for c in layered.levels[j + 1].clusters}
            for c in layered.levels[j].clusters:
                parent = upper[layered.parent_of[c.cid]]
                assert c.tree_nodes <= parent.members

    def test_parent_contains_half_radius_neighborhood(self):
        g = graphs.grid_graph(7, 7)
        layered = build_layered_cover(g, 12, base=4, stretch=3)
        for j in range(len(layered.levels) - 1):
            upper = {c.cid: c for c in layered.levels[j + 1].clusters}
            r_next = layered.radii[j + 1]
            for c in layered.levels[j].clusters:
                parent = upper[layered.parent_of[c.cid]]
                for u in c.members:
                    assert ball(g, u, r_next // 2) <= parent.members

    def test_top_level_terminates(self):
        g = graphs.path_graph(30)
        layered = build_layered_cover(g, 29, base=4, stretch=3)
        top = layered.levels[-1]
        assert top.has_universal_cluster(g) or layered.radii[-1] >= 2 * 29

    def test_every_non_top_cluster_has_parent(self):
        g = graphs.path_graph(30)
        layered = build_layered_cover(g, 29, base=4, stretch=3)
        for j in range(len(layered.levels) - 1):
            for c in layered.levels[j].clusters:
                assert c.cid in layered.parent_of

    def test_max_edge_load_positive(self):
        g = graphs.path_graph(30)
        layered = build_layered_cover(g, 29, base=4, stretch=3)
        assert layered.max_edge_load() >= 1

    def test_cluster_by_id(self):
        g = graphs.path_graph(12)
        layered = build_layered_cover(g, 11, base=4, stretch=3)
        c = layered.levels[0].clusters[0]
        assert layered.cluster_by_id(c.cid) is c
        with pytest.raises(KeyError):
            layered.cluster_by_id(("nope",))

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            build_layered_cover(graphs.path_graph(4), 3, base=1)

    def test_weighted_layered_cover(self):
        g = graphs.random_weights(graphs.path_graph(20), 3, seed=7)
        target = 20
        layered = build_layered_cover(g, target, base=4, stretch=3)
        for j in range(len(layered.levels) - 1):
            upper = {c.cid: c for c in layered.levels[j + 1].clusters}
            for c in layered.levels[j].clusters:
                assert c.tree_nodes <= upper[layered.parent_of[c.cid]].members

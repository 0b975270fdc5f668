"""From-scratch low-energy BFS (Thm 3.13/3.14) and energy CSSP (Thm 3.15)."""

import gc
import hashlib
import json
import weakref

import pytest

from repro.testing import assert_distances_equal, oracle_distances
from repro import graphs
from repro.api.drivers import drive_energy_cssp
from repro.energy import (
    build_sparse_cover,
    covers,
    energy_approx_cssp,
    energy_cssp,
    low_energy_bfs_from_scratch,
)
from repro.graphs import Graph, INFINITY
from repro.sim import Metrics, TracingMetrics, memo as construction_memo


class TestFromScratchBFS:
    def test_path(self):
        g = graphs.path_graph(20)
        dist, cover = low_energy_bfs_from_scratch(g, {0: 0})
        assert dist == g.hop_distances([0])

    def test_grid(self):
        g = graphs.grid_graph(5, 5)
        dist, _ = low_energy_bfs_from_scratch(g, {0: 0})
        assert dist == g.hop_distances([0])

    def test_random(self):
        g = graphs.random_connected_graph(20, seed=3)
        dist, _ = low_energy_bfs_from_scratch(g, {0: 0})
        assert dist == g.hop_distances([0])

    def test_thresholded(self):
        g = graphs.path_graph(25)
        dist, _ = low_energy_bfs_from_scratch(g, {0: 0}, threshold=7)
        for u in g.nodes():
            assert dist[u] == (u if u <= 7 else INFINITY)

    def test_metrics_separated(self):
        g = graphs.path_graph(16)
        cm, qm = Metrics(), Metrics()
        low_energy_bfs_from_scratch(
            g, {0: 0}, construction_metrics=cm, query_metrics=qm
        )
        assert cm.rounds > 0 and qm.rounds > 0
        assert qm.max_energy < qm.rounds  # query phase genuinely sleeps

    def test_weights_ignored_for_bfs(self):
        g = graphs.random_weights(graphs.path_graph(10), 9, seed=1)
        dist, _ = low_energy_bfs_from_scratch(g, {0: 0})
        assert dist == {u: u for u in g.nodes()}


class TestEnergyCutter:
    def test_lemma_guarantees(self):
        g = graphs.random_weights(graphs.random_connected_graph(12, seed=2), 5, seed=3)
        truth = g.dijkstra([0])
        bound = 20
        eps = 0.5
        approx = energy_approx_cssp(g, {0: 0}, eps, bound)
        for u in g.nodes():
            if approx[u] != INFINITY:
                assert truth[u] <= approx[u] < truth[u] + eps * bound + 1e-9
            else:
                assert truth[u] > 2 * bound

    def test_no_sources(self):
        g = graphs.path_graph(4)
        out = energy_approx_cssp(g, {}, 0.5, 5)
        assert all(v == INFINITY for v in out.values())


class TestEnergyCSSP:
    def test_exact_small_random(self):
        for seed in range(3):
            g = graphs.random_weights(
                graphs.random_connected_graph(12, seed=seed), 5, seed=seed + 9
            )
            d, m = energy_cssp(g, {0: 0})
            assert_distances_equal(d, g.dijkstra([0]), f"seed {seed}")

    def test_exact_path(self):
        g = graphs.random_weights(graphs.path_graph(14), 4, seed=11)
        d, _ = energy_cssp(g, {0: 0})
        assert_distances_equal(d, g.dijkstra([0]), "path")

    def test_multi_source_offsets(self):
        g = graphs.random_weights(graphs.random_connected_graph(10, seed=5), 4, seed=6)
        sources = {0: 3, 9: 0}
        d, _ = energy_cssp(g, sources)
        assert_distances_equal(d, oracle_distances(g, sources), "offsets")

    def test_unweighted(self):
        g = graphs.grid_graph(3, 4)
        d, _ = energy_cssp(g, [0])
        assert_distances_equal(d, g.hop_distances([0]), "grid")

    def test_zero_weights_rejected(self):
        g = Graph.from_edges([(0, 1, 0)])
        with pytest.raises(ValueError):
            energy_cssp(g, {0: 0})

    def test_empty_and_sourceless(self):
        d, _ = energy_cssp(Graph(), {})
        assert d == {}
        g = graphs.path_graph(3)
        d, _ = energy_cssp(g, {})
        assert all(v == INFINITY for v in d.values())

    def test_disconnected(self):
        g = Graph.from_edges([(0, 1, 2), (2, 3, 1)])
        d, _ = energy_cssp(g, {0: 0})
        assert d[1] == 2 and d[2] == INFINITY


# ---------------------------------------------------------------------------
# Sparse-cover memo: one construction per distinct input per energy_cssp call
# ---------------------------------------------------------------------------

# name -> (graph builder, sources, sha256 of distances + metrics.to_dict()).
# The digests were computed before the memo existed, so they pin the memo
# to the cost of building every cover from scratch.
GOLDEN_CASES = {
    "er-seed0": (
        lambda: graphs.make_family("er", 24, max_weight=6, seed=0),
        {0: 0},
        "6e3f7efcaf0ed5c307854524decd4096831b4b815fa80915233259278902ccf7",
    ),
    "er-seed1": (
        lambda: graphs.make_family("er", 24, max_weight=6, seed=1),
        {7: 0},
        "c3e64cd8f51997f6145ebdf91bbf0dd0145e99813bd6d0b3c8c767a7b86d7870",
    ),
    "grid": (
        lambda: graphs.random_weights(graphs.grid_graph(4, 5), 3, seed=2),
        {0: 0},
        "d154391e415b097fd972638deaf8f5e7ac2f7b46d785ff89244c62100f708c68",
    ),
    "path": (
        lambda: graphs.random_weights(graphs.path_graph(16), 4, seed=11),
        {0: 0},
        "ad77c6a560e6b967d634f8ead28ce41578d38b4e925e042fffa346e59167fdfc",
    ),
    "offsets": (
        lambda: graphs.random_weights(
            graphs.random_connected_graph(14, seed=5), 4, seed=6
        ),
        {0: 3, 9: 0, 5: 1},
        "cf684a7e36e46562dac45cd4704945415fb12157c153f18ad96f9e20e826d4e5",
    ),
    "disconnected": (
        lambda: Graph.from_edges(
            [(0, 1, 2), (1, 2, 3), (2, 0, 1), (3, 4, 1), (4, 5, 2)]
        ),
        {0: 0},
        "b930ab1cbc2f9f482e3d646ea5eda62655f859575780d1ea9a37ff6ce268fceb",
    ),
}


def _run_serialized(build, sources):
    distances, metrics = energy_cssp(build(), sources, metrics=Metrics())
    return json.dumps(sorted(distances.items())), json.dumps(metrics.to_dict())


def _always_miss(monkeypatch):
    """Make every memo lookup miss: each key is a fresh object."""
    monkeypatch.setattr(construction_memo, "construction_key", lambda *_args: object())


def _count_decompositions(monkeypatch) -> list:
    """Count real constructions (one decomposition per sparse cover)."""
    calls = []
    real = covers.build_decomposition

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(covers, "build_decomposition", counted)
    return calls


class TestCoverMemo:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_memo_matches_fresh_constructions(self, name, monkeypatch):
        build, sources, digest = GOLDEN_CASES[name]
        dist, metrics = _run_serialized(build, sources)
        with monkeypatch.context() as patch:
            _always_miss(patch)
            fresh_dist, fresh_metrics = _run_serialized(build, sources)
        assert dist == fresh_dist
        assert metrics == fresh_metrics
        blob = json.dumps([json.loads(dist), json.loads(metrics)])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_hit_returns_stored_cover_and_replays_its_cost(self, monkeypatch):
        builds = _count_decompositions(monkeypatch)
        memo: dict = {}
        first, second = Metrics(), Metrics()
        make = lambda: graphs.random_weights(graphs.grid_graph(3, 4), 3, seed=1)
        cover = build_sparse_cover(make(), 1, stretch=3, metrics=first, memo=memo)
        again = build_sparse_cover(make(), 1, stretch=3, metrics=second, memo=memo)
        assert again is cover and len(builds) == 1 and len(memo) == 1
        assert second.rounds > 0
        assert json.dumps(second.to_dict()) == json.dumps(first.to_dict())

    def test_key_is_the_exact_construction_input(self, monkeypatch):
        builds = _count_decompositions(monkeypatch)
        memo: dict = {}
        edges = [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1), (1, 3, 2)]
        base = Graph.from_edges(edges)
        reordered = Graph.from_edges(edges, nodes=[3, 2, 1, 0])
        reweighted = Graph.from_edges(edges[:-1] + [(1, 3, 5)])
        assert {frozenset(e[:2]) for e in base.edges()} == {
            frozenset(e[:2]) for e in reordered.edges()
        }
        assert list(base.nodes()) != list(reordered.nodes())
        inputs = [
            (base, 1, 3),
            (reordered, 1, 3),   # same edge set, other node order
            (reweighted, 1, 3),  # one weight changed
            (base, 2, 3),        # other d
            (base, 1, 4),        # other stretch
        ]
        for count, (graph, d, stretch) in enumerate(inputs, start=1):
            build_sparse_cover(graph, d, stretch=stretch, metrics=Metrics(), memo=memo)
            assert len(builds) == count and len(memo) == count

    def test_tracing_metrics_go_through_the_memo(self, monkeypatch):
        """A TracingMetrics run replays stored covers, wake segments
        included, and reads exactly like a run that builds every one."""
        build, sources, _digest = GOLDEN_CASES["er-seed0"]
        runs = []
        for miss in (False, True):
            with monkeypatch.context() as patch:
                builds = _count_decompositions(patch)
                if miss:
                    _always_miss(patch)
                metrics = TracingMetrics()
                energy_cssp(build(), sources, metrics=metrics)
            runs.append((len(builds), (
                json.dumps(metrics.to_dict()),
                metrics.messages_by_round,
                metrics.awake_by_round,
                metrics.send_trace.counts(),
            )))
        (builds, memo_run), (requests, fresh_run) = runs
        assert builds < requests
        assert memo_run == fresh_run
        assert memo_run[0] == _run_serialized(build, sources)[1]

    def test_no_cover_outlives_the_call(self, monkeypatch):
        refs = []
        real = covers._construct_sparse_cover

        def tracked(*args):
            cover = real(*args)
            refs.append(weakref.ref(cover))
            return cover

        monkeypatch.setattr(covers, "_construct_sparse_cover", tracked)
        build, sources, _digest = GOLDEN_CASES["er-seed0"]
        graph = build()
        energy_cssp(graph, sources, metrics=Metrics())
        gc.collect()
        assert refs
        assert all(ref() is None for ref in refs)

    def test_pinned_instance_builds_each_distinct_input_once(self, monkeypatch):
        """energy-cssp/er at n=16, seed 0: 25 cover requests, 13 distinct.

        A key that misses on repeats would make every request a build; one
        that merges distinct inputs would build fewer than 13 (and fail the
        driver's oracle check or the golden digests above).
        """
        builds = _count_decompositions(monkeypatch)
        keys = []
        real_key = construction_memo.construction_key

        def recorded(graph, *params):
            key = real_key(graph, *params)
            if params[0] == "sparse-cover":
                keys.append(key)
            return key

        monkeypatch.setattr(construction_memo, "construction_key", recorded)
        graph = graphs.make_family("er", 16, max_weight=4, seed=0)
        drive_energy_cssp(graph, 0, Metrics())
        assert len(builds) == len(set(keys)) == 13
        assert len(keys) == 25

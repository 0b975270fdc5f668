"""The recursive CSSP (Section 2.3): exactness, thresholds, zero weights,
participation bounds, and complexity profiles."""

import importlib
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.testing import assert_distances_equal, oracle_distances, small_weighted_graph
from repro import graphs
from repro.core import apsp, boruvka, build_maximal_forest
from repro.core.cssp import cssp, distance_upper_bound, thresholded_cssp
from repro.graphs import Graph, INFINITY
from repro.sim import Metrics, SendTrace, TracingMetrics, memo as construction_memo
from repro.sim.events import simulation_engine

# The package re-exports the cssp function under the module's name.
cssp_module = importlib.import_module("repro.core.cssp")


class TestCSSPExactness:
    def test_single_source_random(self):
        for seed in range(6):
            g = small_weighted_graph(20, seed, max_weight=15)
            d, _ = cssp(g, {0: 0})
            assert_distances_equal(d, g.dijkstra([0]), f"seed {seed}")

    def test_unweighted(self):
        g = graphs.grid_graph(5, 5)
        d, _ = cssp(g, [0])
        assert_distances_equal(d, g.hop_distances([0]), "grid")

    def test_path_extreme_diameter(self):
        g = graphs.path_graph(40).reweighted(lambda w: 13)
        d, _ = cssp(g, {0: 0})
        assert_distances_equal(d, g.dijkstra([0]), "path")

    def test_multi_source(self):
        g = small_weighted_graph(25, 4)
        d, _ = cssp(g, {0: 0, 12: 0, 24: 0})
        assert_distances_equal(d, g.dijkstra([0, 12, 24]), "multi")

    def test_sources_as_list(self):
        g = graphs.path_graph(6)
        d, _ = cssp(g, [2, 5])
        assert d[0] == 2 and d[4] == 1

    def test_source_offsets(self):
        for seed in range(4):
            g = small_weighted_graph(18, seed, max_weight=8)
            sources = {0: 7, 9: 0, 17: 21}
            d, _ = cssp(g, sources)
            assert_distances_equal(d, oracle_distances(g, sources), f"seed {seed}")

    def test_disconnected(self):
        g = Graph.from_edges([(0, 1, 2), (2, 3, 4)])
        d, _ = cssp(g, {0: 0})
        assert d[1] == 2 and d[2] == INFINITY and d[3] == INFINITY

    def test_star_and_caterpillar(self):
        for g in (graphs.star_graph(20), graphs.caterpillar_graph(7, 2)):
            gw = graphs.random_weights(g, 9, seed=5)
            d, _ = cssp(gw, {0: 0})
            assert_distances_equal(d, gw.dijkstra([0]), "family")

    def test_lollipop_uneven_split(self):
        g = graphs.random_weights(graphs.lollipop_graph(6, 10), 7, seed=6)
        d, _ = cssp(g, {0: 0})
        assert_distances_equal(d, g.dijkstra([0]), "lollipop")

    def test_heavy_weights(self):
        g = graphs.random_weights(graphs.random_connected_graph(15, seed=7), 997, seed=8)
        d, _ = cssp(g, {0: 0})
        assert_distances_equal(d, g.dijkstra([0]), "heavy")

    def test_eps_variants(self):
        g = small_weighted_graph(16, 9)
        for eps in (0.1, 0.25, 0.5, 0.9):
            d, _ = cssp(g, {0: 0}, eps=eps)
            assert_distances_equal(d, g.dijkstra([0]), f"eps {eps}")

    def test_empty_graph(self):
        d, _ = cssp(Graph(), {})
        assert d == {}

    def test_no_sources(self):
        g = graphs.path_graph(3)
        d, _ = cssp(g, {})
        assert all(v == INFINITY for v in d.values())

    def test_unknown_source(self):
        with pytest.raises(KeyError):
            cssp(graphs.path_graph(3), {9: 0})


class TestZeroWeights:
    def test_zero_weight_edge_basic(self):
        g = Graph.from_edges([(0, 1, 0), (1, 2, 5)])
        d, _ = cssp(g, {0: 0})
        assert d == {0: 0, 1: 0, 2: 5}

    def test_zero_components_contracted(self):
        g = Graph.from_edges([(0, 1, 0), (1, 2, 0), (2, 3, 7), (3, 4, 0)])
        d, _ = cssp(g, {0: 0})
        assert d == {0: 0, 1: 0, 2: 0, 3: 7, 4: 7}

    def test_random_zero_weight_graphs(self):
        for seed in range(5):
            g = graphs.random_weights(
                graphs.random_connected_graph(20, seed=seed), 6, seed=seed, min_weight=0
            )
            d, _ = cssp(g, {0: 0})
            assert_distances_equal(d, g.dijkstra([0]), f"zero seed {seed}")

    def test_all_zero_graph(self):
        g = graphs.path_graph(6).reweighted(lambda w: 0)
        d, _ = cssp(g, {3: 0})
        assert all(v == 0 for v in d.values())

    def test_zero_with_multi_source_offsets(self):
        g = Graph.from_edges([(0, 1, 0), (1, 2, 3), (2, 3, 0)])
        sources = {0: 5, 3: 1}
        d, _ = cssp(g, sources)
        assert_distances_equal(d, oracle_distances(g, sources), "zero offsets")


class TestThresholdedSemantics:
    def test_definition_2_3(self):
        g = small_weighted_graph(18, 11)
        truth = g.dijkstra([0])
        finite = sorted(v for v in truth.values() if v != INFINITY)
        tau = int(finite[len(finite) // 2])
        d = thresholded_cssp(g, {0: 0}, tau)
        for u in g.nodes():
            if truth[u] <= tau:
                assert d[u] == truth[u]
            else:
                assert d[u] == INFINITY

    def test_non_power_of_two_threshold(self):
        g = graphs.path_graph(20).reweighted(lambda w: 3)
        d = thresholded_cssp(g, {0: 0}, 10)
        assert d[3] == 9
        assert d[4] == INFINITY

    def test_threshold_zero(self):
        g = graphs.path_graph(4)
        d = thresholded_cssp(g, {0: 0}, 0)
        assert d[0] == 0 and d[1] == INFINITY

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            thresholded_cssp(graphs.path_graph(3), {0: 0}, -1)


class TestRecursionStructure:
    def test_participation_logarithmic(self):
        # Lemma 2.4: every node appears in O(log D) subproblems.
        g = small_weighted_graph(30, 13, max_weight=20)
        m = Metrics()
        cssp(g, {0: 0}, metrics=m)
        log_d = math.log2(distance_upper_bound(g))
        assert m.max_participation <= 3 * log_d + 5

    def test_distance_upper_bound_is_power_of_two(self):
        g = graphs.random_weights(graphs.path_graph(10), 13, seed=1)
        bound = distance_upper_bound(g)
        assert bound & (bound - 1) == 0
        assert bound >= 10 * 13

    def test_congestion_well_below_bellman_ford(self):
        g = small_weighted_graph(30, 14)
        m = Metrics()
        cssp(g, {0: 0}, metrics=m)
        # Theta(n) congestion would be ~30 per round x n rounds; the
        # recursion stays within polylog x log D of constants.
        assert m.max_congestion < g.num_nodes * 10

    def test_messages_near_linear_in_m(self):
        g = graphs.random_connected_graph(40, extra_edge_prob=0.1, seed=15)
        g = graphs.random_weights(g, 9, seed=16)
        m = Metrics()
        cssp(g, {0: 0}, metrics=m)
        polylog = math.log2(40) * math.log2(distance_upper_bound(g))
        assert m.total_messages <= 6 * g.num_edges * polylog

    def test_metrics_shared_accumulator(self):
        g = small_weighted_graph(12, 17)
        m = Metrics()
        _, returned = cssp(g, {0: 0}, metrics=m)
        assert returned is m
        assert m.rounds > 0 and m.total_messages > 0


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=18),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
)
def test_property_cssp_equals_dijkstra(n, seed, max_w):
    g = graphs.random_weights(graphs.random_connected_graph(n, seed=seed), max_w, seed=seed)
    d, _ = cssp(g, {0: 0})
    assert d == g.dijkstra([0])


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=3, max_value=14),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=20),
)
def test_property_cssp_offsets(n, seed, offset):
    g = graphs.random_weights(graphs.random_connected_graph(n, seed=seed), 7, seed=seed)
    sources = {0: offset, n - 1: 0}
    d, _ = cssp(g, sources)
    assert d == oracle_distances(g, sources)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=10**6))
def test_property_cssp_zero_weights(n, seed):
    g = graphs.random_weights(
        graphs.random_connected_graph(n, seed=seed), 4, seed=seed, min_weight=0
    )
    d, _ = cssp(g, {0: 0})
    assert d == g.dijkstra([0])


# ---------------------------------------------------------------------------
# Forest memo: one Boruvka construction per distinct input per call
# ---------------------------------------------------------------------------

# name -> (graph builder, sources).
FOREST_CASES = {
    "er-seed0": (lambda: graphs.make_family("er", 24, max_weight=6, seed=0), {0: 0}),
    "er-seed1": (lambda: graphs.make_family("er", 24, max_weight=6, seed=1), {7: 0}),
    "grid": (lambda: graphs.random_weights(graphs.grid_graph(4, 5), 3, seed=2), {0: 0}),
    "path": (lambda: graphs.random_weights(graphs.path_graph(16), 4, seed=11), {0: 0}),
    "offsets": (
        lambda: graphs.random_weights(graphs.random_connected_graph(14, seed=5), 4, seed=6),
        {0: 3, 9: 0, 5: 1},
    ),
    "disconnected": (
        lambda: Graph.from_edges([(0, 1, 2), (1, 2, 3), (2, 0, 1), (3, 4, 1), (4, 5, 2)]),
        {0: 0},
    ),
    "zero-weights": (
        lambda: Graph.from_edges(
            [(0, 1, 0), (1, 2, 3), (2, 3, 0), (3, 4, 2), (4, 0, 1), (2, 5, 1), (5, 6, 0)]
        ),
        {0: 0},
    ),
}


def _traced_metrics() -> Metrics:
    metrics = Metrics()
    metrics.send_trace = SendTrace()
    return metrics


def _serialized(distances, metrics) -> tuple:
    trace = None if metrics.send_trace is None else sorted(metrics.send_trace.counts().items())
    return (
        json.dumps(sorted(distances.items())),
        json.dumps(metrics.to_dict()),
        trace,
    )


def _tracing_snapshot(metrics: TracingMetrics) -> tuple:
    return (
        json.dumps(metrics.to_dict()),
        metrics.messages_by_round,
        metrics.awake_by_round,
        metrics.send_trace.counts(),
    )


def _always_miss(monkeypatch):
    """Make every memo lookup miss: each key is a fresh object."""
    monkeypatch.setattr(construction_memo, "construction_key", lambda *_args: object())


def _count_forests(monkeypatch) -> tuple[list, list]:
    """Count forest requests from the recursion and real constructions."""
    requests, builds = [], []
    real_request = cssp_module.build_maximal_forest
    real_build = boruvka._construct_forest

    def requested(graph, **kwargs):
        requests.append(graph)
        return real_request(graph, **kwargs)

    def built(graph, metrics):
        builds.append(graph)
        return real_build(graph, metrics)

    monkeypatch.setattr(cssp_module, "build_maximal_forest", requested)
    monkeypatch.setattr(boruvka, "_construct_forest", built)
    return requests, builds


def _count_done_casts(monkeypatch) -> tuple[list, list]:
    """Count the recursion's done-cast requests and its real runs."""
    requests, builds = [], []
    real_memoized = cssp_module.memoized
    real_run = cssp_module.run_convergecast_broadcast

    def requested(memo, metrics, graph, params, construct):
        if params == ("done-cast",):
            requests.append(graph)
        return real_memoized(memo, metrics, graph, params, construct)

    def run(graph, forest, values, combine, **kwargs):
        if combine is all:  # the zero-weight broadcast combines otherwise
            builds.append(graph)
        return real_run(graph, forest, values, combine, **kwargs)

    monkeypatch.setattr(cssp_module, "memoized", requested)
    monkeypatch.setattr(cssp_module, "run_convergecast_broadcast", run)
    return requests, builds


class TestForestMemo:
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("name", sorted(FOREST_CASES))
    def test_memo_matches_fresh_constructions(self, name, trace, monkeypatch):
        build, sources = FOREST_CASES[name]
        make_metrics = _traced_metrics if trace else Metrics
        memo_run = _serialized(*cssp(build(), sources, metrics=make_metrics()))
        with monkeypatch.context() as patch:
            _always_miss(patch)
            fresh_run = _serialized(*cssp(build(), sources, metrics=make_metrics()))
        assert memo_run == fresh_run

    def test_apsp_memo_matches_fresh_constructions(self, monkeypatch):
        graph = graphs.make_family("er", 12, max_weight=5, seed=4)
        requests, builds = _count_forests(monkeypatch)
        shared = apsp(graph, seed=1)
        assert len(builds) < len(requests)  # the sources share forests
        with monkeypatch.context() as patch:
            _always_miss(patch)
            fresh = apsp(graph, seed=1)
        assert shared.schedule == fresh.schedule
        assert shared.distances == fresh.distances
        for source, run in shared.per_source.items():
            other = fresh.per_source[source].metrics
            assert json.dumps(run.metrics.to_dict()) == json.dumps(other.to_dict())
            assert run.metrics.send_trace.counts() == other.send_trace.counts()

    def test_hit_returns_stored_forest_and_replays_its_cost(self, monkeypatch):
        _requests, builds = _count_forests(monkeypatch)
        memo: dict = {}
        make = lambda: graphs.random_weights(graphs.grid_graph(3, 4), 3, seed=1)
        first = _traced_metrics()
        forest = build_maximal_forest(make(), metrics=first, memo=memo)
        second = _traced_metrics()
        second.record_rounds(7)
        again = build_maximal_forest(make(), metrics=second, memo=memo)
        assert again is forest and len(builds) == 1 and len(memo) == 1
        assert second.rounds == first.rounds + 7 and first.rounds > 0
        # The replayed trace lands on the caller's clock.
        assert second.send_trace.counts() == Counter(
            {(edge, t + 7): count for (edge, t), count in first.send_trace.counts().items()}
        )

    def test_untraced_cost_never_replays_into_a_traced_caller(self, monkeypatch):
        _requests, builds = _count_forests(monkeypatch)
        memo: dict = {}
        graph = graphs.random_weights(graphs.grid_graph(3, 4), 3, seed=1)
        build_maximal_forest(graph, metrics=Metrics(), memo=memo)
        tracing = _traced_metrics()
        build_maximal_forest(graph, metrics=tracing, memo=memo)
        assert len(builds) == 2 and len(memo) == 2
        assert sum(tracing.send_trace.counts().values()) == tracing.total_messages > 0

    def test_repeated_inputs_are_built_once(self, monkeypatch):
        requests, builds = _count_forests(monkeypatch)
        build, sources = FOREST_CASES["er-seed0"]
        cssp(build(), sources, metrics=Metrics())
        distinct = {construction_memo.construction_key(g) for g in requests}
        assert len(builds) == len(distinct) < len(requests)

    def test_tracing_metrics_go_through_the_memo(self, monkeypatch):
        """A TracingMetrics run replays stored forests, wake segments
        included, and reads exactly like a run that builds every one."""
        build, sources = FOREST_CASES["er-seed0"]
        runs = []
        for miss in (False, True):
            with monkeypatch.context() as patch:
                requests, builds = _count_forests(patch)
                if miss:
                    _always_miss(patch)
                metrics = TracingMetrics()
                cssp(build(), sources, metrics=metrics)
            runs.append((len(requests), len(builds), _tracing_snapshot(metrics)))
        (requests, builds, memo_run), (_requests, fresh_builds, fresh_run) = runs
        assert builds < requests == fresh_builds
        assert memo_run == fresh_run

    def test_event_engine_stopping_conditions_bypass_the_memo(self, monkeypatch):
        def no_key(*_args):
            raise AssertionError("a run with max_time reached the memo")

        graph = graphs.make_family("er", 16, max_weight=5, seed=0)
        outcomes = []
        for patch_target in ("construction_key", "memoized"):
            with monkeypatch.context() as patch:
                if patch_target == "construction_key":
                    patch.setattr(construction_memo, "construction_key", no_key)
                else:  # the reference: every request builds, no memo at all
                    patch.setattr(
                        boruvka, "memoized",
                        lambda memo, metrics, graph, params, construct: construct(metrics),
                    )
                with simulation_engine("event", max_time=40) as config:
                    _distances, metrics = cssp(graph, [0], metrics=Metrics())
            stats = config.stats
            outcomes.append((stats.stop_reason, stats.virtual_time, metrics.to_dict()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "max_time"

    def test_fault_plane_bypasses_the_memo(self, monkeypatch):
        _requests, builds = _count_forests(monkeypatch)
        memo: dict = {}
        graph = graphs.path_graph(5)
        with simulation_engine("round", faults="crash:1@5000"):
            build_maximal_forest(graph, metrics=Metrics(), memo=memo)
            build_maximal_forest(graph, metrics=Metrics(), memo=memo)
        assert len(builds) == 2 and not memo


class TestDoneCastMemo:
    """The recursion's "everyone done?" convergecast runs on all-True flags,
    so it is a function of the graph and goes through the memo."""

    @pytest.mark.parametrize("name", sorted(FOREST_CASES))
    def test_every_done_flag_is_true(self, name, monkeypatch):
        """The flag ``(u not in V1) or (u in dist1)`` is True for every node
        when each call of the recursion answers every node of its graph:
        ``dist1`` is the answer on the graph induced by ``V1``."""
        calls = []
        real = cssp_module._thresholded_recursive

        def checked(graph, sources, threshold, **kwargs):
            result = real(graph, sources, threshold, **kwargs)
            calls.append(set(result) == set(graph.nodes()))
            return result

        monkeypatch.setattr(cssp_module, "_thresholded_recursive", checked)
        build, sources = FOREST_CASES[name]
        distances, _ = cssp(build(), sources)
        assert len(calls) > 1 and all(calls)
        assert distances == oracle_distances(build(), sources)

    def test_repeated_done_casts_are_run_once(self, monkeypatch):
        build, sources = FOREST_CASES["er-seed0"]
        with monkeypatch.context() as patch:
            requests, builds = _count_done_casts(patch)
            cssp(build(), sources, metrics=Metrics())
        distinct = {construction_memo.construction_key(g) for g in requests}
        assert len(builds) == len(distinct) < len(requests)
        with monkeypatch.context() as patch:
            fresh_requests, fresh_builds = _count_done_casts(patch)
            _always_miss(patch)
            cssp(build(), sources, metrics=Metrics())
        assert len(fresh_builds) == len(fresh_requests) == len(requests)

    def test_apsp_sources_share_done_casts(self, monkeypatch):
        requests, builds = _count_done_casts(monkeypatch)
        apsp(graphs.make_family("er", 12, max_weight=5, seed=4), seed=1)
        assert 0 < len(builds) < len(requests)

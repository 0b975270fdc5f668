"""SSSP public API and the random-delay APSP scheduler."""

import random
import sys
from array import array
from collections import Counter

import pytest

from repro.testing import assert_distances_equal, small_weighted_graph
from repro import graphs
from repro.core.apsp import apsp, schedule_with_random_delays
from repro.core.sssp import sssp, sssp_distances
from repro.graphs import INFINITY
from repro.sim import SendTrace
from repro.sim.kernels import numpy_or_none, use_backend


class TestSSSP:
    def test_distances_match_oracle(self):
        g = small_weighted_graph(22, 1)
        result = sssp(g, 0)
        assert_distances_equal(result.distances, g.dijkstra([0]), "sssp")

    def test_result_accessors(self):
        g = graphs.path_graph(5)
        result = sssp(g, 0)
        assert result.source == 0
        assert result.distance(4) == 4
        assert result.reachable() == set(range(5))
        assert result.rounds > 0
        assert result.messages > 0
        assert result.congestion >= 1

    def test_unreachable_excluded_from_reachable(self):
        from repro.graphs import Graph

        g = Graph.from_edges([(0, 1, 2)], nodes=[5])
        result = sssp(g, 0)
        assert 5 not in result.reachable()
        assert result.distance(5) == INFINITY

    def test_distances_only_helper(self):
        g = graphs.path_graph(4)
        assert sssp_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_deterministic(self):
        g = small_weighted_graph(15, 2)
        a = sssp(g, 0)
        b = sssp(g, 0)
        assert a.distances == b.distances
        assert a.metrics.summary() == b.metrics.summary()


class TestAPSP:
    def test_all_pairs_exact(self):
        g = small_weighted_graph(12, 3)
        result = apsp(g, seed=1)
        for s in g.nodes():
            truth = g.dijkstra([s])
            for v in g.nodes():
                assert result.distance(s, v) == truth[v]

    def test_symmetry(self):
        g = small_weighted_graph(10, 4)
        result = apsp(g, seed=2)
        for u in g.nodes():
            for v in g.nodes():
                assert result.distance(u, v) == result.distance(v, u)

    def test_per_source_results_present(self):
        g = graphs.path_graph(6)
        result = apsp(g, seed=3)
        assert set(result.per_source) == set(g.nodes())

    def test_schedule_feasible_at_log_capacity(self):
        g = small_weighted_graph(16, 5)
        result = apsp(g, seed=4)
        assert result.schedule.feasible, (
            result.schedule.max_slot_load, result.schedule.capacity,
        )

    def test_makespan_at_most_delay_window_plus_duration(self):
        g = small_weighted_graph(10, 6)
        result = apsp(g, seed=5)
        longest = max(r.rounds for r in result.per_source.values())
        assert result.schedule.makespan <= 2 * longest

    def test_concurrent_makespan_beats_sequential(self):
        g = small_weighted_graph(14, 7)
        result = apsp(g, seed=6)
        sequential = sum(r.rounds for r in result.per_source.values())
        assert result.schedule.makespan < sequential / 2


def trace_of(counts: dict) -> SendTrace:
    """A per-event-stamped trace holding ``{((src, dst), round): messages}``."""
    trace = SendTrace()
    for ((src, dst), t), messages in counts.items():
        for _ in range(messages):
            trace.stamp(src, dst, t)
    return trace


def naive_superposition(traces: dict, delays: dict) -> Counter:
    """The slot loads by tuple keys, one send at a time."""
    load: Counter = Counter()
    for instance, trace in traces.items():
        for (edge, t), messages in trace.counts().items():
            load[(edge, t + delays[instance])] += messages
    return load


class TestScheduler:
    def test_single_instance(self):
        traces = {0: trace_of({(("a", "b"), 5): 1})}
        report = schedule_with_random_delays(traces, {0: 10}, window=1, capacity=1, seed=0)
        assert report.makespan == 10
        assert report.max_slot_load == 1
        assert report.feasible

    def test_collision_detection(self):
        trace = trace_of({(("a", "b"), 0): 1})
        traces = {i: trace for i in range(5)}
        report = schedule_with_random_delays(
            traces, {i: 1 for i in range(5)}, window=1, capacity=1, seed=0
        )
        # window=1 forces all delays to 0: five messages share one slot.
        assert report.max_slot_load == 5
        assert not report.feasible

    def test_spreading_with_window(self):
        trace = trace_of({(("a", "b"), 0): 1})
        traces = {i: trace for i in range(20)}
        report = schedule_with_random_delays(
            traces, {i: 1 for i in range(20)}, window=100, capacity=3, seed=1
        )
        assert report.max_slot_load <= 3

    def test_empty(self):
        report = schedule_with_random_delays({}, {}, window=5, capacity=1, seed=0)
        assert report.makespan == 0
        assert report.feasible

    def test_delays_within_window(self):
        traces = {i: SendTrace() for i in range(10)}
        report = schedule_with_random_delays(
            traces, {i: 0 for i in range(10)}, window=7, capacity=1, seed=2
        )
        assert all(0 <= d < 7 for d in report.delays.values())

    def test_edges_are_matched_by_label_not_by_port(self):
        """One edge at different ports of two tables is one edge; two edges
        whose keys would meet at the span boundary stay two."""
        xy = (("x", "y"), ("y", "x"))
        yx = (("y", "x"), ("x", "y"))
        first, second = SendTrace(), SendTrace()
        first.add(0, xy, array("q", [0, 1]), array("q", [9, 0]))
        second.add(0, yx, array("q", [1]), array("q", [9]))
        report = schedule_with_random_delays(
            {0: first, 1: second}, {0: 10, 1: 10}, window=1, capacity=1, seed=0
        )
        assert report.max_slot_load == 2  # ("x", "y") at round 9, twice
        report = schedule_with_random_delays(
            {0: first}, {0: 10}, window=1, capacity=1, seed=0
        )
        assert report.max_slot_load == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_naive_superposition(self, seed):
        """Over 1,000 distinct edges and rounds past 2**20: the integer slot
        keys must count exactly what tuple keys count.

        Slots are dense (two clusters of a few dozen rounds), so a key
        that aliased one slot onto another would raise the worst load.
        Label tables overlap, so one edge sits at different ports in
        different tables.
        """
        rng = random.Random(seed)
        labels = [f"v{k}" for k in range(30)] + list(range(30))
        pool = rng.sample([(u, v) for u in labels for v in labels if u != v], 1500)
        tables = [tuple(rng.sample(pool, 600)) for _ in range(4)]
        traces = {}
        for instance in range(12):
            trace = SendTrace()
            for _ in range(rng.randrange(1, 5)):
                pairs = rng.choice(tables)
                size = rng.randrange(200, 1500)
                rounds = array("q", (rng.randrange(12) for _ in range(size)))
                ports = array("q", (rng.randrange(len(pairs)) for _ in range(size)))
                base = rng.randrange(8) + rng.choice((0, 1 << 20))
                trace.add(base, pairs, ports, rounds)
            if instance % 3 == 0:
                trace.stamp("v1", 2, (1 << 20) + rng.randrange(5))
            # Instances share traces, as memo replays share segments.
            traces[instance] = traces[instance - 5] if instance >= 8 else trace
        edges = {edge for trace in traces.values() for edge, _t in trace.counts()}
        assert len(edges) > 1000
        durations = {i: rng.randrange(1 << 21) for i in traces}
        window = rng.choice((1, 4, 16))
        report = schedule_with_random_delays(
            traces, durations, window=window, capacity=3, seed=seed
        )
        load = naive_superposition(traces, report.delays)
        assert max(t for _edge, t in load) > 1 << 20
        assert report.max_slot_load == max(load.values())
        assert report.makespan == max(report.delays[i] + durations[i] for i in traces)
        rng_delays = random.Random(seed)
        assert report.delays == {i: rng_delays.randrange(window) for i in traces}


def _superposition_cases() -> dict:
    """name -> (traces, durations, window) for the two-path parity test."""
    xy = (("x", "y"), ("y", "x"))
    yx = (("y", "x"), ("x", "y"))
    one = SendTrace()
    one.add(3, xy, array("q", [0, 0, 1]), array("q", [2, 2, 5]))
    first, second = SendTrace(), SendTrace()
    first.add(0, xy, array("q", [0, 1]), array("q", [9, 0]))
    second.add(0, yx, array("q", [1]), array("q", [9]))
    shared = SendTrace()  # two segments over one table object, replayed
    shared.add(0, xy, array("q", [0, 1, 0]), array("q", [0, 0, 1]))
    shared.add(4, xy, array("q", [1, 1]), array("q", [0, 3]))
    late = SendTrace()
    late.add(1 << 20, yx, array("q", [0, 1, 1]), array("q", [5, 5, 6]))
    late.stamp("x", "y", (1 << 20) + 5)
    huge = SendTrace()  # ids * span overflows int64: the Counter path runs
    huge.add(1 << 62, xy, array("q", [0, 1, 1]), array("q", [0, 0, 0]))
    return {
        "empty": ({}, {}, 5),
        "empty-traces": ({0: SendTrace(), 1: SendTrace()}, {0: 3, 1: 0}, 4),
        "one-segment": ({0: one}, {0: 9}, 1),
        "shared-tables": ({i: shared for i in range(6)}, {i: 8 for i in range(6)}, 3),
        "port-vs-label": ({0: first, 1: second}, {0: 10, 1: 10}, 1),
        "past-2**20": ({0: late, 1: late, 2: one}, {0: 1, 1: 2, 2: 3}, 2),
        "int64-fallback": ({0: huge, 1: one}, {0: 1, 1: 1}, 1),
    }


class TestSuperpositionBackends:
    """The numpy path (int64 slot keys, sorted) and the ``Counter`` path
    give the same report; a span past int64 falls back to the Counter."""

    @staticmethod
    def reports(monkeypatch, traces, durations, window, seed=0, capacity=2) -> tuple:
        """The reports under ``numpy`` and ``scalar``, and the numpy calls."""
        apsp_module = sys.modules["repro.core.apsp"]
        calls = []
        real = apsp_module._max_load_numpy

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(apsp_module, "_max_load_numpy", spy)
        out = []
        for backend in ("numpy", "scalar"):
            with use_backend(backend):
                out.append(schedule_with_random_delays(
                    traces, durations, window=window, capacity=capacity, seed=seed
                ))
        return out[0], out[1], len(calls)

    @pytest.mark.parametrize("name", sorted(_superposition_cases()))
    def test_numpy_and_counter_paths_agree(self, name, monkeypatch):
        traces, durations, window = _superposition_cases()[name]
        vector, scalar, numpy_calls = self.reports(monkeypatch, traces, durations, window)
        assert vector == scalar
        assert type(vector.max_slot_load) is int
        load = naive_superposition(traces, scalar.delays)
        assert scalar.max_slot_load == max(load.values(), default=0)
        expected_calls = 0 if numpy_or_none() is None or name == "int64-fallback" else 1
        assert numpy_calls == expected_calls

    def test_a_real_apsp_run(self, monkeypatch):
        result = apsp(graphs.make_family("er", 10, max_weight=5, seed=3), seed=2)
        traces = {s: r.metrics.send_trace for s, r in result.per_source.items()}
        durations = {s: r.rounds for s, r in result.per_source.items()}
        window = max(durations.values())
        vector, scalar, _calls = self.reports(
            monkeypatch, traces, durations, window, seed=2, capacity=result.schedule.capacity
        )
        assert vector == scalar == result.schedule
        assert scalar.max_slot_load == max(naive_superposition(traces, scalar.delays).values())

"""The opt-in send trace on plain Metrics.

The round engine folds the trace from its outbox columns (batch kernels
included); the per-event path stamps it one ``record_send`` call at a
time.  These tests pin the two together on the library's own SSSP, pin the
merge rule, and pin APSP's per-source traces and schedule to digests taken
before the trace moved into the engine.  ``tests/test_runner_differential.py``
checks the fold against the reference engine on synthetic protocols.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro import graphs
from repro.core import apsp, cssp
from repro.graphs import Graph
from repro.sim import Metrics, Mode, NodeAlgorithm, Runner, TracingMetrics
from repro.sim.events import simulation_engine
from repro.sim.kernels import use_backend


def traced() -> Metrics:
    metrics = Metrics()
    metrics.send_trace = Counter()
    return metrics


class TestTracingMetricsAgreesWithTheFold:
    @pytest.mark.parametrize("engine", ["round", "event"])
    def test_tracing_metrics_send_trace_equals_a_plain_runs(self, engine):
        """sssp/er: TracingMetrics takes the per-event path and builds every
        forest; the plain run takes the fast path, kernels and the memo."""
        graph = graphs.make_family("er", 32, 9, seed=0)
        runs = []
        for metrics in (TracingMetrics(), traced()):
            with simulation_engine(engine):
                distances, _ = cssp(graph, [0], metrics=metrics)
            runs.append((distances, metrics))
        (slow_dist, slow), (fast_dist, fast) = runs
        assert slow_dist == fast_dist == graph.dijkstra([0])
        assert slow.send_trace == fast.send_trace
        assert sum(fast.send_trace.values()) == fast.total_messages
        # Same charged cost; only the per-event path stamps current_round.
        slow_row = slow.to_dict()
        slow_row["current_round"] = 0
        assert json.dumps(slow_row) == json.dumps(fast.to_dict())


class Flood(NodeAlgorithm):
    """Broadcast for a few rounds, then halt: traffic for the fault plane."""

    def on_round(self, ctx, inbox):
        if ctx.round >= 6:
            ctx.halt()
            return
        ctx.broadcast(ctx.round)


def test_fault_dropped_sends_are_traced_on_both_paths():
    graph = graphs.random_connected_graph(20, extra_edge_prob=0.2, seed=3)
    runs = []
    for metrics in (TracingMetrics(), traced()):
        metrics.record_rounds(3)
        algorithms = {u: Flood() for u in graph.nodes()}
        Runner(graph, algorithms, Mode.CONGEST, metrics=metrics, faults="drop:0.3").run()
        runs.append(metrics)
    slow, fast = runs
    assert fast.messages_dropped > 0
    assert slow.send_trace == fast.send_trace
    # The trace covers every send edge_messages counts, dropped ones too.
    assert sum(fast.send_trace.values()) == fast.total_messages


class TestMerge:
    def test_sequential_merge_shifts_by_the_clock(self):
        first = traced()
        first.send_trace[((0, 1), 3)] = 1
        first.record_rounds(10)
        second = traced()
        second.send_trace[((0, 1), 3)] = 2
        second.send_trace[((1, 0), 0)] = 1
        second.record_rounds(4)
        first.merge(second)
        assert first.rounds == 14
        assert first.send_trace == Counter(
            {((0, 1), 3): 1, ((0, 1), 13): 2, ((1, 0), 10): 1}
        )

    def test_concurrent_merge_does_not_shift(self):
        first = traced()
        first.record_rounds(10)
        second = traced()
        second.send_trace[((0, 1), 3)] = 2
        second.record_rounds(4)
        first.merge(second, sequential=False)
        assert first.rounds == 10
        assert first.send_trace == Counter({((0, 1), 3): 2})

    def test_trace_needs_both_sides(self):
        plain = Metrics()
        source = traced()
        source.send_trace[((0, 1), 0)] = 1
        plain.merge(source)
        assert plain.send_trace is None
        sink = traced()
        sink.merge(Metrics())
        assert sink.send_trace == Counter()

    def test_copy_keeps_the_trace(self):
        metrics = traced()
        metrics.send_trace[((2, 5), 7)] = 3
        assert metrics.copy().send_trace == metrics.send_trace
        assert Metrics().copy().send_trace is None

    def test_trace_is_never_serialized(self):
        graph = graphs.path_graph(6)
        plain, tracing = Metrics(), traced()
        cssp(graph, [0], metrics=plain)
        cssp(graph, [0], metrics=tracing)
        assert tracing.send_trace
        assert json.dumps(tracing.to_dict()) == json.dumps(plain.to_dict())
        assert Metrics.from_dict(tracing.to_dict()).send_trace is None


# ---------------------------------------------------------------------------
# APSP: per-source traces and the random-delay schedule
# ---------------------------------------------------------------------------

# name -> (graph builder, sha256 of every per-source trace plus the schedule).
# Taken when APSP still traced through a per-event Metrics subclass, so
# they pin the engine fold and the forest memo to that path's bytes.
APSP_CASES = {
    "er": (
        lambda: graphs.make_family("er", 12, max_weight=5, seed=3),
        "ea40ff2888f573d70589eb056b1d76762b172c2004081405c0b82cb8bde16735",
    ),
    "grid": (
        lambda: graphs.random_weights(graphs.grid_graph(3, 4), 4, seed=1),
        "407607736066c4c9ef37177b8bcc2e1981668ebd44ed1b5d226544cac94041e5",
    ),
    "zero-weights": (
        lambda: Graph.from_edges(
            [(0, 1, 0), (1, 2, 3), (2, 3, 0), (3, 4, 2), (4, 0, 1),
             (2, 5, 1), (5, 6, 0), (6, 3, 4)]
        ),
        "b22eec720a2f37e67fb027263b325945ac448f3d524bc837a1f2c52f435840f6",
    ),
}


def apsp_digest(result) -> str:
    schedule = result.schedule
    blob = {
        "traces": [
            [
                repr(source),
                sorted(
                    [src, dst, t, count]
                    for ((src, dst), t), count in run.metrics.send_trace.items()
                ),
            ]
            for source, run in sorted(result.per_source.items(), key=lambda kv: repr(kv[0]))
        ],
        "delays": sorted([repr(s), d] for s, d in schedule.delays.items()),
        "makespan": schedule.makespan,
        "max_slot_load": schedule.max_slot_load,
        "capacity": schedule.capacity,
    }
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()


@pytest.mark.parametrize("backend", ["numpy", "scalar"])
@pytest.mark.parametrize("engine", ["round", "event"])
@pytest.mark.parametrize("name", sorted(APSP_CASES))
def test_apsp_traces_and_schedule_match_the_pinned_digests(name, engine, backend):
    build, digest = APSP_CASES[name]
    with use_backend(backend), simulation_engine(engine):
        result = apsp(build(), seed=2)
    assert apsp_digest(result) == digest
    for run in result.per_source.values():
        assert type(run.metrics) is Metrics
        assert sum(run.metrics.send_trace.values()) == run.metrics.total_messages

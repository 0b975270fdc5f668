"""The opt-in send trace, and the TracingMetrics profiles read off it.

The engines hand the trace their outbox columns as one send segment per
run and their awake counts as one wake segment (batch kernels included).
These tests pin TracingMetrics' profiles through merges, copies and the
fault plane, pin the merge rule against a naive ``Counter`` model built
from the protocol's own send and wake log, and pin APSP's per-source
traces and schedule to digests taken before the trace moved into the
engine.  ``tests/test_runner_differential.py`` checks the engine's
columns against the reference engine on synthetic protocols.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro import graphs
from repro.core import apsp, cssp
from repro.graphs import Graph
from repro.sim import (
    EventRunner, Metrics, Mode, NodeAlgorithm, RandomDelayLatency, Runner, SendTrace,
    TracingMetrics,
)
from repro.sim.events import simulation_engine
from repro.sim.memo import construction_key, memoized
from repro.sim.kernels import use_backend


def traced() -> Metrics:
    metrics = Metrics()
    metrics.send_trace = SendTrace()
    return metrics


def per_round(trace: SendTrace) -> Counter:
    """The trace's send counts summed over edges, by round."""
    out: Counter = Counter()
    for (_edge, t), count in trace.counts().items():
        out[t] += count
    return out


class TestTracingMetricsAgreesWithTheFold:
    @pytest.mark.parametrize("engine", ["round", "event"])
    def test_tracing_metrics_send_trace_equals_a_plain_runs(self, engine):
        """sssp/er: a TracingMetrics run and a plain traced run take the
        same folds, kernels and memo, and charge the same cost; the
        profiles are the plain trace summed by round."""
        graph = graphs.make_family("er", 32, 9, seed=0)
        runs = []
        for metrics in (TracingMetrics(), traced()):
            with simulation_engine(engine):
                distances, _ = cssp(graph, [0], metrics=metrics)
            runs.append((distances, metrics))
        (tracing_dist, tracing), (plain_dist, plain) = runs
        assert tracing_dist == plain_dist == graph.dijkstra([0])
        assert tracing.send_trace.counts() == plain.send_trace.counts()
        assert sum(plain.send_trace.counts().values()) == plain.total_messages
        assert tracing.messages_by_round == per_round(plain.send_trace)
        assert tracing.awake_by_round == plain.send_trace.wakes()
        assert json.dumps(tracing.to_dict()) == json.dumps(plain.to_dict())


class Flood(NodeAlgorithm):
    """Broadcast for a few rounds, then halt: traffic for the fault plane."""

    def on_round(self, ctx, inbox):
        if ctx.round >= 6:
            ctx.halt()
            return
        ctx.broadcast(ctx.round)


def flood(metrics, faults=None):
    """Flood on a fixed 20-node graph into ``metrics``; returns the graph."""
    graph = graphs.random_connected_graph(20, extra_edge_prob=0.2, seed=3)
    algorithms = {u: Flood() for u in graph.nodes()}
    Runner(graph, algorithms, Mode.CONGEST, metrics=metrics, faults=faults).run()
    return graph


def test_fault_dropped_sends_are_traced_on_both_paths():
    """A TracingMetrics and a plain traced Metrics, the two ways to ask
    for a trace, both keep every send the fault plane drops."""
    runs = []
    for metrics in (TracingMetrics(), traced()):
        metrics.record_rounds(3)
        flood(metrics, faults="drop:0.3")
        runs.append(metrics)
    tracing, plain = runs
    assert plain.messages_dropped == tracing.messages_dropped > 0
    assert tracing.send_trace.counts() == plain.send_trace.counts()
    # The trace covers every send edge_messages counts, dropped ones too.
    assert sum(plain.send_trace.counts().values()) == plain.total_messages
    assert tracing.messages_by_round == per_round(plain.send_trace)


class TestTracingMetricsProfiles:
    """Flood's own schedule is the oracle: every node broadcasts in rounds
    0..5 and halts in round 6, whatever the fault plane drops."""

    def test_merge_keeps_both_profiles(self):
        first, second = TracingMetrics(), TracingMetrics()
        graph = flood(first)
        flood(second)
        first.merge(second)
        sends = 2 * graph.num_edges
        assert first.total_messages == 12 * sends == 1128
        assert first.messages_by_round == Counter(
            {r + shift: sends for r in range(6) for shift in (0, 7)}
        )
        assert first.awake_by_round == Counter({r: 20 for r in range(14)})
        assert sum(first.awake_rounds.values()) == 280

    def test_fault_dropped_sends_are_in_the_profile(self):
        metrics = TracingMetrics()
        metrics.record_rounds(3)
        graph = flood(metrics, faults="drop:0.3")
        assert metrics.messages_dropped > 0
        sends = 2 * graph.num_edges
        assert metrics.messages_by_round == Counter({r + 3: sends for r in range(6)})
        assert sum(metrics.send_trace.counts().values()) == metrics.total_messages == 564


class TestMerge:
    def test_sequential_merge_shifts_by_the_clock(self):
        first = traced()
        first.send_trace.stamp(0, 1, 3)
        first.record_rounds(10)
        second = traced()
        second.send_trace.stamp(0, 1, 3)
        second.send_trace.stamp(0, 1, 3)
        second.send_trace.stamp(1, 0, 0)
        second.record_rounds(4)
        first.merge(second)
        assert first.rounds == 14
        assert first.send_trace.counts() == Counter(
            {((0, 1), 3): 1, ((0, 1), 13): 2, ((1, 0), 10): 1}
        )

    def test_concurrent_merge_does_not_shift(self):
        first = traced()
        first.record_rounds(10)
        second = traced()
        second.send_trace.stamp(0, 1, 3)
        second.send_trace.stamp(0, 1, 3)
        second.record_rounds(4)
        first.merge(second, sequential=False)
        assert first.rounds == 10
        assert first.send_trace.counts() == Counter({((0, 1), 3): 2})

    def test_trace_needs_both_sides(self):
        plain = Metrics()
        source = traced()
        source.send_trace.stamp(0, 1, 0)
        plain.merge(source)
        assert plain.send_trace is None
        sink = traced()
        sink.merge(Metrics())
        assert sink.send_trace.counts() == Counter()

    def test_copy_keeps_the_trace(self):
        metrics = traced()
        for _ in range(3):
            metrics.send_trace.stamp(2, 5, 7)
        assert metrics.copy().send_trace.counts() == metrics.send_trace.counts()
        assert Metrics().copy().send_trace is None

    def test_trace_is_never_serialized(self):
        graph = graphs.path_graph(6)
        plain, tracing = Metrics(), traced()
        cssp(graph, [0], metrics=plain)
        cssp(graph, [0], metrics=tracing)
        assert tracing.send_trace.counts()
        assert json.dumps(tracing.to_dict()) == json.dumps(plain.to_dict())
        assert Metrics.from_dict(tracing.to_dict()).send_trace is None


# ---------------------------------------------------------------------------
# The trace algebra against a naive Counter model
# ---------------------------------------------------------------------------


class Chatter(NodeAlgorithm):
    """Seeded broadcasts and bursts of unicasts, then naps; halts at a horizon.

    What a node sends depends only on its own seed and round, so every
    engine sees the same sends for the same schedule.  Each step appends
    ``("wake", round)`` to ``log`` and each send ``((src, dst), round)``,
    a broadcast once per neighbor.
    """

    def __init__(self, node, seed: int, burst: int, horizon: int, log: list) -> None:
        self.rng = random.Random(seed * 7919 + node)
        self.burst = burst
        self.horizon = horizon
        self.log = log

    def on_round(self, ctx, inbox):
        log = self.log
        log.append(("wake", ctx.round))
        if ctx.round >= self.horizon:
            ctx.halt()
            return
        rng = self.rng
        if rng.random() < 0.4:
            ctx.broadcast(ctx.round)
            log.extend(((ctx.node, v), ctx.round) for v in ctx.neighbors)
            unicasts = self.burst - 1
        else:
            unicasts = self.burst
        for v in ctx.neighbors:
            for _ in range(rng.randrange(unicasts + 1)):
                ctx.send(v, ctx.round)
                log.append(((ctx.node, v), ctx.round))
        ctx.wake_at(ctx.round + 1 + rng.randrange(3))


class Model:
    """A naive accumulator: a clock and two Counters, shifted entry by entry.

    ``stamps`` counts sends by ``((src, dst), round)``, ``wakes`` awake
    nodes by round.
    """

    def __init__(self, clock: int = 0, stamps: Counter | None = None,
                 wakes: Counter | None = None) -> None:
        self.clock = clock
        self.stamps = Counter() if stamps is None else stamps
        self.wakes = Counter() if wakes is None else wakes

    def merge(self, other: "Model", sequential: bool) -> None:
        shift = self.clock if sequential else 0
        for (edge, t), count in other.stamps.items():
            self.stamps[(edge, t + shift)] += count
        for t, count in other.wakes.items():
            self.wakes[t + shift] += count
        self.clock = self.clock + other.clock if sequential else max(self.clock, other.clock)

    def copy(self) -> "Model":
        return Model(self.clock, Counter(self.stamps), Counter(self.wakes))


def random_execution(rng: random.Random):
    """One seeded execution: ``run(metrics)`` runs it into ``metrics``."""
    graph = graphs.random_connected_graph(
        rng.randrange(4, 12), extra_edge_prob=rng.choice([0.0, 0.3]), seed=rng.randrange(1000)
    )
    seed = rng.randrange(1000)
    burst = rng.choice([1, 1, 2, 3])
    width = rng.choice([1, burst])
    horizon = rng.randrange(2, 9)
    mode = rng.choice([Mode.CONGEST, Mode.SLEEPING])
    engine = rng.choice(["round", "event", "event-delayed"])

    def run(metrics, log=None):
        log = [] if log is None else log
        algorithms = {u: Chatter(u, seed, burst, horizon, log) for u in graph.nodes()}
        kwargs = dict(metrics=metrics, round_width=width, edge_capacity=burst)
        if engine == "round":
            Runner(graph, algorithms, mode, **kwargs).run()
        else:
            latency = RandomDelayLatency(3, seed=seed) if engine == "event-delayed" else None
            EventRunner(graph, algorithms, mode, latency=latency, **kwargs).run()
        return seed

    return graph, (seed, burst, width, horizon, mode, engine), run


def modelled(run, width: int) -> Model:
    """What ``run`` costs by the naive model, from the protocol's own log.

    The clock is one past the last round any node stepped, in real rounds.
    """
    log: list = []
    run(Metrics(), log)
    wakes = Counter(t for kind, t in log if kind == "wake")
    stamps = Counter(entry for entry in log if entry[0] != "wake")
    return Model((max(wakes) + 1) * width if wakes else 0, stamps, wakes)


def column_snapshot(trace: SendTrace) -> dict:
    """Every segment's columns by identity, with their contents."""
    snapshot = {
        id(ports): (ports, rounds, pairs, ports.tobytes(), rounds.tobytes(), tuple(pairs))
        for _base, pairs, ports, rounds in trace.segments
    }
    snapshot.update(
        (id(counts), (counts, rounds, (), counts.tobytes(), rounds.tobytes(), ()))
        for _base, rounds, counts in trace.wake_segments
    )
    return snapshot


class TestTraceAlgebraAgainstANaiveModel:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs(self, seed):
        rng = random.Random(seed)
        memo: dict = {}
        executions = [random_execution(rng) for _ in range(4)]
        pool = []  # (real accumulator, naive model)
        seen: dict = {}  # id(ports) -> snapshot of every segment ever read

        def fresh():
            real = TracingMetrics() if rng.random() < 0.25 else traced()
            return real, Model()

        pool.extend(fresh() for _ in range(3))
        hits = 0
        for _step in range(32):
            op = rng.choice(["run", "run", "replay", "replay", "replay", "merge", "merge",
                             "copy", "new"])
            index = rng.randrange(len(pool))
            real, model = pool[index]
            if op == "run":
                graph, params, run = rng.choice(executions)
                delta = modelled(run, params[2])
                run(real)
                model.merge(delta, sequential=True)
            elif op == "replay":
                graph, params, run = rng.choice(executions[:2])
                delta = modelled(run, params[2])
                before = len(real.send_trace.segments)
                wakes_before = len(real.send_trace.wake_segments)
                key = (construction_key(graph, *params), None, True)
                hit = key in memo
                assert memoized(memo, real, graph, params, run) == params[0]
                model.merge(delta, sequential=True)
                if hit:
                    # The stored cost's segments are shared, not copied.
                    hits += 1
                    _value, cost = memo[key]
                    added = real.send_trace.segments[before:]
                    stored = cost.send_trace.segments
                    assert len(added) == len(stored)
                    for (_b, pairs, ports, rounds), (_sb, spairs, sports, srounds) in zip(
                        added, stored
                    ):
                        assert pairs is spairs and ports is sports and rounds is srounds
                    added = real.send_trace.wake_segments[wakes_before:]
                    stored = cost.send_trace.wake_segments
                    assert len(added) == len(stored) > 0
                    for (_b, rounds, counts), (_sb, srounds, scounts) in zip(added, stored):
                        assert rounds is srounds and counts is scounts
            elif op == "merge":
                other = rng.choice([k for k in range(len(pool)) if k != index])
                sequential = rng.random() < 0.6
                real.merge(pool[other][0], sequential=sequential)
                model.merge(pool[other][1], sequential=sequential)
            elif op == "copy":
                pool.append((real.copy(), model.copy()))
            else:
                pool.append(fresh())
            for real, model in pool:
                assert real.rounds == model.clock
                assert real.send_trace.counts() == model.stamps
                assert real.send_trace.wakes() == model.wakes
                assert sum(model.stamps.values()) == real.total_messages
                if isinstance(real, TracingMetrics):
                    assert real.awake_by_round == model.wakes
                    assert sum(real.messages_by_round.values()) == real.total_messages
                seen.update(column_snapshot(real.send_trace))
        assert hits  # the program replayed a stored cost at least once
        # No run, merge, copy or replay rewrote a segment once it was read.
        for ports, rounds, pairs, port_bytes, round_bytes, pair_tuple in seen.values():
            assert ports.tobytes() == port_bytes and rounds.tobytes() == round_bytes
            assert tuple(pairs) == pair_tuple


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
                    for ((src, dst), t), count in run.metrics.send_trace.counts().items()
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
        assert sum(run.metrics.send_trace.counts().values()) == run.metrics.total_messages

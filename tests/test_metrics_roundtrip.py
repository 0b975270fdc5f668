"""Metrics (de)serialization: lossless round-trips through dict and JSON."""

import json
import random
from collections import Counter

import pytest

from repro.sim import Metrics, TracingMetrics


def random_metrics(rng: random.Random, nodes: int = 12) -> Metrics:
    """A randomly-populated accumulator exercising every recorded field."""
    m = Metrics()
    for _ in range(rng.randrange(0, 60)):
        src, dst = rng.randrange(nodes), rng.randrange(nodes)
        m.record_send(src, dst, delivered=rng.random() < 0.9)
    for _ in range(rng.randrange(0, 30)):
        m.record_awake(rng.randrange(nodes), rounds=rng.randrange(1, 4))
    for _ in range(rng.randrange(0, 20)):
        m.record_participation(rng.randrange(nodes))
    m.record_rounds(rng.randrange(0, 50))
    m.current_round = rng.randrange(0, 10)
    return m


def assert_equivalent(a: Metrics, b: Metrics) -> None:
    assert a.summary() == b.summary()
    assert a.rounds == b.rounds
    assert a.total_messages == b.total_messages
    assert a.lost_messages == b.lost_messages
    assert a.current_round == b.current_round
    assert a.edge_messages == b.edge_messages
    assert a.awake_rounds == b.awake_rounds
    assert a.subproblem_participation == b.subproblem_participation


class TestRoundTrip:
    @pytest.mark.parametrize("trial", range(25))
    def test_dict_round_trip_is_lossless(self, trial):
        m = random_metrics(random.Random(1000 + trial))
        assert_equivalent(Metrics.from_dict(m.to_dict()), m)

    @pytest.mark.parametrize("trial", range(25))
    def test_json_round_trip_is_lossless(self, trial):
        m = random_metrics(random.Random(2000 + trial))
        assert_equivalent(Metrics.from_dict(json.loads(json.dumps(m.to_dict()))), m)

    def test_empty_metrics_round_trip(self):
        assert_equivalent(Metrics.from_dict(Metrics().to_dict()), Metrics())

    def test_to_dict_is_insertion_order_independent(self):
        a, b = Metrics(), Metrics()
        for src, dst in [(0, 1), (2, 3), (1, 0)]:
            a.record_send(src, dst, True)
        for src, dst in [(1, 0), (0, 1), (2, 3)]:
            b.record_send(src, dst, True)
        for node in (5, 3):
            a.record_awake(node)
        for node in (3, 5):
            b.record_awake(node)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


class TestFoldingProperty:
    """Serialization commutes with folding: the four complexity currencies
    of a sequential merge are preserved whether the fold happens before or
    after a (de)serialization round-trip."""

    @pytest.mark.parametrize("trial", range(20))
    def test_fold_then_serialize_equals_serialize_then_fold(self, trial):
        rng = random.Random(3000 + trial)
        phases = [random_metrics(rng) for _ in range(rng.randrange(1, 5))]

        folded = Metrics()
        for phase in phases:
            folded.merge(phase)

        refolded = Metrics()
        for phase in phases:
            refolded.merge(Metrics.from_dict(json.loads(json.dumps(phase.to_dict()))))

        assert_equivalent(refolded, folded)
        # The four currencies, explicitly (rounds/messages/congestion/energy).
        assert refolded.rounds == folded.rounds
        assert refolded.total_messages == folded.total_messages
        assert refolded.max_congestion == folded.max_congestion
        assert refolded.max_energy == folded.max_energy

    @pytest.mark.parametrize("trial", range(10))
    def test_concurrent_fold_survives_round_trip(self, trial):
        rng = random.Random(4000 + trial)
        phases = [random_metrics(rng) for _ in range(3)]
        folded, refolded = Metrics(), Metrics()
        for phase in phases:
            folded.merge(phase, sequential=False)
            refolded.merge(Metrics.from_dict(phase.to_dict()), sequential=False)
        assert_equivalent(refolded, folded)

    def test_real_execution_metrics_round_trip(self):
        from repro import graphs, sssp

        g = graphs.random_weights(graphs.random_connected_graph(16, seed=3), 9, seed=4)
        metrics = sssp(g, 0).metrics
        assert_equivalent(Metrics.from_dict(json.loads(json.dumps(metrics.to_dict()))), metrics)


class TestCopy:
    @pytest.mark.parametrize("trial", range(10))
    def test_copy_serializes_like_the_original(self, trial):
        m = random_metrics(random.Random(3000 + trial))
        assert m.copy().to_dict() == m.to_dict()

    def test_copy_of_a_tracing_run_keeps_its_profiles(self):
        from repro import graphs
        from repro.core.cssp import cssp
        from repro.sim import TracingMetrics

        t = TracingMetrics()
        cssp(graphs.make_family("er", 12, max_weight=5, seed=3), {0: 0}, metrics=t)
        copied = t.copy()
        assert type(copied) is TracingMetrics
        assert copied.to_dict() == t.to_dict()
        assert copied.messages_by_round == t.messages_by_round
        assert copied.awake_by_round == t.awake_by_round
        assert copied.send_trace.counts() == t.send_trace.counts()
        assert sum(copied.messages_by_round.values()) == t.total_messages > 0


def filled(make, nodes, seed: int) -> Metrics:
    """``make()`` with sends, wakes and participations among ``nodes``."""
    rng = random.Random(seed)
    m = make()
    for _ in range(200):
        m.record_send(rng.choice(nodes), rng.choice(nodes), delivered=True)
        m.record_awake(rng.choice(nodes), rounds=rng.randrange(1, 4))
        m.record_participation(rng.choice(nodes))
    return m


def counter_items(metrics: Metrics) -> list:
    """Each counter's items in insertion order (dict equality ignores order)."""
    return [
        list(metrics.edge_messages.items()),
        list(metrics.awake_rounds.items()),
        list(metrics.subproblem_participation.items()),
    ]


# case -> target maker; every case merges the same ``other`` (nodes 0..39).
MERGE_TARGETS = {
    "empty-target": Metrics,
    "disjoint": lambda: filled(Metrics, range(40, 80), 2),
    "overlapping": lambda: filled(Metrics, range(20, 60), 2),
    "tracing": lambda: filled(TracingMetrics, range(20, 60), 2),
}


class TestMergeMatchesCounterUpdate:
    """``Metrics.merge`` adds counters in a C-level loop; it must leave the
    same counts, in the same key order, as ``Counter.update``."""

    @pytest.mark.parametrize("case", sorted(MERGE_TARGETS))
    def test_same_counts_and_key_order(self, case):
        other = filled(Metrics, range(40), 1)
        merged, reference = MERGE_TARGETS[case](), MERGE_TARGETS[case]()
        shared = set(merged.awake_rounds) & set(other.awake_rounds)
        assert bool(shared) == (case in ("overlapping", "tracing"))
        merged.merge(other)
        reference.edge_messages.update(other.edge_messages)
        reference.awake_rounds.update(other.awake_rounds)
        reference.subproblem_participation.update(other.subproblem_participation)
        assert counter_items(merged) == counter_items(reference)
        assert type(merged.edge_messages) is Counter

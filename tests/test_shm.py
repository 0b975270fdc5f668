"""Shared-memory graph plane: round-trip and cleanup guarantees.

Covers the segment lifecycle (publish -> worker attach -> supervisor
unlink), byte-identity of the attached graph (adjacency order, labels,
weights, and the seeded indexed view all match the publisher's), and the
cleanup contract: no segment survives a finished sweep, a crashed worker,
a timeout-killed worker, or a KeyboardInterrupt — the leak paths the
PR 5 interrupted-shard scenario exercises for the store layer.

Fault drivers are module-level functions (fork-started workers inherit
them with the registry); registrations happen under the ``registry``
fixture so the shared catalog never grows a crashing scenario.
"""

import os
import time

import pytest

from repro.api import (
    AlgorithmSpec,
    SweepSpec,
    is_failure,
    register_algorithm_spec,
    run_sweep_spec,
)
from repro.graphs.generators import random_connected_graph
from repro.graphs.indexed import IndexedGraph
from repro.sim import experiments, shm
from repro.sim.experiments import Scenario, register_scenario


def _crash(graph, seed, metrics):
    os._exit(23)


def _hang(graph, seed, metrics):
    time.sleep(3600)


def _interrupt(graph, seed, metrics):
    raise KeyboardInterrupt


@pytest.fixture
def registry():
    """Snapshot/restore the scenario + algorithm registries around a test."""
    from repro.api import algorithms

    scenarios = dict(experiments._SCENARIOS)
    algos = dict(algorithms._SPECS)
    yield
    experiments._SCENARIOS.clear()
    experiments._SCENARIOS.update(scenarios)
    algorithms._SPECS.clear()
    algorithms._SPECS.update(algos)


def register_fault(scenario_name: str, driver) -> Scenario:
    algo = scenario_name.split("/")[0]
    register_algorithm_spec(AlgorithmSpec(algo, driver))
    return register_scenario(Scenario(scenario_name, "path", algo))


def _segments() -> set:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # platform without /dev/shm
        return set()


@pytest.fixture
def no_leaks():
    """Assert the test leaves /dev/shm and the publish registry clean."""
    before = _segments()
    yield
    assert shm.active_segments() == []
    assert _segments() - before == set()


pytestmark = pytest.mark.skipif(not shm.available(), reason="no shared memory")


def assert_same_graph(attached, graph):
    assert list(attached.nodes()) == list(graph.nodes())
    for u in graph.nodes():
        # Insertion order AND weights — drivers iterate by label.
        assert list(attached.neighbors(u)) == list(graph.neighbors(u))
        assert all(
            attached.weight(u, v) == graph.weight(u, v)
            for v in graph.neighbors(u)
        )
    assert attached.num_edges == graph.num_edges
    a, b = IndexedGraph.of(attached), IndexedGraph.of(graph)
    assert (a.labels, a.indptr, a.nbr, a.wt) == (b.labels, b.indptr, b.nbr, b.wt)


class TestRoundTrip:
    def test_attached_graph_is_byte_identical(self, no_leaks):
        graph = random_connected_graph(40, 0.1, seed=9)
        handle = shm.publish_graph(graph)
        assert handle is not None
        assert shm.active_segments() == [handle.name]
        try:
            attached = shm.attach_graph(handle.name)
            assert attached is not None
            assert_same_graph(attached, graph)
        finally:
            handle.unlink()
        assert shm.active_segments() == []

    def test_attach_leaves_the_segment_to_its_publisher(self, no_leaks):
        # Only the publisher unlinks.  A worker that unlinked on attach
        # would make every later attach by name fail, and each of those
        # cells would silently fall back to building its graph locally.
        from multiprocessing import shared_memory

        handle = shm.publish_graph(random_connected_graph(8, 0.4, seed=3))
        try:
            assert shm.attach_graph(handle.name) is not None
            again = shared_memory.SharedMemory(name=handle.name)
            again.close()
        finally:
            handle.unlink()

    def test_attach_closes_the_segment_it_opens(self, no_leaks, monkeypatch):
        # A worker keeps no segment mapped past the attach, and the graph
        # it returns owns its data: it still equals the publisher's after
        # the segment is gone.
        from multiprocessing import shared_memory

        opened, closed = [], []

        class Recording(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

            def close(self):
                closed.append(self)
                super().close()

        graph = random_connected_graph(30, 0.15, seed=4)
        handle = shm.publish_graph(graph)
        monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
        try:
            attached = [shm.attach_graph(handle.name) for _ in range(3)]
        finally:
            handle.unlink()
        assert len(opened) == 3
        assert closed == opened
        for copy in attached:
            assert_same_graph(copy, graph)

    def test_unlink_is_idempotent(self, no_leaks):
        handle = shm.publish_graph(random_connected_graph(6, 0.5, seed=0))
        handle.unlink()
        handle.unlink()  # second unlink must not raise
        assert shm.active_segments() == []

    def test_attach_missing_segment_returns_none(self, no_leaks):
        assert shm.attach_graph("psm_definitely_not_there") is None

    def test_group_builds_its_graph_when_segment_is_gone(self, no_leaks, monkeypatch):
        # A worker that cannot attach its group's segment builds the graph
        # locally; the rows cannot tell.  Workers fork after the patch.
        spec = dict(TestSweepCleanup.SPEC)
        serial = run_sweep_spec(SweepSpec(**spec, workers=1))
        monkeypatch.setattr(shm, "attach_graph", lambda name: None)
        assert run_sweep_spec(SweepSpec(**spec, workers=3)) == serial


class TestSweepCleanup:
    SPEC = dict(scenarios=("sssp/path", "bfs/grid"), sizes=(9, 16), seeds=(0, 1))

    def test_parallel_rows_match_serial_and_segments_unlinked(self, no_leaks):
        serial = run_sweep_spec(SweepSpec(**self.SPEC, workers=1))
        parallel = run_sweep_spec(SweepSpec(**self.SPEC, workers=3))
        assert parallel == serial
        assert shm.active_segments() == []

    def test_worker_crash_leaves_no_segment(self, registry, no_leaks):
        register_fault("test-shm-crash/path", _crash)
        spec = SweepSpec(scenarios=("test-shm-crash/path", "bfs/grid"),
                         sizes=(9, 16), seeds=(0,), workers=2, max_retries=0)
        rows = run_sweep_spec(spec)
        assert any(is_failure(row) for row in rows)
        assert shm.active_segments() == []

    def test_timeout_killed_worker_leaves_no_segment(self, registry, no_leaks):
        register_fault("test-shm-hang/path", _hang)
        spec = SweepSpec(scenarios=("test-shm-hang/path", "bfs/grid"),
                         sizes=(9, 16), seeds=(0,), workers=2,
                         max_retries=0, task_timeout=0.3)
        rows = run_sweep_spec(spec)
        assert any(is_failure(row) for row in rows)
        assert shm.active_segments() == []

    def test_interrupt_unwinds_and_unlinks(self, registry, no_leaks, tmp_path):
        register_fault("test-shm-interrupt/path", _interrupt)
        spec = SweepSpec(scenarios=("test-shm-interrupt/path", "bfs/grid"),
                         sizes=(9, 16), seeds=(0,), workers=2, max_retries=0,
                         output=str(tmp_path / "rows.jsonl"))
        run_sweep_spec(spec)  # worker deaths become failed rows, not raises
        assert shm.active_segments() == []

    def test_supervisor_interrupt_mid_sweep_unlinks(self, no_leaks, monkeypatch):
        # Simulate Ctrl-C landing in the supervisor itself after segments
        # are published: the dispatcher raises and the finally must unlink.
        from repro.api import run as run_mod

        def boom(*args, **kwargs):
            assert shm.active_segments() != []  # segments were published
            raise KeyboardInterrupt

        monkeypatch.setattr(run_mod, "_run_groups_supervised", boom)
        with pytest.raises(KeyboardInterrupt):
            run_sweep_spec(SweepSpec(**self.SPEC, workers=3))
        assert shm.active_segments() == []

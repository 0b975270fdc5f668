"""Zero-copy shared-memory graph plane: round-trip and cleanup guarantees.

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
    register_algorithm_spec(AlgorithmSpec(algo, entry_point="", driver=driver))
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
    experiments._SHM_ATTACH.clear()
    assert shm.active_segments() == []
    assert _segments() - before == set()


pytestmark = pytest.mark.skipif(not shm.available(), reason="no shared memory")


class TestRoundTrip:
    def test_attached_graph_is_byte_identical(self, no_leaks):
        graph = random_connected_graph(40, 0.1, seed=9)
        handle = shm.publish_graph(graph)
        assert handle is not None
        assert shm.active_segments() == [handle.name]
        try:
            attached = shm.attach_graph(handle.name)
            assert attached is not None
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
            assert (a.labels, a.indptr, a.nbr, a.wt) == (
                b.labels, b.indptr, b.nbr, b.wt)
        finally:
            handle.unlink()
        assert shm.active_segments() == []

    def test_attached_csr_views_are_zero_copy_and_read_only(self, no_leaks):
        np = pytest.importorskip("numpy")
        graph = random_connected_graph(12, 0.3, seed=1)
        handle = shm.publish_graph(graph)
        try:
            attached = shm.attach_graph(handle.name)
            csr = IndexedGraph.of(attached).csr()
            assert csr is not None
            indptr, nbr, wt = csr
            assert not indptr.flags.writeable
            assert nbr.tolist() == IndexedGraph.of(graph).nbr
            with pytest.raises(ValueError):
                wt[0] = 99
        finally:
            handle.unlink()

    def test_unlink_is_idempotent(self, no_leaks):
        handle = shm.publish_graph(random_connected_graph(6, 0.5, seed=0))
        handle.unlink()
        handle.unlink()  # second unlink must not raise
        assert shm.active_segments() == []

    def test_attach_missing_segment_returns_none(self, no_leaks):
        assert shm.attach_graph("psm_definitely_not_there") is None

    def test_cached_graph_falls_back_when_segment_is_gone(self, no_leaks):
        scenario = experiments.get_scenario("sssp/path")
        key = experiments._instance_key(scenario, 9, 0)
        experiments.clear_graph_cache()
        experiments._SHM_ATTACH[key] = "psm_definitely_not_there"
        try:
            graph = experiments._cached_graph(scenario, 9, 0)
        finally:
            experiments._SHM_ATTACH.clear()
            experiments.clear_graph_cache()
        assert graph.num_nodes == 9  # built locally, attach was a no-op


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

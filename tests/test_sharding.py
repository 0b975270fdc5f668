"""Sharded sweeps and the fault-tolerant supervised executor.

Covers the shard lifecycle (partition -> per-shard stores -> merge -> the
canonical table), the supervised dispatcher's fault paths (dead workers
retried on fresh processes, stuck workers killed at the deadline, retry
budgets exhausted into ``failed`` rows), and the interrupt/exception
guarantees (stores always flush and close, resume retries exactly the
missing and failed cells).

Fault drivers are module-level functions (fork-started workers inherit
them with the registry), but every *registration* happens inside a test
under the ``registry`` fixture, which snapshots and restores the global
scenario/algorithm registries — the smoke catalog other tests see must
never grow a crashing scenario as a side effect.
"""

import json
import os
import time

import pytest

from repro.api import (
    AlgorithmSpec,
    ResultSet,
    SpecError,
    SweepSpec,
    cell_key,
    failure_record,
    find_shard_stores,
    is_failure,
    merge_shards,
    register_algorithm_spec,
    run_sweep_spec,
    shard_store_path,
    shard_store_paths,
)
from repro.api.shard import partition_cells, shard_cells
from repro.sim.experiments import (
    Scenario,
    SweepError,
    register_scenario,
)

SCENARIOS = ("bfs/grid", "bellman-ford/er", "sssp/er")
SPEC = SweepSpec(scenarios=SCENARIOS, sizes=(9, 16), seeds=(0, 1))


# ----------------------------------------------------------------------
# fault-injection drivers (registered per-test via the registry fixture)
# ----------------------------------------------------------------------
def _crash_once(graph, seed, metrics, sentinel=""):
    """Kill the whole worker process the first time any process runs this."""
    if sentinel and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(17)


def _always_crash(graph, seed, metrics):
    os._exit(23)


def _raise_mid_sweep(graph, seed, metrics):
    raise RuntimeError("injected driver failure")


def _hang(graph, seed, metrics):
    time.sleep(3600)


def _interrupt(graph, seed, metrics):
    raise KeyboardInterrupt


@pytest.fixture
def registry():
    """Snapshot/restore the scenario + algorithm registries around a test."""
    from repro.api import algorithms
    from repro.sim import experiments

    scenarios = dict(experiments._SCENARIOS)
    algos = dict(algorithms._SPECS)
    yield
    experiments._SCENARIOS.clear()
    experiments._SCENARIOS.update(scenarios)
    algorithms._SPECS.clear()
    algorithms._SPECS.update(algos)


def register_fault(scenario_name: str, driver, params: tuple = ()) -> Scenario:
    algo = scenario_name.split("/")[0]
    register_algorithm_spec(AlgorithmSpec(algo, entry_point="", driver=driver))
    return register_scenario(Scenario(scenario_name, "path", algo, params=params))


class TestShardSpec:
    def test_shard_fields_round_trip_json(self):
        spec = SweepSpec(scenarios=("bfs/grid",), shard_index=2, shard_count=3,
                         max_retries=5, task_timeout=1.5)
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_shard_method_yields_k_subspecs(self):
        shards = SPEC.shard(3)
        assert [s.shard_index for s in shards] == [1, 2, 3]
        assert all(s.shard_count == 3 for s in shards)
        assert {s.scenarios for s in shards} == {SPEC.scenarios}

    def test_sharding_a_shard_is_rejected(self):
        with pytest.raises(SpecError, match="already sharded"):
            SPEC.shard(2)[0].shard(2)

    @pytest.mark.parametrize("fields", [
        {"shard_index": 1},                       # index without count
        {"shard_count": 2},                       # count without index
        {"shard_index": 0, "shard_count": 2},     # 1-based
        {"shard_index": 3, "shard_count": 2},     # out of range
        {"shard_index": True, "shard_count": 2},  # bool is not an int
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"task_timeout": 0},
        {"task_timeout": -2.0},
    ])
    def test_bad_shard_fields_rejected(self, fields):
        with pytest.raises(SpecError):
            SweepSpec(**fields).validate()

    def test_shard_store_paths(self):
        assert shard_store_path("runs.jsonl", 1, 2).name == "runs.jsonl.shard-1-of-2.jsonl"
        assert shard_store_paths("runs.jsonl", 2) == [
            shard_store_path("runs.jsonl", 1, 2), shard_store_path("runs.jsonl", 2, 2)
        ]


class TestPartition:
    def test_partition_is_disjoint_and_complete(self):
        names = list(SCENARIOS)
        all_cells = SPEC.cells(names)
        shards = [shard_cells(spec, names) for spec in SPEC.shard(2)]
        assert sorted(shards[0] + shards[1]) == sorted(all_cells)
        assert not set(shards[0]) & set(shards[1])

    def test_partition_keeps_instance_groups_whole(self):
        # bellman-ford/er and sssp/er at the same (n, seed) share one graph
        # instance; splitting them across shards would rebuild it twice.
        from repro.sim.experiments import _instance_key, get_scenario

        names = list(SCENARIOS)
        for spec in SPEC.shard(3):
            cells = shard_cells(spec, names)
            keys = {_instance_key(get_scenario(name), n, seed) for name, n, seed in cells}
            for name, n, seed in SPEC.cells(names):
                if _instance_key(get_scenario(name), n, seed) in keys:
                    assert (name, n, seed) in cells

    def test_partition_is_deterministic(self):
        cells = [("a", n, s) for n in (1, 2, 3) for s in (0, 1)]
        keys = [(n,) for _, n, _ in cells]
        assert partition_cells(cells, keys, 2) == partition_cells(list(cells), list(keys), 2)

    def test_single_shard_is_the_whole_job(self):
        names = list(SCENARIOS)
        [only] = SPEC.shard(1)
        assert shard_cells(only, names) == SPEC.cells(names)


class TestShardRunAndMerge:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_two_shards_merge_to_the_single_process_table(self, tmp_path, workers):
        single = run_sweep_spec(SPEC)
        output = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=SCENARIOS, sizes=(9, 16), seeds=(0, 1),
                         workers=workers, output=str(output))
        for shard in spec.shard(2):
            run_sweep_spec(shard)
        assert not output.exists()  # shards never touch the canonical store
        merged = merge_shards(output)
        assert not merged.failures()
        # Resuming the unsharded spec against the merged store reuses every
        # cell: the assembled table is identical to the uninterrupted run.
        executed = []
        rows = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
        assert executed == []
        assert rows == single

    def test_shard_stores_use_the_derived_paths(self, tmp_path):
        output = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16), seeds=(0,),
                         output=str(output))
        run_sweep_spec(spec.shard(2)[0])
        assert shard_store_path(output, 1, 2).exists()
        assert find_shard_stores(output) == [shard_store_path(output, 1, 2)]

    def test_merge_is_idempotent(self, tmp_path):
        output = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16), seeds=(0, 1),
                         output=str(output))
        for shard in spec.shard(2):
            run_sweep_spec(shard)
        first = merge_shards(output)
        size = output.stat().st_size
        again = merge_shards(output)
        assert output.stat().st_size == size  # re-merge appends nothing
        assert {cell_key(r) for r in again.rows()} == {cell_key(r) for r in first.rows()}

    def test_merge_tolerates_overlapping_shards(self, tmp_path):
        # Two shard files holding the same cells (e.g. a re-run under a
        # different k) collapse onto their digest keys.
        output = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9,), seeds=(0,),
                         output=str(output))
        run_sweep_spec(spec.shard(2)[0])
        a = shard_store_path(output, 1, 2)
        b = shard_store_path(output, 2, 2)
        b.write_text(a.read_text())  # fully overlapping shard
        merged = merge_shards(output)
        assert len(merged) == 1

    def test_merge_without_shards_is_loud(self, tmp_path):
        with pytest.raises(SpecError, match="no shard stores"):
            merge_shards(tmp_path / "runs.jsonl")

    def test_success_in_any_shard_beats_a_failure_record(self, tmp_path):
        output = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9,), seeds=(0,),
                         output=str(output))
        run_sweep_spec(spec.shard(2)[0])
        good = shard_store_path(output, 1, 2)
        digest = json.loads(good.read_text())["params_digest"]
        with ResultSet.open(shard_store_path(output, 2, 2)) as other:
            other.append(failure_record("bfs/grid", 9, 0, digest, "worker died", 3))
        merged = merge_shards(output)
        assert len(merged) == 1 and not merged.failures()


class TestResumeAcrossShards:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_interrupted_shard_resumes_and_merges_byte_identical(self, tmp_path, workers):
        """Satellite: kill a shard sweep mid-run (simulated), re-run, merge;
        the merged table must be byte-identical to an uninterrupted
        single-process run."""
        single = run_sweep_spec(SPEC)
        output = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=SCENARIOS, sizes=(9, 16), seeds=(0, 1),
                         workers=workers, output=str(output))
        shard_one, shard_two = spec.shard(2)
        run_sweep_spec(shard_one)
        # Simulate a mid-run kill: keep one finished cell plus a torn write.
        store_path = shard_store_path(output, 1, 2)
        lines = store_path.read_text().splitlines()
        store_path.write_text(lines[0] + "\n" + lines[1][:23])
        run_sweep_spec(shard_one)  # resume re-runs only the lost cells
        run_sweep_spec(shard_two)
        merge_shards(output)
        resumed = run_sweep_spec(spec)
        assert json.dumps(resumed, sort_keys=True) == json.dumps(single, sort_keys=True)

    def test_acceptance_smoke_catalog_with_interrupt_and_worker_kill(
        self, tmp_path, registry
    ):
        """ISSUE acceptance: a 2-shard sweep of the full smoke catalog with
        one shard interrupted+resumed and one worker killed mid-group
        merges into exactly the uninterrupted single-process table."""
        from repro.api import smoke_spec

        sentinel = tmp_path / "crashed-once"
        register_fault("test-crash-once/path", _crash_once,
                       params=(("sentinel", str(sentinel)),))
        # Disarm the crash for the in-process single run; both runs cover
        # the identical catalog (digests include the sentinel param).
        sentinel.write_text("")
        single = run_sweep_spec(smoke_spec())
        assert any(row["scenario"] == "test-crash-once/path" for row in single)

        sentinel.unlink()  # re-arm: the sharded run loses a worker mid-group
        output = tmp_path / "smoke.jsonl"
        sharded = smoke_spec(workers=2, output=str(output))
        shard_one, shard_two = sharded.shard(2)
        run_sweep_spec(shard_one)
        run_sweep_spec(shard_two)
        assert sentinel.exists()  # the kill actually happened, in a worker
        # Interrupt shard 2 after the fact: drop all but one finished cell
        # (plus a torn trailing write) and resume it.
        store_path = shard_store_path(output, 2, 2)
        lines = store_path.read_text().splitlines()
        assert len(lines) > 2
        store_path.write_text(lines[0] + "\n" + lines[1][:40])
        run_sweep_spec(shard_two)  # resume
        merged = merge_shards(output)
        assert not merged.failures()
        rows = run_sweep_spec(sharded, progress=lambda d, t, r: pytest.fail(
            "merged store should satisfy every cell"))
        assert json.dumps(rows, sort_keys=True) == json.dumps(single, sort_keys=True)


class TestSupervisedFaults:
    def test_dead_worker_is_retried_on_a_fresh_process(self, tmp_path, registry):
        register_fault("test-crash-once/path", _crash_once,
                       params=(("sentinel", str(tmp_path / "crashed")),))
        spec = SweepSpec(scenarios=("test-crash-once/path", "bfs/grid"),
                         sizes=(9, 16), seeds=(0,), workers=3)
        rows = run_sweep_spec(spec)
        assert len(rows) == 4 and not any(map(is_failure, rows))
        assert (tmp_path / "crashed").exists()

    def test_exhausted_retries_record_failed_rows_not_a_hang(self, tmp_path, registry):
        register_fault("test-always-crash/path", _always_crash)
        output = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("test-always-crash/path", "bfs/grid"),
                         sizes=(9, 16), seeds=(0,), workers=2, max_retries=1,
                         output=str(output))
        rows = run_sweep_spec(spec)
        failed = [r for r in rows if is_failure(r)]
        assert len(failed) == 2
        assert all(r["attempts"] == 2 and "worker died" in r["error"] for r in failed)
        # The failures are durable, excluded from the table rows, and
        # retried (not trusted) on resume.
        store = ResultSet(output)
        assert len(store.failures()) == 2
        assert all(not is_failure(r) for r in store.rows())
        executed = []
        run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row["scenario"]))
        assert set(executed) == {"test-always-crash/path"}

    def test_stuck_worker_is_killed_at_the_deadline(self, registry):
        register_fault("test-hang/path", _hang)
        spec = SweepSpec(scenarios=("test-hang/path", "bfs/grid"), sizes=(9,),
                         seeds=(0,), workers=2, max_retries=0, task_timeout=0.3)
        start = time.monotonic()
        rows = run_sweep_spec(spec)
        assert time.monotonic() - start < 30  # no indefinite hang
        failed = [r for r in rows if is_failure(r)]
        assert len(failed) == 1
        # Attributed as a timeout kill, not a crash — the remedies differ.
        assert "task_timeout" in failed[0]["error"]

    def test_interrupt_in_a_worker_is_a_death_not_a_driver_error(self, registry):
        # SIGINT reaches the whole process group on Ctrl-C; a worker's
        # KeyboardInterrupt must kill that worker (fault path: retry, then
        # failed rows), never masquerade as a deterministic driver error
        # that aborts the sweep with exit 2.
        register_fault("test-interrupt/path", _interrupt)
        spec = SweepSpec(scenarios=("test-interrupt/path", "bfs/grid"),
                         sizes=(9,), seeds=(0,), workers=2, max_retries=0)
        rows = run_sweep_spec(spec)  # must not raise SweepError
        assert sum(map(is_failure, rows)) == 1

    def test_worker_exception_raises_like_the_sequential_path(self, registry):
        register_fault("test-raise/path", _raise_mid_sweep)
        spec = SweepSpec(scenarios=("test-raise/path", "bfs/grid"),
                         sizes=(9, 16), seeds=(0,), workers=2)
        with pytest.raises(SweepError, match="injected driver failure"):
            run_sweep_spec(spec)


class TestStoreAlwaysCloses:
    """Satellite: try/finally around the execution loop — store.close()
    (and the line-by-line flushes) must survive exceptions and Ctrl-C."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_store_closes_and_keeps_rows_when_a_driver_raises(
        self, tmp_path, workers, registry
    ):
        register_fault("test-raise/path", _raise_mid_sweep)
        output = tmp_path / "runs.jsonl"
        # Cross-product order runs every bfs cell before the raising driver
        # on the sequential path; parallel races but must still close.
        spec = SweepSpec(scenarios=("bfs/grid", "test-raise/path"),
                         sizes=(9, 16), seeds=(0,), workers=workers)
        store = ResultSet.open(output)
        with pytest.raises((SweepError, RuntimeError)):
            run_sweep_spec(spec, store=store)
        assert store._handle is None  # closed on the exception path
        if workers == 1:
            reloaded = ResultSet(output)  # flushed rows survived the crash
            assert len(reloaded) == 2

    def test_store_closes_on_keyboard_interrupt(self, tmp_path):
        output = tmp_path / "runs.jsonl"
        store = ResultSet.open(output)

        def _interrupt(done, total, row):
            raise KeyboardInterrupt

        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16), seeds=(0,))
        with pytest.raises(KeyboardInterrupt):
            run_sweep_spec(spec, store=store, progress=_interrupt)
        assert store._handle is None
        assert len(ResultSet(output)) == 1  # the finished cell was flushed

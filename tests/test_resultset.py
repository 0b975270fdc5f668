"""ResultSet persistence and the resumable sweep executor."""

import json
import warnings

import pytest

from repro.api import ResultSet, SweepSpec, cell_key, run_sweep_spec
from repro.sim import Metrics
from repro.sim.experiments import ROW_FIELDS, get_scenario, scenario_digest

SCENARIOS = ("bfs/grid", "bellman-ford/er")
SPEC = SweepSpec(scenarios=SCENARIOS, sizes=(9, 16), seeds=(0, 1))


def record(n: int, seed: int = 0, **fields) -> dict:
    """A minimal current store record for cell ``("s", n, seed, "d")``."""
    return {"scenario": "s", "n": n, "size": n, "seed": seed,
            "params_digest": "d", **fields}


def pre_size_grid_record() -> dict:
    """A bfs/grid row as stores wrote it before records carried ``size``.

    Such stores keyed rounding families by the BUILT size (grid 12 -> n=9),
    so this row could be either the size-9 or the size-12 cell.
    """
    return {"scenario": "bfs/grid", "family": "grid", "algorithm": "bfs",
            "n": 9, "m": 12, "seed": 0,
            "params_digest": scenario_digest(get_scenario("bfs/grid")),
            "rounds": 5, "messages": 48, "lost_messages": 0,
            "congestion": 1, "energy": 2}


class TestResultSetStore:
    def test_streams_one_json_line_per_append(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultSet.open(path)
        store.append(record(8, rounds=3))
        store.append(record(8, seed=1, rounds=4))
        # Flushed line-by-line: readable mid-run, before close().
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["rounds"] == 3
        store.close()

    def test_reload_restores_rows_and_completed_index(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with ResultSet.open(path) as store:
            store.append(record(8, params_digest="d0", rounds=3))
        reloaded = ResultSet(path)
        assert len(reloaded) == 1
        assert reloaded.completed() == {("s", 8, 0, "d0")}
        assert reloaded.get(("s", 8, 0, "d0"))["rounds"] == 3

    def test_duplicate_cells_keep_first_write(self, tmp_path):
        store = ResultSet.open(tmp_path / "runs.jsonl")
        store.append(record(8, rounds=3))
        store.append(record(8, rounds=99))
        store.close()
        assert len(store) == 1
        assert store.get(("s", 8, 0, "d"))["rounds"] == 3

    def test_truncated_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        good = json.dumps(record(8, rounds=3))
        path.write_text(good + "\n" + '{"scenario": "s", "n": 16, "se')
        store = ResultSet(path)
        assert store.completed() == {("s", 8, 0, "d")}

    def test_appending_after_a_torn_tail_keeps_the_file_loadable(self, tmp_path):
        # The torn line must be truncated away on disk, or the next append
        # would concatenate onto it and corrupt the store permanently.
        path = tmp_path / "runs.jsonl"
        good = json.dumps(record(8, rounds=3))
        path.write_text(good + "\n" + '{"scenario": "s", "n": 16, "se')
        store = ResultSet(path)
        store.append(record(16, rounds=5))
        store.close()
        reloaded = ResultSet(path)
        assert reloaded.completed() == {("s", 8, 0, "d"), ("s", 16, 0, "d")}
        assert reloaded.get(("s", 16, 0, "d"))["rounds"] == 5

    def test_corrupt_interior_line_is_skipped_with_a_warning(self, tmp_path):
        # A torn line mid-file (a writer crashed, a later run appended past
        # it) loses exactly that cell — the load must keep every intact
        # record instead of aborting the whole store.
        path = tmp_path / "runs.jsonl"
        good = json.dumps(record(8, rounds=3))
        path.write_text("not json\n" + good + "\n")
        with pytest.warns(RuntimeWarning, match="skipping corrupt result line"):
            store = ResultSet(path)
        assert store.completed() == {("s", 8, 0, "d")}

    @pytest.mark.parametrize("bad_line", [
        '{"scenario": "s", "n": 16, "se',  # torn JSON prefix
        '{"foo": 1}',  # parses, but no key fields
        "[1, 2]",  # parses, not an object
        "null",
        # pre-size
        json.dumps({"scenario": "s", "n": 16, "seed": 0, "params_digest": "d"}),
        # pre-digest
        json.dumps({"scenario": "s", "n": 16, "size": 16, "seed": 0}),
    ])
    def test_mid_file_bad_line_then_valid_append_loads(self, tmp_path, bad_line):
        # The crash-during-concurrent-write shape: a torn JSON prefix,
        # *then* later valid appends.  Only the torn cell is lost.  A line
        # that parses but is not a current record loses its cell the same
        # way, instead of crashing the load.
        path = tmp_path / "runs.jsonl"
        first = json.dumps(record(8, rounds=3))
        later = json.dumps(record(32, rounds=7))
        path.write_text(first + "\n" + bad_line + "\n" + later + "\n")
        with pytest.warns(RuntimeWarning, match="runs.jsonl:2: skipping"):
            store = ResultSet(path)
        assert store.completed() == {("s", 8, 0, "d"), ("s", 32, 0, "d")}
        # The lost cell re-runs on resume and appends cleanly.
        store.append(record(16, rounds=5))
        store.close()
        with pytest.warns(RuntimeWarning, match="runs.jsonl:2: skipping"):
            reloaded = ResultSet(path)
        assert reloaded.get(("s", 16, 0, "d"))["rounds"] == 5
        assert [r["size"] for r in reloaded.rows()] == [8, 32, 16]

    @pytest.mark.parametrize("tail, kept", [
        ('{"foo": 1}', 2),  # parses, not a record: skipped
        (json.dumps(record(16, rounds=5)), 3),  # a current record: kept
    ])
    def test_appending_after_an_unterminated_last_line_keeps_both(
        self, tmp_path, tail, kept
    ):
        # A last line that parses but lacks its newline is not a torn tail,
        # so it is not truncated; the next append must still start a fresh
        # line, or it would join onto the tail and be lost on reload.
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(record(8, rounds=3)) + "\n" + tail)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ResultSet(path)
        store.append(record(32, rounds=7))
        store.close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reloaded = ResultSet(path)
        assert ("s", 32, 0, "d") in reloaded.completed()
        assert reloaded.get(("s", 32, 0, "d"))["rounds"] == 7
        assert path.read_text().splitlines()[1] == tail
        assert len(reloaded) == kept

    def test_memory_store_has_no_file(self):
        store = ResultSet()
        store.append(record(8))
        assert store.path is None
        assert ("s", 8, 0, "d") in store


class TestCellKey:
    def test_key_is_the_four_key_fields_in_order(self):
        row = {**record(12, seed=3, params_digest="d7"), "n": 9}
        assert cell_key(row) == ("s", 12, 3, "d7")  # size, never the built n

    @pytest.mark.parametrize("field", ["scenario", "size", "seed", "params_digest"])
    def test_a_row_missing_a_key_field_has_no_key(self, field):
        row = record(8)
        del row[field]
        with pytest.raises(KeyError, match=field):
            cell_key(row)


class TestSweepSpecExecution:
    def test_rows_follow_cross_product_order(self):
        rows = run_sweep_spec(SPEC)
        key = [(r["scenario"], r["n"], r["seed"]) for r in rows]
        assert key == [(name, n, seed) for name in SCENARIOS for n in (9, 16) for seed in (0, 1)]
        assert all(tuple(row) == ROW_FIELDS for row in rows)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_store_records_carry_serialized_metrics(self, tmp_path, workers):
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=SCENARIOS, sizes=(9, 16), seeds=(0,),
                         workers=workers, output=str(path))
        rows = run_sweep_spec(spec)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {cell_key(r) for r in records} == {cell_key(r) for r in rows}
        for record in records:
            metrics = Metrics.from_dict(record["metrics"])
            assert metrics.rounds == record["rounds"]
            assert metrics.total_messages == record["messages"]
            assert metrics.max_congestion == record["congestion"]
            assert metrics.max_energy == record["energy"]

    def test_store_lines_match_across_worker_counts_as_sorted_lines(self, tmp_path):
        # A store's lines come in completion order, which at workers > 1
        # varies from run to run; the lines themselves may not.
        stores = []
        for workers in (1, 2):
            path = tmp_path / f"runs-{workers}.jsonl"
            run_sweep_spec(SweepSpec(scenarios=SCENARIOS, sizes=(9, 16), seeds=(0,),
                                     workers=workers, output=str(path)))
            stores.append(sorted(path.read_text().splitlines()))
        assert stores[0] == stores[1]


class TestResume:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_resume_equals_fresh_at_any_worker_count(self, tmp_path, workers):
        fresh = run_sweep_spec(SPEC)
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=SCENARIOS, sizes=(9, 16), seeds=(0, 1),
                         workers=workers, output=str(path))
        first = run_sweep_spec(spec)
        # Simulate an interruption: drop all but the first three cells
        # (plus a torn trailing write).
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:17])
        resumed = run_sweep_spec(spec)
        assert resumed == first == fresh

    def test_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16), seeds=(0, 1),
                         output=str(path))
        run_sweep_spec(spec)
        executed = []
        run_sweep_spec(spec, progress=lambda done, total, row: executed.append(row))
        assert executed == []  # everything was reused from the store

    def test_resume_runs_only_missing_cells(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16), seeds=(0, 1),
                         output=str(path))
        full = run_sweep_spec(spec)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        executed = []
        resumed = run_sweep_spec(
            spec, progress=lambda done, total, row: executed.append(cell_key(row))
        )
        assert resumed == full
        kept = {cell_key(json.loads(line)) for line in lines[:2]}
        assert set(executed) == {cell_key(r) for r in full} - kept

    def test_resume_hits_when_the_family_rounds_the_requested_size(self, tmp_path):
        # A grid at size 12 builds a 3x3 = 9-node instance.  Resume must
        # address the cell by the REQUESTED size (the "size" record field):
        # keying on the built size made every resume of such a cell miss
        # and silently re-run it.
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(12,), seeds=(0,),
                         output=str(path))
        rows = run_sweep_spec(spec)
        assert rows[0]["n"] == 9 and rows[0]["size"] == 12  # rounded instance
        executed = []
        run_sweep_spec(spec, progress=lambda done, total, row: executed.append(row))
        assert executed == []

    def test_resuming_a_pre_size_store_warns_and_reruns_the_cell(self, tmp_path):
        # A store written before records carried "size" keyed rounding
        # families by the BUILT size (grid 12 -> n=9).  Such a row is not a
        # current record: the load skips it with a warning, the cell
        # re-runs, and the table holds exactly one row for it.
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(pre_size_grid_record()) + "\n")
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(12,), seeds=(0,),
                         output=str(path))
        executed = []

        def progress(done, total, row):
            executed.append(row["size"])

        with pytest.warns(RuntimeWarning, match="runs.jsonl:1: skipping"):
            rows = run_sweep_spec(spec, progress=progress)
        assert executed == [12]
        assert len(rows) == 1 and rows[0]["size"] == 12
        with pytest.warns(RuntimeWarning, match="runs.jsonl:1: skipping"):
            reloaded = ResultSet(path)
        assert [r["size"] for r in reloaded.rows()] == [12]

    def test_pre_size_records_are_rerun_at_every_requested_size(self, tmp_path):
        # The ambiguous case: the n=9 grid row could be the size-9 OR the
        # size-12 cell.  It answers neither: both cells run, and the store
        # ends up with exactly one row per requested size.
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(pre_size_grid_record()) + "\n")
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 12), seeds=(0,),
                         output=str(path))
        executed = []

        def progress(done, total, row):
            executed.append(row["size"])

        with pytest.warns(RuntimeWarning, match="runs.jsonl:1: skipping"):
            rows = run_sweep_spec(spec, progress=progress)
        assert executed == [9, 12]
        assert [r["size"] for r in rows] == [9, 12]
        with pytest.warns(RuntimeWarning, match="runs.jsonl:1: skipping"):
            reloaded = ResultSet(path)
        assert [r["size"] for r in reloaded.rows()] == [9, 12]

    def test_a_sized_record_never_masquerades_as_its_built_size_cell(self, tmp_path):
        # grid sizes 9 and 12 both build 9-node instances: two DISTINCT
        # cells with identical measurements, addressed by requested size.
        store = ResultSet.open(tmp_path / "runs.jsonl")
        store.append({"scenario": "g", "n": 9, "seed": 0, "size": 9,
                      "params_digest": "d", "rounds": 3})
        store.append({"scenario": "g", "n": 9, "seed": 0, "size": 12,
                      "params_digest": "d", "rounds": 3})
        store.close()
        assert len(store) == 2
        assert {("g", 9, 0, "d"), ("g", 12, 0, "d")} == store.completed()

    def test_widening_a_spec_reuses_the_narrow_run(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        narrow = SweepSpec(scenarios=("bfs/grid",), sizes=(9,), seeds=(0,),
                           output=str(path))
        run_sweep_spec(narrow)
        wide = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16), seeds=(0, 1),
                         output=str(path))
        executed = []
        rows = run_sweep_spec(
            wide, progress=lambda done, total, row: executed.append(cell_key(row))
        )
        assert len(rows) == 4
        assert ("bfs/grid", 9, 0) not in executed
        assert len(executed) == 3


class TestProgressCallback:
    def test_counts_cover_reused_and_fresh_cells(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16), seeds=(0, 1),
                         output=str(path))
        seen = []
        run_sweep_spec(spec, progress=lambda done, total, row: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]
        # Drop half the store: resume reports progress starting past the
        # reused cells.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        seen.clear()
        run_sweep_spec(spec, progress=lambda done, total, row: seen.append((done, total)))
        assert seen == [(3, 4), (4, 4)]

"""The ``repro`` CLI: argparse subcommands over the spec API."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.testing import subprocess_env

SUBPROCESS_ENV = subprocess_env()


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PODC 2024" in out
        assert "repro.energy.low_energy_bfs" in out
        assert "repro.api" in out

    def test_info_json(self, capsys):
        import repro

        assert main(["info", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == repro.__version__
        assert "repro.api" in data["systems"]

    def test_info_json_derives_param_schemas_from_the_drivers(self, capsys):
        assert main(["info", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        algorithms = {entry["name"]: entry for entry in data["algorithms"]}
        assert algorithms["energy-bfs"]["param_schema"] == [["base", "int"], ["stretch", "int"]]
        assert algorithms["sssp"]["param_schema"] == []
        assert all("entry_point" not in entry for entry in data["algorithms"])
        scenarios = {entry["name"]: entry for entry in data["scenarios"]}
        assert scenarios["labeled-bfs/grid"]["param_schema"] == [["num_sources", "int"]]

    def test_demo_small(self, capsys):
        assert main(["demo", "12"]) == 0
        out = capsys.readouterr().out
        assert "exact vs oracle: True" in out

    def test_demo_json(self, capsys):
        assert main(["demo", "12", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"] is True
        assert data["metrics"]["rounds"] > 0

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "Commands" in capsys.readouterr().out

    def test_help_flag_lists_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("info", "demo", "sweep", "report"):
            assert command in out
        assert "--spec" in out  # the spec workflow is advertised

    def test_subcommand_help(self, capsys):
        assert main(["sweep", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--scenarios", "--sizes", "--seeds", "--workers",
                     "--output", "--smoke", "--spec", "--json"):
            assert flag in out

    @pytest.mark.parametrize("command", ["frobnicate", "bench", "lint"])
    def test_unknown_command_exits_2_with_usage(self, command, capsys):
        assert main([command]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_unknown_flag_exits_2_with_usage(self, capsys):
        assert main(["sweep", "--frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    @pytest.mark.parametrize("flag", ["--sizes", "--seeds"])
    def test_malformed_int_csv_exits_2_with_usage(self, flag, capsys):
        assert main(["sweep", flag, "16,x"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "comma-separated integers" in err

    def test_malformed_workers_exits_2(self, capsys):
        assert main(["sweep", "--workers", "two"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_report_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["report", str(tmp_path / "nope")])

    def test_report_roundtrip(self, tmp_path, capsys):
        d = tmp_path / "results"
        d.mkdir()
        (d / "E1_correctness.txt").write_text("== E1 ==\n")
        out_file = tmp_path / "r.md"
        assert main(["report", str(d), str(out_file)]) == 0
        assert "E1" in out_file.read_text()

    def test_report_bad_args_exit_2_with_usage(self, capsys):
        assert main(["report", ""]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_report_json(self, tmp_path, capsys):
        d = tmp_path / "results"
        d.mkdir()
        (d / "E1_correctness.txt").write_text("== E1 ==\n")
        assert main(["report", str(d), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results_dir"] == str(d)
        assert "E1" in data["report"]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0
        assert "PODC" in proc.stdout

    def test_module_invocation_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--sizes", "a,b"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert "usage:" in proc.stderr


class TestSweepSpecCLI:
    def test_spec_file_drives_the_sweep(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps({
            "kind": "sweep", "scenarios": ["bfs/grid"], "sizes": [9, 16],
            "seeds": [0], "workers": 1, "output": None,
        }))
        assert main(["sweep", "--spec", str(spec_file), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["scenario"], r["n"]) for r in rows] == [("bfs/grid", 9), ("bfs/grid", 16)]

    def test_flags_override_spec_fields(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps({
            "kind": "sweep", "scenarios": ["bfs/grid"], "sizes": [9, 16], "seeds": [0],
        }))
        assert main(["sweep", "--spec", str(spec_file), "--sizes", "9", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [9]

    def test_cli_store_resumes(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        argv = ["sweep", "--scenarios", "bfs/grid", "--sizes", "9,16",
                "--seeds", "0", "--output", str(store), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        lines = store.read_text().splitlines()
        store.write_text(lines[0] + "\n")  # drop one finished cell
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_store_line_that_is_not_a_record_is_skipped_and_rerun(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        argv = ["sweep", "--scenarios", "bfs/grid", "--sizes", "9,16",
                "--seeds", "0", "--output", str(store), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        lines = store.read_text().splitlines()
        store.write_text(lines[0] + "\n" + '{"foo": 1}' + "\n")
        with pytest.warns(RuntimeWarning, match="runs.jsonl:2: skipping"):
            assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first
        assert len(store.read_text().splitlines()) == 3  # the cell re-ran

    def test_wrong_spec_kind_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "report.json"
        spec_file.write_text(json.dumps({"kind": "report"}))
        assert main(["sweep", "--spec", str(spec_file)]) == 2
        assert "expected 'sweep'" in capsys.readouterr().err

    def test_malformed_spec_file_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text("{nope")
        assert main(["sweep", "--spec", str(spec_file)]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_scenario_in_spec_exits_2(self, capsys):
        assert main(["sweep", "--scenarios", "definitely-not-registered"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_progress_streams_to_stderr(self, capsys):
        assert main(["sweep", "--scenarios", "bfs/grid", "--sizes", "9",
                     "--seeds", "0", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/1] bfs/grid n=9 seed=0" in err


class TestShardCLI:
    SELECTORS = ["--scenarios", "bfs/grid,bellman-ford/er", "--sizes", "9,16",
                 "--seeds", "0"]

    def test_shard_run_and_merge_reproduce_the_single_table(self, tmp_path, capsys):
        assert main(["sweep", *self.SELECTORS, "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        store = tmp_path / "runs.jsonl"
        for shard in ("1/2", "2/2"):
            assert main(["sweep", *self.SELECTORS, "--output", str(store),
                         "--shard", shard]) == 0
        capsys.readouterr()
        assert (tmp_path / "runs.jsonl.shard-1-of-2.jsonl").exists()
        assert not store.exists()
        assert main(["sweep", *self.SELECTORS, "--output", str(store),
                     "--merge", "--json"]) == 0
        captured = capsys.readouterr()
        assert "merged" in captured.err
        assert json.loads(captured.out) == single
        assert store.exists()

    def test_shard_flag_prints_the_derived_store_path(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        assert main(["sweep", *self.SELECTORS, "--output", str(store),
                     "--shard", "2/2"]) == 0
        assert "runs.jsonl.shard-2-of-2.jsonl" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0/2", "3/2", "1of2", "1/0", "x/y"])
    def test_malformed_shard_flag_exits_2(self, value, capsys):
        assert main(["sweep", *self.SELECTORS, "--shard", value]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_shard_without_output_is_rejected(self, capsys):
        # Running a shard into a discarded in-memory store would silently
        # waste the whole partition.
        assert main(["sweep", *self.SELECTORS, "--shard", "1/2"]) == 2
        assert "sharded sweep needs --output" in capsys.readouterr().err

    def test_sharded_spec_file_without_output_is_rejected(self, tmp_path, capsys):
        # The guard must fire on the resolved SPEC, not the --shard flag:
        # a sharded spec file with no output is the same silent discard.
        spec_file = tmp_path / "shard.json"
        spec_file.write_text(json.dumps({
            "kind": "sweep", "scenarios": ["bfs/grid"], "sizes": [9],
            "shard_index": 1, "shard_count": 2,
        }))
        assert main(["sweep", "--spec", str(spec_file)]) == 2
        assert "sharded sweep needs --output" in capsys.readouterr().err

    def test_merge_with_shard_is_rejected(self, tmp_path, capsys):
        assert main(["sweep", *self.SELECTORS, "--output",
                     str(tmp_path / "r.jsonl"), "--shard", "1/2", "--merge"]) == 2

    def test_merge_without_output_is_rejected(self, capsys):
        assert main(["sweep", *self.SELECTORS, "--merge"]) == 2

    def test_merge_without_shard_stores_exits_2(self, tmp_path, capsys):
        assert main(["sweep", *self.SELECTORS, "--output",
                     str(tmp_path / "r.jsonl"), "--merge"]) == 2
        assert "no shard stores" in capsys.readouterr().err

    def test_bad_retry_and_timeout_values_exit_2(self, capsys):
        assert main(["sweep", *self.SELECTORS, "--max-retries", "-1"]) == 2
        assert main(["sweep", *self.SELECTORS, "--task-timeout", "0"]) == 2


"""The spec layer: JSON round-trips, validation, and algorithm descriptors."""

import json
import subprocess
import sys

import pytest

from repro.api import (
    AlgorithmSpec,
    ReportSpec,
    SpecError,
    SweepSpec,
    get_algorithm_spec,
    load_spec,
    register_algorithm_spec,
    smoke_spec,
)
from repro.api.drivers import drive_bfs
from repro.sim.experiments import list_algorithms, run_scenario
from repro.testing import subprocess_env


class TestSweepSpecRoundTrip:
    def test_json_round_trip_is_exact(self):
        spec = SweepSpec(scenarios=("sssp/er", "bfs/grid"), sizes=(16, 32),
                         seeds=(0, 1, 2), workers=4, output="runs.jsonl")
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip(self):
        spec = SweepSpec()
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert spec.scenarios is None  # "all registered" survives the trip

    def test_json_lists_normalize_to_tuples(self):
        spec = SweepSpec.from_dict(
            {"kind": "sweep", "scenarios": ["a", "b"], "sizes": [8], "seeds": [0, 1]}
        )
        assert spec.scenarios == ("a", "b")
        assert spec.sizes == (8,)
        assert spec.seeds == (0, 1)

    def test_file_round_trip(self, tmp_path):
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9,), seeds=(0,))
        path = spec.save(tmp_path / "sweep.json")
        assert SweepSpec.load(path) == spec
        assert load_spec(path) == spec  # kind-tag dispatch

    def test_cells_cross_product_order(self):
        spec = SweepSpec(scenarios=("a", "b"), sizes=(8, 16), seeds=(0, 1))
        cells = spec.cells()
        assert cells[0] == ("a", 8, 0)
        assert cells == sorted(cells, key=lambda c: (spec.scenarios.index(c[0]), c[1], c[2]))
        assert len(cells) == 8


class TestSweepSpecValidation:
    @pytest.mark.parametrize("bad", [
        {"sizes": ()},
        {"sizes": (0,)},
        {"sizes": (-4,)},
        {"sizes": ("x",)},
        {"seeds": ()},
        {"seeds": ("y",)},
        {"workers": 0},
        {"workers": "two"},
        {"scenarios": ()},
        {"output": 7},
    ])
    def test_rejects(self, bad):
        with pytest.raises(SpecError):
            SweepSpec(**bad).validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown fields"):
            SweepSpec.from_dict({"kind": "sweep", "frobnicate": 1})

    def test_wrong_kind_rejected(self):
        with pytest.raises(SpecError, match="expected kind"):
            SweepSpec.from_dict({"kind": "report"})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            SweepSpec.from_json("{nope")

    def test_replace_ignores_none_and_validates(self):
        spec = SweepSpec(sizes=(8,))
        assert spec.replace(sizes=None) is spec
        assert spec.replace(workers=3).workers == 3
        with pytest.raises(SpecError):
            spec.replace(workers=-1)


class TestOtherSpecs:
    def test_report_round_trip(self):
        spec = ReportSpec(results_dir="benchmarks/results", output="out.md")
        assert ReportSpec.from_json(spec.to_json()) == spec

    def test_load_spec_dispatches_on_kind(self, tmp_path):
        for spec in (SweepSpec(sizes=(8,)), ReportSpec()):
            path = spec.save(tmp_path / f"{spec.kind}.json")
            loaded = load_spec(path)
            assert type(loaded) is type(spec)
            assert loaded == spec

    def test_report_validation(self):
        for bad in ({"results_dir": 3}, {"output": 5}):
            with pytest.raises(SpecError, match="report spec"):
                ReportSpec(**bad).validate()

    def test_load_spec_rejects_the_retired_bench_kind(self):
        # ``repro bench`` and its spec are gone: an old bench spec file is
        # an unknown kind, not silently read as some other job.
        with pytest.raises(SpecError, match=r"unknown spec kind 'bench'; options: \['report', 'sweep'\]"):
            load_spec({"kind": "bench", "experiments": ["smoke"], "repeats": 1})

    def test_public_api_names_resolve(self):
        import repro.api as api

        assert len(set(api.__all__)) == len(api.__all__)
        for name in api.__all__:
            assert getattr(api, name) is not None, name
        for retired in ("BenchSpec", "BenchOutcome", "run_bench_spec"):
            assert not hasattr(api, retired), retired

    def test_load_spec_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(SpecError, match="unknown spec kind"):
            load_spec(path)

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_spec(tmp_path / "nope.json")

    def test_load_spec_accepts_json_text(self):
        spec = load_spec('{"kind": "sweep", "sizes": [8]}')
        assert spec == SweepSpec(sizes=(8,))
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec("{nope")

    def test_cells_without_resolved_scenarios_is_a_spec_error(self):
        with pytest.raises(SpecError, match="resolves at run time"):
            SweepSpec().cells()

    def test_smoke_spec_is_fixed_and_valid(self):
        spec = smoke_spec()
        assert spec.validate() is spec
        # The smoke sweep covers the *whole* registered catalog (CI runs
        # every driver through its oracle), at fixed small sizes.
        assert spec.scenarios is None
        assert spec.seeds == (0,)
        assert all(n <= 20 for n in spec.sizes)


class TestAlgorithmSpecs:
    def test_builtins_registered_declaratively(self):
        names = list_algorithms()
        assert {"sssp", "cssp", "bellman-ford", "dijkstra", "bfs", "energy-bfs"} <= set(names)
        spec = get_algorithm_spec("energy-bfs")
        assert spec.model == "sleeping"
        assert spec.oracle == "repro.graphs:Graph.hop_distances"
        assert spec.params() == {"base": 4, "stretch": 3}

    def test_registered_spec_drives_a_scenario(self):
        from repro.api import algorithms
        from repro.sim import experiments

        register_algorithm_spec(AlgorithmSpec("test-only-bfs", drive_bfs))
        experiments.register_scenario(
            experiments.Scenario("test-only/bfs-path", "path", "test-only-bfs")
        )
        try:
            row = run_scenario("test-only/bfs-path", 8, seed=0)
            assert row["algorithm"] == "test-only-bfs"
            assert row["rounds"] > 0
        finally:
            experiments._SCENARIOS.pop("test-only/bfs-path", None)
            algorithms._SPECS.pop("test-only-bfs", None)


#: Imports repro, lists the catalog through the CLI, resolves one scenario,
#: and reports whether any plugin-scanning machinery was loaded.
STARTUP_PROBE = """\
import sys
import repro
from repro.__main__ import main
from repro.sim import experiments
assert main(["sweep", "--list"]) == 0
experiments.get_scenario("apsp/er")
print("importlib.metadata" in sys.modules)
"""


class TestStartup:
    def test_startup_ignores_the_environment(self):
        result = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE],
            env={**subprocess_env(), "REPRO_PLUGINS": "no_such_module"},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        lines = result.stdout.splitlines()
        assert any(line.startswith("apsp/er ") for line in lines)
        assert lines[-1] == "False"

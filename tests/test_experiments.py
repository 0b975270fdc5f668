"""The scenario registry, spec-driven sweep executor, and ``sweep`` CLI."""

import json
import os
import random

import pytest

from repro.__main__ import main
from repro.analysis import fit_sweep, sweep_report, sweep_table
from repro.api import SweepSpec, run_sweep_spec, smoke_spec
from repro.sim.experiments import (
    ROW_FIELDS,
    Scenario,
    SweepError,
    get_scenario,
    list_algorithms,
    list_scenarios,
    register_scenario,
    run_scenario,
)


def sweep(scenarios, sizes, seeds=(0,), workers=1):
    """Run the cross product through the spec path (in-memory store)."""
    return run_sweep_spec(
        SweepSpec(scenarios=tuple(scenarios), sizes=tuple(sizes),
                  seeds=tuple(seeds), workers=workers)
    )


class TestRegistry:
    def test_builtin_scenarios_present(self):
        names = list_scenarios()
        assert "sssp/er" in names
        assert "bellman-ford/er" in names
        assert "energy-bfs/path" in names

    def test_builtin_algorithms_present(self):
        assert {"sssp", "cssp", "bellman-ford", "dijkstra", "bfs", "energy-bfs"} <= set(
            list_algorithms()
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SweepError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_register_rejects_unknown_family(self):
        with pytest.raises(SweepError, match="unknown family"):
            register_scenario(Scenario("bad", "nope", "sssp"))

    def test_register_rejects_unknown_algorithm(self):
        with pytest.raises(SweepError, match="unknown algorithm"):
            register_scenario(Scenario("bad", "er", "nope"))

    @pytest.mark.parametrize("max_weight", [0, -1, True, 2.5])
    def test_register_rejects_a_max_weight_below_one_or_not_an_int(self, max_weight):
        # 0 would build the max_weight=1 instance under another digest;
        # 2.5 would fail only inside the cell, without the scenario's name.
        with pytest.raises(SweepError, match=r"scenario 'x/er': max_weight must be an int >= 1"):
            register_scenario(Scenario("x/er", "er", "sssp", max_weight=max_weight))
        assert "x/er" not in list_scenarios()

    def test_register_and_run_custom_scenario(self):
        name = "test-only/dijkstra-path"
        register_scenario(Scenario(name, "path", "dijkstra", max_weight=5))
        try:
            row = run_scenario(name, 8, seed=3)
            assert row["algorithm"] == "dijkstra"
            assert row["n"] == 8
        finally:
            from repro.sim import experiments

            experiments._SCENARIOS.pop(name, None)


class TestRunScenario:
    def test_row_shape(self):
        row = run_scenario("bfs/grid", 16, seed=0)
        assert tuple(row) == ROW_FIELDS
        assert row["scenario"] == "bfs/grid"
        assert row["rounds"] > 0
        assert row["lost_messages"] == 0

    def test_energy_scenario_reports_energy(self):
        row = run_scenario("energy-bfs/path", 12, seed=0)
        assert row["energy"] > 0
        assert row["lost_messages"] > 0  # sleeping model loses off-schedule sends

    def test_sweep_fails_fast_on_unknown_scenario(self):
        with pytest.raises(SweepError, match="unknown scenario"):
            sweep(["definitely-not-registered"], sizes=(8,))


class TestSweepDeterminism:
    @pytest.mark.parametrize("trial", range(4))
    def test_same_seed_same_table_across_worker_counts(self, trial):
        rng = random.Random(777 + trial)
        sizes = tuple(sorted(rng.sample(range(9, 30), k=2)))
        seeds = tuple(range(rng.randrange(1, 3)))
        scenarios = rng.sample(["bfs/grid", "bellman-ford/er", "dijkstra/er"], k=2)
        sequential = sweep(scenarios, sizes=sizes, seeds=seeds, workers=1)
        parallel = sweep(scenarios, sizes=sizes, seeds=seeds, workers=3)
        assert sequential == parallel

    def test_workers_run_cells_through_the_patchable_module_names(self, tmp_path, monkeypatch):
        # perfbench's cell clock patches these two module attributes in the
        # parent before the fork.  A worker that bound either name at import
        # would bypass the wrappers and leave the sweep's cell times empty.
        from repro.sim import experiments

        def marking(kind, run):
            def wrapper(*args, **kwargs):
                cells = [cell[1:] for cell in args[0]] if kind == "group" else [args[:3]]
                with open(tmp_path / f"{kind}-{os.getpid()}", "a") as out:
                    out.write(json.dumps(cells) + "\n")
                return run(*args, **kwargs)

            return wrapper

        for kind, name in (("group", "_run_cell_group"), ("cell", "_run_cell")):
            monkeypatch.setattr(experiments, name, marking(kind, getattr(experiments, name)))
        scenarios, sizes, seeds = ["bellman-ford/er", "dijkstra/er"], (9, 13), (0, 1)
        sweep(scenarios, sizes=sizes, seeds=seeds, workers=2)
        expected = sorted([name, n, seed] for name in scenarios for n in sizes for seed in seeds)
        for kind in ("group", "cell"):
            paths = list(tmp_path.glob(f"{kind}-*"))
            assert paths and tmp_path / f"{kind}-{os.getpid()}" not in paths
            seen = [cell for path in paths for line in path.read_text().splitlines()
                    for cell in json.loads(line)]
            assert sorted(seen) == expected, kind

    def test_rows_follow_task_order(self):
        rows = sweep(["bfs/grid"], sizes=(9, 16), seeds=(0, 1))
        key = [(r["scenario"], r["n"], r["seed"]) for r in rows]
        assert key == [("bfs/grid", 9, 0), ("bfs/grid", 9, 1), ("bfs/grid", 16, 0), ("bfs/grid", 16, 1)]

    def test_smoke_sweep_is_small_and_deterministic(self):
        first = run_sweep_spec(smoke_spec())
        second = run_sweep_spec(smoke_spec(workers=2))
        assert first == second
        # Every registered scenario appears (the CI oracle coverage), at
        # two sizes and one seed each.
        assert {row["scenario"] for row in first} == set(list_scenarios())
        assert len(first) == 2 * len(list_scenarios())


class TestGraphOwnership:
    def test_a_group_builds_its_graph_once(self, monkeypatch):
        builds = []
        build_graph = Scenario.build_graph

        def counting(scenario, n, seed):
            builds.append(scenario.instance_key(n, seed))
            return build_graph(scenario, n, seed)

        monkeypatch.setattr(Scenario, "build_graph", counting)
        # bellman-ford/er and dijkstra/er share every instance: one build
        # per (size, seed) group serves both cells.
        rows = sweep(["bellman-ford/er", "dijkstra/er"], sizes=(9, 13), seeds=(0, 1))
        assert len(rows) == 8
        assert len(builds) == len(set(builds)) == 4

    def test_run_scenario_builds_afresh_each_call(self, monkeypatch):
        builds = []
        build_graph = Scenario.build_graph

        def counting(scenario, n, seed):
            builds.append(scenario.instance_key(n, seed))
            return build_graph(scenario, n, seed)

        monkeypatch.setattr(Scenario, "build_graph", counting)
        # No graph outlives its group: each run_scenario call builds anew.
        first = run_scenario("dijkstra/er", 14, seed=3)
        second = run_scenario("dijkstra/er", 14, seed=3)
        assert len(builds) == 2
        assert first == second

    def test_a_group_given_its_graph_builds_none(self, monkeypatch):
        # A sweep worker hands _run_cell_group the graph it attached; the
        # group must run every cell on it and build nothing itself.
        from repro.sim import experiments

        graph = get_scenario("dijkstra/er").build_graph(11, 2)
        monkeypatch.setattr(
            Scenario, "build_graph",
            lambda *args: pytest.fail("group rebuilt a graph it was given"),
        )
        group = [(0, "bellman-ford/er", 11, 2), (1, "dijkstra/er", 11, 2)]
        out = experiments._run_cell_group(group, SweepSpec(), False, graph=graph)
        assert [index for index, _, _ in out] == [0, 1]
        monkeypatch.undo()
        assert [row for _, row, _ in out] == [
            run_scenario("bellman-ford/er", 11, seed=2),
            run_scenario("dijkstra/er", 11, seed=2),
        ]

    def test_no_module_level_map_holds_a_graph(self):
        from repro.graphs.weighted_graph import Graph
        from repro.sim import experiments

        sweep(["bellman-ford/er", "bfs/grid"], sizes=(9,), seeds=(0, 1))
        run_scenario("dijkstra/er", 10, seed=5)
        for name, value in vars(experiments).items():
            if isinstance(value, dict):
                assert not any(isinstance(v, Graph) for v in value.values()), name

    def test_clear_graph_cache_is_a_noop(self):
        # perfbench's run_pass still calls it before each pass.
        from repro.sim.experiments import clear_graph_cache

        before = run_scenario("bfs/grid", 9, seed=1)
        assert clear_graph_cache() is None
        assert run_scenario("bfs/grid", 9, seed=1) == before

    def test_rows_identical_across_repeated_sweeps(self):
        scenarios = ["bellman-ford/er", "dijkstra/er", "bfs/grid"]
        first = sweep(scenarios, sizes=(10, 14), seeds=(0, 1))
        second = sweep(scenarios, sizes=(10, 14), seeds=(0, 1))
        assert first == second

    def test_rows_identical_across_worker_counts(self):
        scenarios = ["bellman-ford/er", "dijkstra/er"]
        sequential = sweep(scenarios, sizes=(9, 13), seeds=(0, 1), workers=1)
        parallel = sweep(scenarios, sizes=(9, 13), seeds=(0, 1), workers=4)
        assert sequential == parallel


class TestAnalysisWiring:
    def test_sweep_table_has_all_columns(self):
        rows = sweep(["bfs/grid"], sizes=(9, 16))
        table = sweep_table(rows)
        for field in ROW_FIELDS:
            if field in ("size", "params_digest"):
                assert field not in table  # resume provenance, not a measurement
            else:
                assert field in table

    def test_sweep_table_accepts_a_resultset(self, tmp_path):
        from repro.api import ResultSet

        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9, 16),
                         output=str(tmp_path / "runs.jsonl"))
        run_sweep_spec(spec)
        store = ResultSet(spec.output)
        assert sweep_table(store) == sweep_table(store.rows())
        assert set(fit_sweep(store)) == {"bfs/grid"}

    def test_fit_sweep_groups_by_scenario(self):
        rows = sweep(["bellman-ford/er"], sizes=(12, 20, 32))
        fits = fit_sweep(rows, y="rounds")
        assert set(fits) == {"bellman-ford/er"}
        assert 0.5 < fits["bellman-ford/er"].exponent < 1.5  # rounds ~ n

    def test_sweep_report_contains_table_and_fits(self):
        rows = sweep(["bellman-ford/er"], sizes=(12, 20))
        report = sweep_report(rows, title="unit sweep")
        assert "## unit sweep" in report
        assert "bellman-ford/er" in report
        assert "n^" in report


class TestSweepCLI:
    def test_smoke_output_format(self, capsys):
        assert main(["sweep", "--smoke"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("== smoke sweep ==")
        header = lines[1]
        for field in ROW_FIELDS:
            if field not in ("size", "params_digest"):  # kept out of display columns
                assert field in header
        assert len(lines) >= 3 + 4  # title + header + rule + at least one row per scenario

    def test_explicit_selectors_and_fit(self, capsys):
        code = main(
            ["sweep", "--scenarios", "bfs/grid", "--sizes", "9,16", "--seeds", "0", "--fit"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bfs/grid" in out
        assert "fit bfs/grid: rounds ~ n^" in out

    def test_list_scenarios(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sssp/er" in out

    def test_report_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.md"
        assert main(["sweep", "--smoke", "--report", str(target)]) == 0
        text = target.read_text()
        assert "## smoke sweep" in text
        assert "sssp/er" in text

    def test_unknown_option_rejected(self, capsys):
        assert main(["sweep", "--frobnicate"]) == 2

    def test_parallel_smoke_matches_sequential(self, capsys):
        assert main(["sweep", "--smoke"]) == 0
        sequential = capsys.readouterr().out
        assert main(["sweep", "--smoke", "--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel

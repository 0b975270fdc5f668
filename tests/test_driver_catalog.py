"""The full algorithm catalog: registry integrity, oracles, seeds, resume.

This file covers the catalog-growth contract:

* every registered :class:`~repro.api.AlgorithmSpec` resolves, validates
  its param schema against the driver signature, and round-trips through
  its dict form (and scenario names round-trip through ``SweepSpec`` JSON);
* every newly registered driver runs — self-verifying against its
  sequential oracle/validator — across at least three graph families
  (tree, grid, random-connected);
* seeds actually vary the run: distinct seeds sample distinct sources even
  on unweighted families (the silent-corruption bug where every
  ``(scenario, n, seed)`` cell recomputed the identical run);
* resume keys carry the scenario-definition digest, so a store written
  under old params never silently satisfies a sweep under new ones.
"""

import json

import pytest

from repro.api import (
    AlgorithmSpec,
    ResultSet,
    SweepSpec,
    get_algorithm_spec,
    list_algorithm_specs,
    run_sweep_spec,
)
from repro.graphs import generators
from repro.sim import experiments
from repro.sim.experiments import (
    ROW_FIELDS,
    Scenario,
    SweepError,
    register_scenario,
    run_scenario,
    scenario_digest,
)

#: The three-family differential matrix the catalog contract requires.
FAMILIES = ("tree", "grid", "er")

#: algorithm -> (max_weight, size) used for the per-family differential runs.
#: Unit weights where the oracle demands them (Boruvka's MST-weight check is
#: exact only when every spanning forest is minimum).
CATALOG_CASES = {
    "boruvka": (1, 12),
    "apsp": (5, 10),
    "labeled-bfs": (7, 12),
    "decomposition": (1, 12),
    "sparse-cover": (1, 12),
    "layered-cover": (1, 12),
    "tree-aggregation": (1, 12),
    "energy-bfs-scratch": (1, 12),
    "energy-cssp": (3, 10),
}


@pytest.fixture
def temp_scenario():
    """Register throwaway scenarios; unregister them afterwards."""
    registered = []

    def register(scenario: Scenario) -> Scenario:
        registered.append(scenario.name)
        return register_scenario(scenario)

    yield register
    for name in registered:
        experiments._SCENARIOS.pop(name, None)


class TestRegistryIntegrity:
    def test_catalog_has_at_least_twelve_algorithms(self):
        assert len(list_algorithm_specs()) >= 12

    def test_every_spec_resolves_and_validates(self):
        for spec in list_algorithm_specs():
            assert callable(spec.resolve()), spec.name
            assert spec.validate() is spec

    def test_every_spec_round_trips_through_dict(self):
        for spec in list_algorithm_specs():
            clone = AlgorithmSpec.from_dict(spec.to_dict())
            assert clone == spec
            assert clone.param_schema == spec.param_schema

    def test_every_scenario_round_trips_through_sweep_spec_json(self):
        names = tuple(experiments.list_scenarios())
        assert len(names) >= 12
        spec = SweepSpec(scenarios=names, sizes=(8,), seeds=(0,))
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec
        for name in clone.scenarios:
            scenario = experiments.get_scenario(name)  # resolves, no raise
            get_algorithm_spec(scenario.algorithm)

    def test_param_schema_rejects_unknown_type(self):
        spec = AlgorithmSpec(
            "bad-type", "repro.api.drivers:drive_bfs",
            param_schema=(("x", "complex"),),
        )
        with pytest.raises(ValueError, match="unknown.*type"):
            spec.validate()

    def test_param_schema_rejects_param_the_driver_lacks(self):
        spec = AlgorithmSpec(
            "bad-param", "repro.api.drivers:drive_bfs",
            param_schema=(("no_such_param", "int"),),
        )
        with pytest.raises(ValueError, match="does not accept"):
            spec.validate()

    def test_register_algorithm_spec_rejects_bad_schema_shape(self):
        from repro.api import register_algorithm_spec

        with pytest.raises(ValueError, match="unknown.*type"):
            register_algorithm_spec(
                AlgorithmSpec("bad-shape", "repro.api.drivers:drive_bfs",
                              param_schema=(("x", "integer"),))
            )
        with pytest.raises(ValueError, match="model"):
            register_algorithm_spec(
                AlgorithmSpec("bad-model", "repro.api.drivers:drive_bfs",
                              model="quantum")
            )

    def test_register_scenario_rejects_undeclared_param(self):
        with pytest.raises(SweepError, match="unknown param"):
            register_scenario(
                Scenario("bad/undeclared", "tree", "energy-bfs",
                         params=(("bases", 4),))
            )

    def test_register_scenario_rejects_mistyped_param(self):
        with pytest.raises(SweepError, match="must be int"):
            register_scenario(
                Scenario("bad/mistyped", "tree", "energy-bfs",
                         params=(("base", "four"),))
            )


class TestCatalogDifferential:
    """Each new driver self-verifies against its oracle on >= 3 families."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("algorithm", sorted(CATALOG_CASES))
    def test_driver_passes_its_oracle(self, temp_scenario, algorithm, family):
        max_weight, size = CATALOG_CASES[algorithm]
        name = f"test-catalog/{algorithm}-{family}"
        temp_scenario(
            Scenario(name, family, algorithm, max_weight=max_weight)
        )
        row = run_scenario(name, size, seed=0)  # DriverError -> SweepError
        assert row["algorithm"] == algorithm
        assert row["rounds"] > 0
        assert row["messages"] > 0

    def test_boruvka_reports_exact_mst_weight(self, temp_scenario):
        temp_scenario(Scenario("test-catalog/boruvka", "er", "boruvka"))
        row = run_scenario("test-catalog/boruvka", 14, seed=2)
        graph = generators.make_family("er", 14, 1, seed=2)
        assert row["mst_weight"] == graph.mst_weight()
        assert row["forest_weight"] == row["mst_weight"]  # unit weights

    def test_boruvka_tolerates_weighted_instances(self, temp_scenario):
        # The Thm 2.2 forest is maximal, not minimum: on non-uniform
        # weights the driver must not flag correct output as an oracle
        # disagreement — the weight check relaxes to the MST lower bound.
        temp_scenario(Scenario("test-catalog/boruvka-w", "er", "boruvka",
                               max_weight=9))
        row = run_scenario("test-catalog/boruvka-w", 14, seed=2)
        assert row["forest_weight"] >= row["mst_weight"]

    def test_cover_scenarios_report_quality_columns(self, temp_scenario):
        temp_scenario(Scenario("test-catalog/cover", "grid", "sparse-cover"))
        row = run_scenario("test-catalog/cover", 12, seed=0)
        assert row["cover_clusters"] >= 1
        assert row["cover_degree"] >= 1
        assert row["cover_radius"] >= 0

    def test_energy_scenarios_report_per_node_energy(self, temp_scenario):
        temp_scenario(
            Scenario("test-catalog/agg", "tree", "tree-aggregation")
        )
        row = run_scenario("test-catalog/agg", 12, seed=0)
        assert row["energy"] >= row["energy_avg"] > 0

    def test_preprocess_columns_meter_cover_construction(self):
        # The Thm 3.8 query columns must not absorb the Thm 3.11
        # construction; the construction must still be visible (the
        # under-counting bug: the cover used to be built outside metrics).
        row = run_scenario("energy-bfs/path", 12, seed=0)
        assert row["preprocess_rounds"] > 0
        assert row["preprocess_messages"] > 0
        assert row["preprocess_energy"] > 0
        scratch = run_scenario("energy-bfs-scratch/tree", 12, seed=0)
        assert scratch["preprocess_rounds"] > 0

    def test_extras_flow_through_tables_fits_and_stores(self, temp_scenario, tmp_path):
        from repro.analysis import fit_sweep, sweep_columns, sweep_table

        temp_scenario(Scenario("test-catalog/boruvka-flow", "er", "boruvka"))
        spec = SweepSpec(scenarios=("test-catalog/boruvka-flow",),
                         sizes=(10, 14, 18), seeds=(0,),
                         output=str(tmp_path / "runs.jsonl"))
        rows = run_sweep_spec(spec)
        assert "mst_weight" in sweep_columns(rows)
        assert "mst_weight" in sweep_table(rows)
        fits = fit_sweep(rows, y="mst_weight")
        assert "test-catalog/boruvka-flow" in fits
        # Store round-trip: resumed rows carry the quality columns too.
        resumed = run_sweep_spec(spec)
        assert resumed == rows

    def test_core_row_fields_precede_extras(self, temp_scenario):
        temp_scenario(Scenario("test-catalog/apsp-order", "tree", "apsp",
                               max_weight=5))
        row = run_scenario("test-catalog/apsp-order", 10, seed=1)
        assert tuple(row)[: len(ROW_FIELDS)] == ROW_FIELDS
        assert sorted(tuple(row)[len(ROW_FIELDS):]) == list(tuple(row)[len(ROW_FIELDS):])


class TestSeedVariation:
    """Distinct seeds must sample distinct sources (the seed-ignored bug)."""

    def test_source_node_varies_with_seed(self):
        from repro.api.drivers import _source_node

        graph = generators.make_family("grid", 16, 1, seed=0)
        sources = {_source_node(graph, seed) for seed in range(6)}
        assert len(sources) > 1

    def test_unweighted_scenario_rows_vary_across_seeds(self):
        # On an unweighted family the instance is seed-independent, so any
        # row variation can only come from the seeded source draw.
        rows = [run_scenario("bfs/grid", 16, seed=seed) for seed in range(6)]
        assert len({row["rounds"] for row in rows}) > 1

    def test_two_seeds_differ_for_sleeping_scenario(self):
        rows = [run_scenario("energy-bfs/path", 12, seed=seed) for seed in range(4)]
        assert len({(row["rounds"], row["energy"]) for row in rows}) > 1


class TestParamsAwareResume:
    """Resume keys carry the scenario-definition digest (the stale-params bug)."""

    def test_digest_changes_with_params_family_and_weights(self):
        base = Scenario("x", "tree", "labeled-bfs")
        assert scenario_digest(base) == scenario_digest(
            Scenario("renamed", "tree", "labeled-bfs")
        )  # the *name* is not part of the definition
        assert scenario_digest(base) != scenario_digest(
            Scenario("x", "tree", "labeled-bfs", params=(("num_sources", 2),))
        )
        assert scenario_digest(base) != scenario_digest(
            Scenario("x", "grid", "labeled-bfs")
        )
        assert scenario_digest(base) != scenario_digest(
            Scenario("x", "tree", "labeled-bfs", max_weight=9)
        )

    def test_digest_accepts_dict_params(self):
        # Every other consumer of Scenario.params goes through dict(), so
        # a plugin passing a mapping instead of the canonical pair-tuple
        # must digest identically, not crash in a forked worker.
        pairs = Scenario("x", "tree", "labeled-bfs", params=(("num_sources", 2),))
        mapping = Scenario("x", "tree", "labeled-bfs", params={"num_sources": 2})
        assert scenario_digest(pairs) == scenario_digest(mapping)

    def test_rows_record_the_digest(self):
        row = run_scenario("bfs/grid", 9, seed=0)
        assert row["params_digest"] == scenario_digest(
            experiments.get_scenario("bfs/grid")
        )

    def test_resume_with_changed_params_reruns_stale_cells(self, temp_scenario, tmp_path):
        name = "test-catalog/resume-params"
        spec = SweepSpec(scenarios=(name,), sizes=(10,), seeds=(0,),
                         output=str(tmp_path / "runs.jsonl"))

        temp_scenario(Scenario(name, "tree", "labeled-bfs",
                               params=(("num_sources", 2),)))
        first = run_sweep_spec(spec)

        # Same definition -> full reuse.
        executed = []
        run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
        assert executed == []

        # Changed params under the same scenario name -> the stored cell is
        # stale and MUST re-run (this used to silently reuse it).
        temp_scenario(Scenario(name, "tree", "labeled-bfs",
                               params=(("num_sources", 4),)))
        executed = []
        second = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
        assert len(executed) == 1
        assert second[0]["params_digest"] != first[0]["params_digest"]

        # And resuming *again* under the new definition reuses the new cell.
        executed = []
        third = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
        assert executed == []
        assert third == second

        # The store supersedes the stale cell: tables/fits built straight
        # from the ResultSet must not double-count the re-run cell.
        store = ResultSet(spec.output)
        assert len(store.rows()) == 1
        assert store.rows()[0]["params_digest"] == second[0]["params_digest"]

    def test_pre_digest_store_is_not_trusted(self, tmp_path):
        # A store written before the digest column is not a current
        # record: the load skips it with a warning and the cell re-runs
        # rather than being silently reused.
        path = tmp_path / "runs.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid",), sizes=(9,), seeds=(0,),
                         output=str(path))
        run_sweep_spec(spec)
        record = json.loads(path.read_text().splitlines()[0])
        del record["params_digest"]
        record["rounds"] = -1  # poison: reuse would be visible
        path.write_text(json.dumps(record) + "\n")
        with pytest.warns(RuntimeWarning, match="runs.jsonl:1: skipping"):
            rows = run_sweep_spec(spec)
        assert rows[0]["rounds"] > 0

"""The full algorithm catalog: registry integrity, oracles, seeds, resume.

This file covers the catalog-growth contract:

* every registered :class:`~repro.api.AlgorithmSpec` resolves to its
  driver, whose signature yields the pinned parameter schema (and scenario
  names round-trip through ``SweepSpec`` JSON);
* every newly registered driver runs — self-verifying against its
  sequential oracle/validator — across at least three graph families
  (tree, grid, random-connected);
* seeds actually vary the run: distinct seeds sample distinct sources even
  on unweighted families (the silent-corruption bug where every
  ``(scenario, n, seed)`` cell recomputed the identical run), and on one
  fixed instance every seeded scenario's driver gives more than one run
  over four seeds while the seed-free ones give exactly one, and a repeated
  seed gives the same run;
* a driver run is a pure function of (instance, seed): it reads no clock
  and no environment variable and leaves the global RNGs as it found them
  (:func:`purity_guard`), and on string-labelled instances it gives the
  same run under two hash seeds (:class:`TestHashOrder`);
* every driver's quality columns are string-keyed, JSON-safe, and clear
  of the core row fields;
* resume keys carry the scenario-definition digest, so a store written
  under old params never silently satisfies a sweep under new ones.
"""

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections.abc import Mapping
from pathlib import Path

import pytest

from repro.api import (
    AlgorithmSpec,
    ResultSet,
    SweepSpec,
    get_algorithm_spec,
    list_algorithm_specs,
    run_sweep_spec,
)
from repro.api.drivers import drive_bfs
from repro.graphs import Graph, generators
from repro.sim import Metrics, experiments, simulation_engine
from repro.sim.events import canonical_latency, choose_engine
from repro.sim.experiments import (
    ROW_FIELDS,
    Scenario,
    SweepError,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_digest,
)
from repro.sim.kernels import numpy_or_none
from repro.testing import subprocess_env

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


#: Every built-in driver's parameter schema, name -> type name.
PARAM_SCHEMAS = {
    "apsp": {"capacity_log_factor": "int"},
    "bellman-ford": {},
    "bfs": {},
    "boruvka": {},
    "cssp": {},
    "decomposition": {"separation": "int"},
    "dijkstra": {},
    "energy-bfs": {"base": "int", "stretch": "int"},
    "energy-bfs-scratch": {"base": "int", "stretch": "int"},
    "energy-cssp": {"base": "int", "stretch": "int"},
    "labeled-bfs": {"num_sources": "int"},
    "layered-cover": {"base": "int"},
    "sparse-cover": {"d": "int"},
    "sssp": {},
    "tree-aggregation": {"cycles": "int"},
}


class TestRegistryIntegrity:
    def test_catalog_has_at_least_twelve_algorithms(self):
        assert len(list_algorithm_specs()) >= 15

    def test_every_spec_resolves_to_its_driver(self):
        for spec in list_algorithm_specs():
            assert spec.resolve() is spec.driver, spec.name
            assert callable(spec.driver), spec.name

    def test_derived_param_schemas_match_the_declared_table(self):
        derived = {
            spec.name: {name: type(default).__name__
                        for name, default in spec.params().items()}
            for spec in list_algorithm_specs()
        }
        assert derived == PARAM_SCHEMAS

    def test_every_scenario_round_trips_through_sweep_spec_json(self):
        names = tuple(experiments.list_scenarios())
        assert len(names) >= 12
        spec = SweepSpec(scenarios=names, sizes=(8,), seeds=(0,))
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec
        for name in clone.scenarios:
            scenario = experiments.get_scenario(name)  # resolves, no raise
            get_algorithm_spec(scenario.algorithm)

    def test_register_algorithm_spec_rejects_bad_schema_shape(self):
        from repro.api import register_algorithm_spec

        def no_default(graph, seed, metrics, x):
            return None

        with pytest.raises(ValueError, match="'x' needs a default"):
            register_algorithm_spec(AlgorithmSpec("bad-shape", no_default))
        with pytest.raises(ValueError, match="model"):
            register_algorithm_spec(
                AlgorithmSpec("bad-model", drive_bfs, model="quantum")
            )
        assert "bad-shape" not in {spec.name for spec in list_algorithm_specs()}

    def test_register_algorithm_spec_rejects_unknown_fault_kind(self):
        from repro.api import register_algorithm_spec

        with pytest.raises(ValueError, match="unknown fault kind 'lose'"):
            register_algorithm_spec(
                AlgorithmSpec("bad-fault", drive_bfs, fault_tolerance=("lose",))
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

    def test_register_scenario_rejects_a_bool_for_an_int_param(self):
        # bool subclasses int, so isinstance alone would let True through.
        with pytest.raises(SweepError, match="must be int, got True"):
            register_scenario(
                Scenario("bad/bool", "tree", "energy-bfs",
                         params=(("base", True),))
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


#: Algorithms that draw nothing: the driver ignores its seed, so on one
#: fixed instance every seed must give the same run.  Every other
#: registered algorithm must use its seed.
SEED_FREE = {
    "boruvka": "fragments merge by edge id",
    "decomposition": "the construction is deterministic per instance",
    "sparse-cover": "the construction is deterministic per instance",
    "layered-cover": "the construction is deterministic per instance",
}


#: The clocks a driver run must not read: a time reading is no function of
#: (scenario, size, seed), so it cannot reach a row or a stopping decision.
CLOCKS = tuple(
    name + suffix
    for name in ("time", "monotonic", "perf_counter", "process_time")
    for suffix in ("", "_ns")
)


class NoEnviron(Mapping):
    """Stands in for ``os.environ`` while a driver runs: any read fails.

    An environment variable would be a hidden axis that no scenario digest
    records.  ``os.getenv`` and ``in``/``get`` read through here too.
    """

    def __getitem__(self, key):
        raise AssertionError(f"the driver read os.environ[{key!r}]")

    def __iter__(self):
        raise AssertionError("the driver iterated os.environ")

    def __len__(self):
        raise AssertionError("the driver measured os.environ")


def stopped_clock(name: str):
    def read(*_args):
        raise AssertionError(f"the driver read time.{name}()")

    return read


def global_rng_states() -> list:
    """The state of ``random``'s global RNG, and numpy's when installed."""
    states = [random.getstate()]
    np = numpy_or_none()
    if np is not None:
        kind, keys, pos, has_gauss, gauss = np.random.get_state()
        states.append((kind, keys.tobytes(), pos, has_gauss, gauss))
    return states


@contextlib.contextmanager
def purity_guard():
    """Fail a run that reads a clock or the environment, or moves a global RNG.

    Seeded draws go through ``random.Random(seed)`` instances; a draw from,
    or a reseed of, a global RNG changes its state and fails the check
    that follows the run.
    """
    before = global_rng_states()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "environ", NoEnviron())
        for name in CLOCKS:
            patch.setattr(time, name, stopped_clock(name))
        yield
    assert global_rng_states() == before, "the driver drew from or reseeded a global RNG"


def drive(scenario: Scenario, driver, graph, seed: int) -> tuple:
    """Run ``driver`` once on ``graph`` under the scenario's engine setup.

    The engine's own seeded draws (latency, faults) are fixed at seed 0,
    so only the seed handed to the driver can vary the run.  The driver
    runs under :func:`purity_guard`.  Returns the metrics and the driver's
    quality columns.
    """
    engine = choose_engine(
        None, canonical_latency(scenario.latency_model), scenario.bounded
    )
    metrics = Metrics()
    with simulation_engine(
        engine,
        scenario.latency_model,
        seed=0,
        faults=scenario.fault_model,
        max_time=scenario.max_time,
        message_budget=scenario.message_budget,
    ), purity_guard():
        extras = driver(graph, seed, metrics, **dict(scenario.params))
    return metrics, extras


def run_key(metrics: Metrics, extras) -> str:
    """A run as one string: the metrics' full ``to_dict()`` plus the extras."""
    return json.dumps([metrics.to_dict(), extras], sort_keys=True)


def distinct_runs(scenario: Scenario, driver) -> int:
    """How many distinct runs ``driver`` gives on one instance over seeds 0-3.

    The instance is fixed (``build_graph(12, 0)``).  Seed 0 runs twice and
    must give the same run both times, which an unseeded ``random.Random()``
    would not.
    """
    graph = scenario.build_graph(12, 0)
    runs = [run_key(*drive(scenario, driver, graph, seed)) for seed in (0, 1, 2, 3, 0)]
    assert runs[-1] == runs[0], f"{scenario.name}: seed 0 gave two different runs"
    return len(set(runs))


#: Acts on ``random``'s global RNG; each one moves its state.
GLOBAL_RANDOM_ACTS = {
    "random": lambda: random.random(),
    "seed": lambda: random.seed(7),
    "shuffle": lambda: random.shuffle([1, 2, 3]),
    "randrange": lambda: random.randrange(10),
    "choice": lambda: random.choice("abc"),
    "sample": lambda: random.sample(range(5), 2),
    "getrandbits": lambda: random.getrandbits(8),
    "uniform": lambda: random.uniform(0, 1),
}

#: Acts on numpy's global RNG (called with the numpy module).
NUMPY_RANDOM_ACTS = {
    "rand": lambda np: np.random.rand(),
    "seed": lambda np: np.random.seed(7),
    "randint": lambda np: np.random.randint(9),
    "permutation": lambda np: np.random.permutation(4),
}

#: Reads of the environment; ``os.getenv`` reads through ``os.environ``.
ENVIRON_READS = {
    "getitem": lambda: os.environ["PATH"],
    "get": lambda: os.environ.get("PATH"),
    "getenv": lambda: os.getenv("PATH"),
    "getenv-default": lambda: os.getenv("HOME", ""),
    "contains": lambda: "PATH" in os.environ,
    "iter": lambda: list(os.environ),
    "len": lambda: len(os.environ),
    "items": lambda: list(os.environ.items()),
    "dict": lambda: dict(os.environ),
}

#: What the guard swaps out, as (module, attribute).
GUARDED = [(time, name) for name in CLOCKS] + [(os, "environ")]


@pytest.fixture
def global_rngs_kept():
    """Put the global RNGs back after a test that moves them on purpose."""
    state = random.getstate()
    np = numpy_or_none()
    np_state = np.random.get_state() if np is not None else None
    yield
    random.setstate(state)
    if np is not None:
        np.random.set_state(np_state)


class TestPurityGuard:
    """The guard fails each impure act it is there for, and only those.

    A guard that never fires on a clean catalog shows nothing unless it is
    seen to fire on the acts it stands against.
    """

    @pytest.mark.parametrize("act", sorted(GLOBAL_RANDOM_ACTS))
    def test_global_random_act_fails(self, act, global_rngs_kept):
        with pytest.raises(AssertionError, match="global RNG"):
            with purity_guard():
                GLOBAL_RANDOM_ACTS[act]()

    @pytest.mark.parametrize("act", sorted(NUMPY_RANDOM_ACTS))
    def test_numpy_global_random_act_fails(self, act, global_rngs_kept):
        np = pytest.importorskip("numpy")
        with pytest.raises(AssertionError, match="global RNG"):
            with purity_guard():
                NUMPY_RANDOM_ACTS[act](np)

    def test_seeded_instance_draws_pass(self):
        with purity_guard():
            rng = random.Random(5)
            rng.shuffle([1, 2, 3])
            rng.random()

    def test_seeded_numpy_generator_draws_pass(self):
        np = pytest.importorskip("numpy")
        with purity_guard():
            np.random.default_rng(5).random(3)

    @pytest.mark.parametrize("name", CLOCKS)
    def test_clock_read_raises(self, name):
        with purity_guard():
            with pytest.raises(AssertionError, match=rf"time\.{name}\(\)"):
                getattr(time, name)()

    @pytest.mark.parametrize("read", sorted(ENVIRON_READS))
    def test_environ_read_raises(self, read):
        with purity_guard():
            with pytest.raises(AssertionError, match="os.environ"):
                ENVIRON_READS[read]()

    @pytest.mark.parametrize(
        "module, name", GUARDED, ids=[f"{m.__name__}.{n}" for m, n in GUARDED]
    )
    def test_failing_run_restores_what_the_guard_swapped(self, module, name):
        original = getattr(module, name)
        with pytest.raises(RuntimeError):
            with purity_guard():
                raise RuntimeError("the driver failed")
        assert getattr(module, name) is original

    def test_clean_run_restores_what_the_guard_swapped(self):
        originals = [getattr(module, name) for module, name in GUARDED]
        with purity_guard():
            pass
        assert [getattr(module, name) for module, name in GUARDED] == originals
        assert os.getenv("PATH") == os.environ.get("PATH")

    @pytest.mark.parametrize("impurity", ["clock", "environ", "global-rng"])
    def test_drive_runs_the_driver_under_the_guard(self, impurity, global_rngs_kept):
        scenario = get_scenario("sssp/er")
        real = get_algorithm_spec(scenario.algorithm).resolve()
        act = {
            "clock": lambda: time.perf_counter(),
            "environ": lambda: os.getenv("PATH"),
            "global-rng": lambda: random.random(),
        }[impurity]

        def impure(graph, seed, metrics):
            act()
            return real(graph, seed, metrics)

        with pytest.raises(AssertionError):
            drive(scenario, impure, scenario.build_graph(12, 0), 0)

    def test_unseeded_instance_fails_the_repeated_seed(self):
        scenario = get_scenario("sssp/er")

        def unseeded(graph, seed, metrics):
            return {"pick": random.Random().randrange(10**9)}

        with pytest.raises(AssertionError, match="seed 0 gave two different runs"):
            distinct_runs(scenario, unseeded)

    def test_seeded_instance_passes_the_repeated_seed(self):
        scenario = get_scenario("sssp/er")

        def seeded(graph, seed, metrics):
            return {"pick": random.Random(seed).randrange(10**9)}

        assert distinct_runs(scenario, seeded) == 4


class TestSeedVariation:
    """Distinct seeds must sample distinct sources (the seed-ignored bug)."""

    @pytest.mark.parametrize("name", list_scenarios())
    def test_driver_seed_reaches_the_run(self, name):
        scenario = get_scenario(name)
        driver = get_algorithm_spec(scenario.algorithm).resolve()
        runs = distinct_runs(scenario, driver)
        if scenario.algorithm in SEED_FREE:
            assert runs == 1, SEED_FREE[scenario.algorithm]
        else:
            assert runs > 1, f"{name}: four seeds gave one run; the seed is dropped"

    def test_a_seed_dropping_driver_gives_one_run(self):
        # Negative control: the check above must see through a driver that
        # takes a seed and never uses it.
        scenario = get_scenario("sssp/er")
        real = get_algorithm_spec(scenario.algorithm).resolve()

        def drops_its_seed(graph, seed, metrics):
            return real(graph, 0, metrics)

        assert distinct_runs(scenario, real) > 1
        assert distinct_runs(scenario, drops_its_seed) == 1

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


def string_labelled(graph: Graph) -> Graph:
    """``graph`` with each node ``u`` renamed ``f"v{u}"``, in the same order."""
    return Graph.from_edges(
        ((f"v{u}", f"v{v}", w) for u, v, w in graph.edges()),
        nodes=(f"v{u}" for u in graph.nodes()),
    )


def hash_order_report() -> dict:
    """This process's string set order, and a digest of each scenario's runs.

    The runs are on string-labelled instances, seeds 0 and 1.
    """
    digests = {}
    for name in list_scenarios():
        scenario = get_scenario(name)
        driver = get_algorithm_spec(scenario.algorithm).resolve()
        digests[name] = []
        for seed in (0, 1):
            graph = string_labelled(scenario.build_graph(12, seed))
            key = run_key(*drive(scenario, driver, graph, seed))
            digests[name].append(hashlib.sha256(key.encode()).hexdigest()[:16])
    return {"set_order": list({f"v{u}" for u in range(12)}), "digests": digests}


class TestHashOrder:
    """A run must not depend on set or dict order of hashed labels.

    Small ints hash to themselves, so on the catalog's int-labelled graphs
    set order is the same in every process.  String hashes change with
    ``PYTHONHASHSEED``, so the same runs on string labels under two hash
    seeds show any order that leaks from a set into a run.  Both reports
    come from two subprocesses, run once for the whole class.
    """

    HASH_SEEDS = ("1", "3")

    @pytest.fixture(scope="class")
    def reports(self):
        script = (
            f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import test_driver_catalog as t; print(json.dumps(t.hash_order_report()))"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                env={**subprocess_env(), "PYTHONHASHSEED": hash_seed},
            )
            for hash_seed in self.HASH_SEEDS
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err[-2000:]
            reports.append(json.loads(out))
        return reports

    def test_the_hash_seeds_order_string_sets_differently(self, reports):
        # Control: if both processes iterated string sets alike, no leak
        # could show below.
        first, second = (report["set_order"] for report in reports)
        assert sorted(first) == sorted(second)
        assert first != second

    def test_both_processes_ran_every_scenario(self, reports):
        for report in reports:
            assert list(report["digests"]) == list_scenarios()

    @pytest.mark.parametrize("name", list_scenarios())
    def test_string_labelled_runs_agree_across_hash_seeds(self, name, reports):
        first, second = (report["digests"].get(name) for report in reports)
        assert first == second, f"{name}: runs (seeds 0, 1) depend on the hash seed"


class TestRowContract:
    """A driver's quality columns must be storable row columns."""

    @pytest.mark.parametrize("name", list_scenarios())
    def test_driver_extras_are_json_safe_and_not_core(self, name):
        # A collision with a core field is rejected only deep inside a
        # sweep, and a tuple or set value changes on the store round trip.
        scenario = get_scenario(name)
        driver = get_algorithm_spec(scenario.algorithm).resolve()
        _metrics, extras = drive(scenario, driver, scenario.build_graph(12, 0), 0)
        extras = extras or {}
        assert all(isinstance(key, str) for key in extras), sorted(map(repr, extras))
        assert not set(extras) & {*ROW_FIELDS, "metrics"}, sorted(extras)
        assert json.loads(json.dumps(extras)) == extras


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

    def test_digest_ignores_param_order(self):
        # Equal definitions must share a resume key however their params
        # were spelled: the digest hashes canonical (key-sorted) JSON.
        forward = Scenario("x", "tree", "energy-bfs",
                           params=(("base", 2), ("stretch", 3)))
        backward = Scenario("x", "tree", "energy-bfs",
                            params=(("stretch", 3), ("base", 2)))
        assert scenario_digest(forward) == scenario_digest(backward)

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

"""The async-vs-sync differential oracle (the PR's acceptance gate).

Every registered scenario, run under the event engine with uniform unit
latency, must produce tidy rows — and serialized metrics payloads —
identical to the synchronous round engine: through the cell runner
directly, through :func:`repro.api.run_sweep_spec` at multiple worker
counts, and under resume against a store written by the other engine.
The latency-heterogeneous axis is exercised the other way: non-unit
models must change the digest (forcing re-runs, not silent reuse) and
flow through to tidy rows, stores, and rendered reports.
"""

import json

import pytest

from repro.analysis.sweeps import sweep_columns, sweep_report, sweep_table
from repro.api import ResultSet, SpecError, SweepSpec, run_sweep_spec, smoke_spec
from repro.sim.events import simulation_engine
from repro.sim.experiments import (
    SweepError,
    _run_cell,
    get_scenario,
    list_scenarios,
    run_scenario,
)

SMOKE_SIZES = (12, 18)

#: A fast, representative subset for the sweep-level tests (full catalog
#: parity is covered cell-by-cell below).
FAST_SCENARIOS = ("bfs/grid", "bellman-ford/er", "energy-bfs/path", "tree-aggregation/tree")


@pytest.mark.parametrize("name", list_scenarios())
def test_every_scenario_row_identical_under_event_engine(name):
    for n in SMOKE_SIZES:
        sync_row, sync_metrics = _run_cell(name, n, 0)
        event_row, event_metrics = _run_cell(name, n, 0, engine="event")
        assert event_row == sync_row
        assert event_metrics.to_dict() == sync_metrics.to_dict()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_identical_at_worker_counts(workers):
    base = SweepSpec(scenarios=FAST_SCENARIOS, sizes=SMOKE_SIZES, seeds=(0, 1),
                     workers=workers)
    sync_rows = run_sweep_spec(base)
    event_rows = run_sweep_spec(base.replace(engine="event"))
    assert event_rows == sync_rows


def test_resume_across_engines_reuses_cells(tmp_path):
    # Engine choice is provenance, not identity: a store written by the
    # round engine must satisfy a resume under the event engine verbatim.
    path = tmp_path / "runs.jsonl"
    spec = SweepSpec(scenarios=FAST_SCENARIOS, sizes=SMOKE_SIZES, seeds=(0,),
                     output=str(path))
    sync_rows = run_sweep_spec(spec)
    executed = []
    event_rows = run_sweep_spec(
        spec.replace(engine="event"),
        progress=lambda done, total, row: executed.append(row),
    )
    assert executed == []  # every cell reused from the sync store
    assert event_rows == sync_rows


def test_interrupted_event_sweep_resumes_to_sync_rows(tmp_path):
    path = tmp_path / "runs.jsonl"
    spec = SweepSpec(scenarios=FAST_SCENARIOS, sizes=SMOKE_SIZES, seeds=(0,),
                     output=str(path), engine="event")
    fresh = run_sweep_spec(SweepSpec(scenarios=FAST_SCENARIOS, sizes=SMOKE_SIZES,
                                     seeds=(0,)))
    first = run_sweep_spec(spec)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:11])  # torn tail
    resumed = run_sweep_spec(spec)
    assert resumed == first == fresh


def test_stored_metrics_payloads_identical(tmp_path):
    sync_store = tmp_path / "sync.jsonl"
    event_store = tmp_path / "event.jsonl"
    base = SweepSpec(scenarios=FAST_SCENARIOS, sizes=(12,), seeds=(0,))
    run_sweep_spec(base.replace(output=str(sync_store)))
    run_sweep_spec(base.replace(output=str(event_store), engine="event"))
    sync_records = [json.loads(line) for line in sync_store.read_text().splitlines()]
    event_records = [json.loads(line) for line in event_store.read_text().splitlines()]
    assert event_records == sync_records  # full records, metrics payloads included


def test_smoke_catalog_identical_under_event_engine():
    sync_rows = run_sweep_spec(smoke_spec())
    event_rows = run_sweep_spec(smoke_spec().replace(engine="event"))
    assert event_rows == sync_rows


# ----------------------------------------------------------------------
# the latency_model sweep axis
# ----------------------------------------------------------------------
def test_latency_override_changes_digest_and_rows():
    unit = run_scenario("bellman-ford/er", 18, 0)
    delayed = run_scenario("bellman-ford/er", 18, 0, latency_model="random:4")
    assert unit["latency_model"] == "unit"
    assert delayed["latency_model"] == "random:4"
    assert delayed["params_digest"] != unit["params_digest"]
    assert delayed["rounds"] > unit["rounds"]  # delays stretch virtual time


def test_latency_axis_sweeps_and_resumes(tmp_path):
    path = tmp_path / "latency.jsonl"
    spec = SweepSpec(scenarios=("bellman-ford/er",), sizes=(12, 18), seeds=(0, 1),
                     latency_model="uniform:2", output=str(path))
    rows = run_sweep_spec(spec)
    assert all(row["latency_model"] == "uniform:2" for row in rows)
    executed = []
    resumed = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
    assert executed == [] and resumed == rows
    # A different latency model misses the resume key and re-runs.
    executed = []
    run_sweep_spec(spec.replace(latency_model="uniform:3"),
                   progress=lambda d, t, row: executed.append(row))
    assert len(executed) == 4


def test_heterogeneous_scenarios_registered_and_deterministic():
    names = list_scenarios()
    assert "bellman-ford/er@delay4" in names
    assert "bellman-ford/grid@stretch3" in names
    a = run_scenario("bellman-ford/er@delay4", 18, 0)
    b = run_scenario("bellman-ford/er@delay4", 18, 0)
    assert a == b  # seeded per-edge delays are fork- and process-stable
    assert a["latency_model"] == "random:4"
    # Distinct seeds draw distinct delay tables: a real per-cell axis.
    other = run_scenario("bellman-ford/er@delay4", 18, 1)
    assert (other["rounds"], other["messages"]) != (a["rounds"], a["messages"])


def test_round_engine_rejects_latency_scenarios():
    with pytest.raises(SpecError):
        SweepSpec(scenarios=("bellman-ford/er",), engine="round",
                  latency_model="random:4").validate()
    spec = SweepSpec(scenarios=("bellman-ford/er@delay4",), sizes=(12,), engine="round")
    with pytest.raises(SpecError):
        run_sweep_spec(spec)


@pytest.mark.parametrize("name, rule", [
    ("bellman-ford/er@delay4", "cannot express latency model 'random:4'"),
    ("bellman-ford/er@budget", "max_time/message_budget"),
])
def test_round_pin_refused_alike_at_every_entry_point(name, rule, tmp_path):
    # One rule picks a cell's engine.  A round pin on a scenario whose
    # latency model or stop bound needs the event engine gets the same
    # message from the engine context, the single-cell API and the sweep,
    # and the sweep refuses it before any cell runs or its store opens.
    scenario = get_scenario(name)
    with pytest.raises(ValueError, match=rule) as direct:
        with simulation_engine("round", scenario.latency_model,
                               max_time=scenario.max_time,
                               message_budget=scenario.message_budget):
            pass
    message = str(direct.value)
    with pytest.raises(SweepError) as cell:
        run_scenario(name, 12, engine="round")
    assert message in str(cell.value)
    for workers in (1, 2):
        store = tmp_path / f"workers{workers}.jsonl"
        spec = SweepSpec(scenarios=("bfs/grid", name), sizes=(12,), engine="round",
                         workers=workers, output=str(store))
        ran = []
        with pytest.raises(SpecError) as sweep:
            run_sweep_spec(spec, progress=lambda done, total, row: ran.append(row))
        assert message in str(sweep.value)
        assert ran == [] and not store.exists()


def test_latency_model_rendered_in_tables_and_reports():
    rows = run_sweep_spec(
        SweepSpec(scenarios=("bellman-ford/er", "bellman-ford/er@delay4"),
                  sizes=(12,), seeds=(0,))
    )
    assert "latency_model" in sweep_columns(rows)
    table = sweep_table(rows)
    report = sweep_report(rows)
    for text in (table, report):
        assert "latency_model" in text
        assert "random:4" in text


def test_old_stores_without_latency_column_still_resume(tmp_path):
    # Simulate a pre-latency store: strip the latency_model field from the
    # records.  The resume must still hit (unit digests are unchanged) and
    # the reloaded rows must default the column to "unit".
    path = tmp_path / "old.jsonl"
    spec = SweepSpec(scenarios=("bfs/grid",), sizes=(12,), seeds=(0,),
                     output=str(path))
    fresh = run_sweep_spec(spec)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record.pop("latency_model")
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    executed = []
    resumed = run_sweep_spec(spec, progress=lambda d, t, row: executed.append(row))
    assert executed == []
    assert resumed == fresh


def test_in_memory_store_roundtrip_with_latency():
    store = ResultSet()
    rows = run_sweep_spec(
        SweepSpec(scenarios=("bellman-ford/grid@stretch3",), sizes=(12,), seeds=(0,)),
        store=store,
    )
    assert rows[0]["latency_model"] == "uniform:3"

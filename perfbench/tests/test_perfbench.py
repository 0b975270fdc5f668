"""The benchmark's own tests: short-mode runs, tracer self-checks, contract.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_run_reports_every_end_to_end_metric(name):
    report, result = _result(_bench("--workload", name, "--seed", "3", "--seconds", "1",
                                    "--trace", "0", "--short"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["backend"] == "numpy" and report["seed"] == 3
    assert report["failed_frac"] == 0
    assert report["cell_s"]["samples"] > 0 and report["cell_s"]["p90"] >= report["cell_s"]["p50"] > 0
    assert report["raw_wall_s"] > 0 and report["reference_loop_s"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_traced_run_passes_its_self_checks(name):
    report, result = _result(_bench("--workload", name, "--trace", "1", "--short"))
    assert result["correct"], report["failures"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    checks = report["checks"]
    assert checks["unrestored"] == [] and checks["unpatched_step_methods"] == []
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["step.calls"] > 0 and values["engine.msgs"] > 0
    assert values["trace.overhead"] > 0 and 0 < values["trace.coverage"]
    if name == "sssp-event":
        assert checks["kernel_gate_open"] and values["runner.runs"] == 0
    if name == "apsp":
        assert values["kernel.rounds"] == 0 and values["metrics.hook_calls"] > 0
    if name == "sweep":
        assert values["faults.draws"] > 0 and values["shm.segments"] > 0
        assert values["sweep.workers_spawned"] == 2
    else:
        assert values["faults.draws"] == 0


def test_traced_counts_repeat_exactly():
    runs = [_result(_bench("--workload", "apsp", "--trace", "1", "--short"))[1]
            for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]


def test_pass_seconds_sums_per_cell_medians_of_sequential_passes():
    passes = [
        {"wall_s": 3.0, "cell_s": [1.0, 2.0]},
        {"wall_s": 11.0, "cell_s": [9.0, 2.0]},  # a burst of host load in one cell
        {"wall_s": 3.3, "cell_s": [1.2, 2.1]},
    ]
    assert run.pass_seconds(passes, sequential=True) == pytest.approx(1.2 + 2.0)
    assert run.pass_seconds(passes, sequential=False) == pytest.approx(3.3)


def test_seed_shifts_the_rows_of_random_graph_scenarios():
    from repro.sim.experiments import run_scenario

    for name in workloads.SEED_SENSITIVE:
        rows = [dict(run_scenario(name, 12, seed)) for seed in (0, 1)]
        for row in rows:
            row.pop("seed")
        assert rows[0] != rows[1], name


def test_seed_blind_rows_are_caught():
    workload = workloads.get_workload("energy-sssp", short=True)
    row = {"scenario": "energy-cssp/er", "seed": 0, "rounds": 5}
    rows = {
        workloads.cell_id("energy-cssp/er", n, s): json.dumps({**row, "seed": s})
        for n in workload.sizes for s in workload.seeds(0)
    }
    assert workloads.seed_blind_cells(workload, 0, rows) == ["energy-cssp/er|24"]


def test_tracer_restores_every_patch_and_sees_lazy_classes():
    from repro.sim.experiments import run_scenario

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("pass"):
            run_scenario("energy-bfs/path", 16, 0)
    finally:
        tracer.restore()
    assert tracer.patches.unrestored() == []
    names = {f"{cls.__name__}.{m}" for cls, m in tracing.step_classes()}
    assert "LowEnergyBFSNode.on_round" in names
    assert all(tracer.patches.covers(cls, m) for cls, m in tracing.step_classes())
    steps = sum(span[6].get("step", [0])[0] for span in tracer.spans)
    assert steps > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "apsp", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""The benchmark's four workloads and one pass over each.

A *pass* runs every cell of a workload once, on the numpy backend, and
returns its rows, its per-cell latencies and its message count.  Every
workload lists its scenarios explicitly, so registering a new scenario
never changes a workload's input.  The workload seed ``s`` shifts each
workload's seed list (``s, s+1, ...``); sizes are fixed.

Cells fail when their driver oracle raises, when they come back as a
``failed`` row, or (checked by the caller) when their row diverges from
another pass over the same cell.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

#: The built-in catalog minus ``apsp/er`` (which has a workload of its own).
SWEEP_SCENARIOS = (
    "bellman-ford/er",
    "bellman-ford/er@budget",
    "bellman-ford/er@crashrestart",
    "bellman-ford/er@delay4",
    "bellman-ford/er@drop5",
    "bellman-ford/grid@lossy",
    "bellman-ford/grid@stretch3",
    "bfs/grid",
    "bfs/grid@crash2",
    "boruvka/er",
    "cssp/er",
    "decomposition/er",
    "dijkstra/er",
    "energy-bfs-scratch/tree",
    "energy-bfs/path",
    "energy-cssp/er",
    "labeled-bfs/grid",
    "layered-cover/tree",
    "sparse-cover/grid",
    "sssp/er",
    "sssp/grid",
    "sssp/path",
    "tree-aggregation/tree",
)

#: Scenarios whose instance (weights and source) is drawn from the cell
#: seed on every size, so two seeds must give two different rows.  A row
#: that repeats across seeds means the seed was ignored somewhere.
SEED_SENSITIVE = ("sssp/er", "cssp/er", "energy-cssp/er", "apsp/er")


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple
    sizes: tuple
    seed_count: int
    engine: str | None = None  # None: each scenario's own default engine
    workers: int = 1  # > 1: run through the sweep supervisor

    def seeds(self, seed: int) -> tuple:
        return tuple(seed + k for k in range(self.seed_count))

    def cells(self, seed: int) -> list[tuple]:
        """The ``(scenario, size, seed)`` cross product in row order."""
        return [
            (name, n, s)
            for name in self.scenarios
            for n in self.sizes
            for s in self.seeds(seed)
        ]


#: Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP_SCENARIOS, (32, 64), 2, workers=2),
        Workload("energy-sssp", ("energy-cssp/er",), (48, 64), 3, engine="round"),
        Workload("sssp-event", ("sssp/er", "sssp/grid", "sssp/path"), (192, 256), 2,
                 engine="event"),
        Workload("apsp", ("apsp/er",), (16, 20, 24), 2, engine="round"),
    )
}

#: Small variants of each workload for the benchmark's own tests.
SHORT = {
    "sweep": dict(sizes=(12,), seed_count=2),
    "energy-sssp": dict(sizes=(24,), seed_count=2),
    "sssp-event": dict(sizes=(48,), seed_count=2),
    "apsp": dict(sizes=(8,), seed_count=2),
}


def get_workload(name: str, short: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **SHORT[name]) if short else workload


def row_bytes(row: dict) -> str:
    """The canonical byte form of one tidy row (column order preserved)."""
    return json.dumps(row, separators=(",", ":"))


@dataclass
class PassResult:
    wall_s: float
    messages: int
    cell_s: list  # per-cell latency in seconds, in completion order
    rows: dict  # "scenario|size|seed" -> row bytes
    failed: dict  # "scenario|size|seed" -> reason
    store_bytes: int = 0


def cell_id(name: str, n: int, seed: int) -> str:
    return f"{name}|{n}|{seed}"


def run_pass(workload: Workload, seed: int, workdir: Path, workers: int | None = None,
             cell_clock=None, tracer=None, after_cell=None) -> PassResult:
    """Run every cell of ``workload`` once and time it.

    Graph caches are dropped first, so each pass builds its own graphs.
    ``workers`` overrides the workload's worker count (the sweep's
    ``workers=1`` identity pass).  ``cell_clock`` collects per-cell times
    from sweep workers (see :class:`tracer.CellClock`); ``tracer`` wraps
    each sequential cell in a span; ``after_cell`` is called after each
    sequential cell, outside its time.
    """
    from repro.sim import experiments
    from repro.sim.kernels import use_backend

    experiments.clear_graph_cache()
    workers = workload.workers if workers is None else workers
    if workload.workers > 1:
        return _sweep_pass(workload, seed, workdir, workers, cell_clock)
    rows, failed, cell_s = {}, {}, []
    messages = 0
    start = time.perf_counter()
    with use_backend("numpy"):
        for name, n, s in workload.cells(seed):
            key = cell_id(name, n, s)
            t0 = time.perf_counter()
            try:
                with nullcontext() if tracer is None else tracer.span("cell"):
                    row = experiments.run_scenario(name, n, s, engine=workload.engine)
            except Exception as exc:  # an oracle or driver failure fails the cell
                failed[key] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                cell_s.append(time.perf_counter() - t0)
                if after_cell is not None:
                    after_cell()
            rows[key] = row_bytes(row)
            messages += row["messages"]
    return PassResult(time.perf_counter() - start, messages, cell_s, rows, failed)


def _sweep_pass(workload, seed, workdir, workers, cell_clock) -> PassResult:
    from repro.api import SweepSpec, run_sweep_spec
    from repro.sim.experiments import SweepError

    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
    store = store_dir / "rows.jsonl"
    spec = SweepSpec(
        scenarios=workload.scenarios,
        sizes=workload.sizes,
        seeds=workload.seeds(seed),
        workers=workers,
        output=str(store),
        engine=workload.engine,
        backend="numpy",
    )
    cells = [cell_id(*cell) for cell in workload.cells(seed)]
    if cell_clock is not None:
        cell_clock.reset()
    start = time.perf_counter()
    try:
        table = run_sweep_spec(spec)
    except SweepError as exc:  # one oracle failure aborts the whole sweep
        wall = time.perf_counter() - start
        return PassResult(wall, 0, [], {}, {key: str(exc) for key in cells})
    wall = time.perf_counter() - start
    rows, failed = {}, {}
    messages = 0
    for key, row in zip(cells, table):
        if row.get("status") == "failed":
            failed[key] = row.get("error", "failed row")
            continue
        rows[key] = row_bytes(row)
        messages += row["messages"]
    cell_s = cell_clock.collect() if cell_clock is not None else []
    store_bytes = store.stat().st_size
    shutil.rmtree(store_dir)
    return PassResult(wall, messages, cell_s, rows, failed, store_bytes)


def seed_blind_cells(workload: Workload, seed: int, rows: dict) -> list[str]:
    """Seed-sensitive ``(scenario, size)`` cells whose rows ignore the seed.

    Rows are compared without their ``seed`` column; a repeat across
    every seed of the pass means the seed never reached the instance.
    """
    blind = []
    seeds = workload.seeds(seed)
    if len(seeds) < 2:
        return blind
    for name in workload.scenarios:
        if name not in SEED_SENSITIVE:
            continue
        for n in workload.sizes:
            variants = set()
            for s in seeds:
                raw = rows.get(cell_id(name, n, s))
                if raw is None:
                    break
                row = json.loads(raw)
                row.pop("seed")
                variants.add(json.dumps(row, sort_keys=True))
            else:
                if len(variants) < 2:
                    blind.append(f"{name}|{n}")
    return blind

"""Unified public API: specs in, ResultSets out.

Every front end of the library — ``python -m repro``, the ``repro`` console
script, the benchmark harness, and downstream automation — drives the same
three ideas:

* a **spec** (:class:`SweepSpec`, :class:`ReportSpec`)
  is a typed, validated, JSON-(de)serializable description of a job.  A
  sweep is a reviewable artifact you can commit, diff, and re-run — not a
  flag soup;
* an **algorithm** is one :class:`AlgorithmSpec` (name, driver callable,
  model, oracle, fault tolerance) registered in process with
  :func:`register_algorithm_spec`; the driver's signature is its
  parameter schema;
* a **ResultSet** is a durable, streaming JSONL store of tidy sweep rows
  (including serialized :class:`~repro.sim.Metrics`).  Re-running a
  :class:`SweepSpec` against an existing store *resumes*: completed
  ``(scenario, size, seed)`` cells are skipped and only the missing ones
  run, deterministically reproducing the full table (the store's lines
  come in completion order; nothing reads them by position);
* a **shard** is one of ``k`` disjoint sub-jobs of a sweep
  (:meth:`SweepSpec.shard` / ``repro sweep --shard i/k``), each with its
  own durable store; :func:`merge_shards` recombines them idempotently
  (see :mod:`repro.api.shard`), so independent machines or CI jobs split
  one sweep with no coordinator.  Execution is supervised: dead or stuck
  workers are detected, their cells retried on fresh workers, and cells
  that keep failing are recorded as ``failed`` rows instead of hanging.

Quickstart::

    from repro.api import SweepSpec, run_sweep_spec

    spec = SweepSpec(scenarios=("sssp/er", "bellman-ford/er"),
                     sizes=(16, 32, 64), seeds=(0, 1), workers=4,
                     output="runs.jsonl")
    rows = run_sweep_spec(spec)       # resumable: reruns skip finished cells
    spec.save("sweep.json")           # the job as a reviewable artifact

The layering is strict: this package sits *above* the engine
(:mod:`repro.sim`) and *below* the front end (:mod:`repro.__main__`).
"""

from .algorithms import (
    AlgorithmSpec,
    get_algorithm_spec,
    list_algorithm_specs,
    register_algorithm_spec,
)
from .resultset import ResultSet, cell_key, failure_record, is_failure
from .shard import find_shard_stores, merge_shards, shard_store_path, shard_store_paths
from .specs import ReportSpec, SpecError, SweepSpec, load_spec

#: Served by :mod:`repro.api.run` on first use (see :func:`__getattr__`).
_EXECUTOR = ("run_report_spec", "run_sweep_spec", "smoke_spec")

__all__ = [
    "AlgorithmSpec",
    "ReportSpec",
    "ResultSet",
    "SpecError",
    "SweepSpec",
    "cell_key",
    "failure_record",
    "find_shard_stores",
    "get_algorithm_spec",
    "is_failure",
    "list_algorithm_specs",
    "load_spec",
    "merge_shards",
    "register_algorithm_spec",
    "run_report_spec",
    "run_sweep_spec",
    "shard_store_path",
    "shard_store_paths",
    "smoke_spec",
]


def __getattr__(name: str):
    """Load the sweep executor on first use.

    :mod:`repro.api.run` brings in the fork supervisor and
    ``multiprocessing``; ``import repro`` and every process that never
    runs a sweep (spec validation, the scenario registry, ``repro info``)
    skip that import.
    """
    if name in _EXECUTOR:
        from . import run

        return getattr(run, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Typed, JSON-(de)serializable job specs.

A spec is the declarative half of a job: *what* to run, never *how it went*
(results live in :class:`repro.api.ResultSet`).  Both spec types share one
contract:

* construction normalizes sequences to tuples, so specs are hashable,
  picklable, and comparable by value;
* :meth:`Spec.validate` raises :class:`SpecError` with a field-by-field
  message on bad input (it is called by the executors, so a malformed spec
  never reaches a worker pool);
* ``to_dict``/``from_dict`` and ``to_json``/``from_json`` round-trip
  exactly — ``from_json(spec.to_json()) == spec`` — and the JSON form
  carries a ``"kind"`` tag so :func:`load_spec` can dispatch on file
  contents alone.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["SpecError", "Spec", "SweepSpec", "ReportSpec", "load_spec"]


class SpecError(ValueError):
    """Raised for malformed, unknown, or inconsistent spec data."""


def _validate_backend(backend) -> None:
    """The sweep spec's ``backend`` field check.

    Only spellings are validated, never availability: requesting
    ``"numpy"`` on a numpy-less interpreter is a valid spec that the
    kernel layer resolves to scalar at run time (graceful fallback), so
    the same spec file works across the CI matrix.
    """
    if backend is None:
        return
    from ..sim.kernels import _BACKENDS

    if backend not in _BACKENDS:
        raise SpecError(
            f"sweep spec: backend must be one of {list(_BACKENDS)} or None, "
            f"got {backend!r}"
        )


def _as_tuple(value, item=None):
    """Normalize a JSON list / any sequence to a tuple (None passes through)."""
    if value is None:
        return None
    if isinstance(value, (str, bytes)):
        raise SpecError(f"expected a sequence, got {value!r}")
    out = tuple(value)
    if item is not None:
        for x in out:
            if not isinstance(x, item) or isinstance(x, bool):
                raise SpecError(f"expected {item.__name__} entries, got {x!r}")
    return out


@dataclass(frozen=True)
class Spec:
    """Shared (de)serialization contract for all job specs."""

    #: JSON dispatch tag; each concrete spec overrides this class attribute.
    kind = "spec"

    def validate(self) -> "Spec":
        """Return ``self`` if well-formed, else raise :class:`SpecError`."""
        return self

    def to_dict(self) -> dict:
        """Plain-dict form, tagged with ``"kind"`` for :func:`load_spec`."""
        out = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Spec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise SpecError(f"{cls.kind} spec must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        tag = data.pop("kind", cls.kind)
        if tag != cls.kind:
            raise SpecError(f"expected kind {cls.kind!r}, got {tag!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"{cls.kind} spec: unknown fields {unknown} (known: {sorted(known)})")
        return cls(**data).validate()

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"{cls.kind} spec: invalid JSON ({exc})") from None
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        target = Path(path)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path: str | Path) -> "Spec":
        return cls.from_json(Path(path).read_text())

    def replace(self, **overrides) -> "Spec":
        """A copy with ``overrides`` applied (``None`` values are ignored)."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **updates).validate() if updates else self


@dataclass(frozen=True)
class SweepSpec(Spec):
    """A declarative experiment sweep: the (scenario x size x seed) job.

    ``scenarios=None`` means "every registered scenario at run time".
    ``output`` names the JSONL :class:`~repro.api.ResultSet` store; when it
    already holds rows, re-running the spec *resumes* — completed cells are
    skipped and only the missing ones run.

    ``shard_index``/``shard_count`` select one shard of the job: the cell
    cross product is partitioned by graph-instance group into
    ``shard_count`` disjoint sub-jobs (see :meth:`shard` and
    :mod:`repro.api.shard`), and a sharded spec writes its rows to the
    derived per-shard store ``<output>.shard-<i>-of-<k>.jsonl`` so
    independent machines can each run one shard and
    :func:`repro.api.merge_shards` reassembles the canonical store.

    ``max_retries``/``task_timeout`` are the fault-tolerance policy of the
    supervised executor: a group whose worker dies (or exceeds
    ``task_timeout`` seconds) is re-dispatched to a fresh worker up to
    ``max_retries`` times, then recorded as ``failed`` rows instead of
    hanging the sweep.

    ``latency_model``/``engine`` select the network model and simulation
    backend (see :mod:`repro.sim.events`).  Both default to ``None`` —
    "use each scenario's own defaults": unit-latency scenarios on the
    synchronous round engine, latency-heterogeneous ones on the event
    engine.  Setting ``latency_model`` overrides the network for *every*
    cell (it becomes part of the cell's resume digest); setting ``engine``
    pins the backend (``"event"`` on unit latency is the differential
    check — same rows, asynchronous core; ``"round"`` on a non-unit model
    is rejected).

    ``fault_model`` is the robustness axis (see
    :func:`repro.sim.parse_fault_model` for the grammar): a non-``none``
    value injects the same seeded fault plane into every cell and joins
    the resume digest.  The executor refuses to inject fault kinds an
    algorithm does not declare tolerance for
    (:attr:`repro.api.AlgorithmSpec.fault_tolerance`) — with
    ``scenarios=None`` it auto-restricts the catalog to tolerant
    scenarios, and explicitly named non-tolerant scenarios are an error.
    To watch a non-tolerant protocol break, run one cell through the
    ungated :func:`repro.sim.experiments.run_scenario`.

    ``backend`` selects the node-step dispatch path (see
    :mod:`repro.sim.kernels`): ``"numpy"`` enables batch kernels,
    ``"scalar"`` forces the per-node path, ``None`` uses the
    interpreter's default.  The knob is **provenance, not physics** —
    both backends produce byte-identical rows and metrics, so it never
    joins the resume digest and any store resumes under either setting;
    a ``"numpy"`` request on a numpy-less interpreter falls back to
    scalar rather than failing.
    """

    kind = "sweep"

    scenarios: tuple | None = None
    sizes: tuple = (16, 32, 48)
    seeds: tuple = (0,)
    workers: int = 1
    output: str | None = None
    shard_index: int | None = None
    shard_count: int | None = None
    max_retries: int = 2
    task_timeout: float | None = None
    latency_model: str | None = None
    engine: str | None = None
    fault_model: str | None = None
    backend: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "scenarios", _as_tuple(self.scenarios))
        object.__setattr__(self, "sizes", _as_tuple(self.sizes))
        object.__setattr__(self, "seeds", _as_tuple(self.seeds))

    def validate(self) -> "SweepSpec":
        if self.scenarios is not None:
            _as_tuple(self.scenarios, item=str)
            if not self.scenarios:
                raise SpecError("sweep spec: scenarios must be None (= all) or non-empty")
        sizes = _as_tuple(self.sizes, item=int)
        if not sizes or any(n <= 0 for n in sizes):
            raise SpecError(f"sweep spec: sizes must be positive integers, got {self.sizes!r}")
        seeds = _as_tuple(self.seeds, item=int)
        if not seeds:
            raise SpecError("sweep spec: seeds must be a non-empty integer sequence")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 1:
            raise SpecError(f"sweep spec: workers must be an integer >= 1, got {self.workers!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise SpecError(f"sweep spec: output must be a path string or None, got {self.output!r}")
        if (self.shard_index is None) != (self.shard_count is None):
            raise SpecError(
                "sweep spec: shard_index and shard_count must be set together "
                f"(got shard_index={self.shard_index!r}, shard_count={self.shard_count!r})"
            )
        if self.shard_count is not None:
            for name in ("shard_index", "shard_count"):
                value = getattr(self, name)
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SpecError(f"sweep spec: {name} must be an integer, got {value!r}")
            if self.shard_count < 1:
                raise SpecError(
                    f"sweep spec: shard_count must be >= 1, got {self.shard_count!r}"
                )
            if not 1 <= self.shard_index <= self.shard_count:
                raise SpecError(
                    f"sweep spec: shard_index must be in 1..{self.shard_count}, "
                    f"got {self.shard_index!r}"
                )
        if (
            not isinstance(self.max_retries, int)
            or isinstance(self.max_retries, bool)
            or self.max_retries < 0
        ):
            raise SpecError(
                f"sweep spec: max_retries must be an integer >= 0, got {self.max_retries!r}"
            )
        if self.task_timeout is not None and (
            not isinstance(self.task_timeout, (int, float))
            or isinstance(self.task_timeout, bool)
            or self.task_timeout <= 0
        ):
            raise SpecError(
                f"sweep spec: task_timeout must be a positive number of seconds "
                f"or None, got {self.task_timeout!r}"
            )
        if self.latency_model is not None and not isinstance(self.latency_model, str):
            raise SpecError(
                f"sweep spec: latency_model must be a string or None, "
                f"got {self.latency_model!r}"
            )
        # Lazy import keeps the spec layer import-light; events has no
        # back-dependency on repro.api.  Each scenario's own latency model
        # and stop bounds are checked per scenario before any cell runs
        # (repro.api.run_sweep_spec).
        from ..sim.events import canonical_latency, choose_engine

        latency = "unit" if self.latency_model is None else self.latency_model
        try:
            choose_engine(self.engine, canonical_latency(latency), bounded=False)
        except ValueError as exc:
            raise SpecError(f"sweep spec: {exc}") from None
        if self.fault_model is not None:
            if not isinstance(self.fault_model, str):
                raise SpecError(
                    f"sweep spec: fault_model must be a string or None, "
                    f"got {self.fault_model!r}"
                )
            from ..sim.faults import canonical_fault

            try:
                canonical_fault(self.fault_model)
            except ValueError as exc:
                raise SpecError(f"sweep spec: {exc}") from None
        _validate_backend(self.backend)
        return self

    def shard(self, count: int) -> "list[SweepSpec]":
        """The ``count`` disjoint sub-specs of this sweep, one per shard.

        Each sub-spec carries ``shard_index``/``shard_count`` (1-based) and
        is otherwise identical — including ``output``, which stays the
        *canonical* store path; the executor derives the per-shard path
        (:func:`repro.api.shard.shard_store_path`) so a later merge knows
        where the canonical store lives.  Partitioning happens at run time,
        by graph-instance group (:func:`repro.api.shard.partition_cells`),
        so every shard keeps whole locality groups and the union of the
        shards is exactly this spec's cross product.
        """
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise SpecError(f"sweep spec: shard count must be an integer >= 1, got {count!r}")
        if self.shard_count is not None:
            raise SpecError("sweep spec: already sharded; shard the unsharded spec")
        return [
            dataclasses.replace(self, shard_index=i, shard_count=count).validate()
            for i in range(1, count + 1)
        ]

    def cells(self, scenario_names: list[str] | None = None) -> list[tuple]:
        """The (scenario, n, seed) cross product in canonical row order.

        With ``scenarios=None`` ("all registered at run time") the caller
        must pass the resolved ``scenario_names`` — the registry lives a
        layer above this module.
        """
        if scenario_names is None:
            if self.scenarios is None:
                raise SpecError(
                    "sweep spec: scenarios=None resolves at run time; pass "
                    "scenario_names (run_sweep_spec does this for you)"
                )
            scenario_names = list(self.scenarios)
        return [(name, n, seed) for name in scenario_names for n in self.sizes for seed in self.seeds]


@dataclass(frozen=True)
class ReportSpec(Spec):
    """The report-compilation job: recorded tables -> one Markdown document."""

    kind = "report"

    results_dir: str = "benchmarks/results"
    output: str | None = None

    def validate(self) -> "ReportSpec":
        if not isinstance(self.results_dir, str) or not self.results_dir:
            raise SpecError(f"report spec: results_dir must be a path string, got {self.results_dir!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise SpecError(f"report spec: output must be a path string or None, got {self.output!r}")
        return self


_KINDS = {cls.kind: cls for cls in (SweepSpec, ReportSpec)}


def load_spec(source: str | Path | dict) -> Spec:
    """Load any spec from a path, JSON text, or plain dict via its ``kind`` tag.

    A string starting with ``{`` is parsed as JSON text; any other string
    (or :class:`~pathlib.Path`) is treated as a file path.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        try:
            data = json.loads(source)
        except ValueError as exc:
            raise SpecError(f"spec text: invalid JSON ({exc})") from None
    elif isinstance(source, (str, Path)):
        path = Path(source)
        if not path.is_file():
            raise SpecError(f"spec file {path} does not exist")
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise SpecError(f"spec file {path}: invalid JSON ({exc})") from None
    else:
        data = source
    if not isinstance(data, dict):
        raise SpecError(f"spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise SpecError(f"unknown spec kind {kind!r}; options: {sorted(_KINDS)}") from None
    return cls.from_dict(data)

"""Spec executors: the one engine behind every front end.

:func:`run_sweep_spec` is the production path of the experiment harness —
``python -m repro sweep``, the ``repro`` console script and the CI smoke
entry all funnel into it.  It owns the orchestration policy:

* **fail fast** — the spec is validated, every scenario name resolved and
  each scenario's engine checked against the spec's ``engine`` pin
  (:func:`repro.sim.events.choose_engine`) *before* any cell runs, any
  worker forks or the store opens; the validated spec then travels to
  every worker and cell as the one carrier of the sweep's overrides;
* **resume** — when the target :class:`~repro.api.ResultSet` already holds
  rows, completed ``(scenario, size, seed, params_digest)`` cells are
  reused verbatim and only the missing cells run; the returned table is
  identical to an uninterrupted run (rows follow cross-product order
  either way), and cells stored under a *different* definition of the same
  scenario name (changed params/family/weights) are re-run, not reused;
* **locality** — missing cells are grouped by graph-instance key
  (:meth:`~repro.sim.experiments.Scenario.instance_key`) so every scenario
  over one graph runs on one instance; a parallel sweep builds each
  group's graph once in the supervisor and sends it to the group's worker
  as a shared-memory segment (see :mod:`repro.sim.shm`);
* **streaming** — each finished cell is appended (and flushed) to the store
  and reported through the ``progress`` callback as it lands, so an
  interrupted sweep loses at most the in-flight cells;
* **supervision** — parallel groups run under a supervised dispatcher, not
  a bare pool: each worker holds one group at a time, a worker that dies or
  exceeds ``spec.task_timeout`` is detected (via its process sentinel — no
  polling a hung ``imap``), its group is re-dispatched to a fresh worker up
  to ``spec.max_retries`` times, and a group that keeps dying is recorded
  as ``failed`` rows instead of hanging the sweep.  Interrupts and
  exceptions unwind through ``try``/``finally`` so the store always
  flushes and closes;
* **sharding** — a spec with ``shard_index``/``shard_count`` runs only its
  own deterministic partition of the cross product and writes the derived
  per-shard store (see :mod:`repro.api.shard`); independent machines each
  run one shard and :func:`repro.api.merge_shards` reassembles the table.

:func:`run_report_spec` gives the report job the same spec-in, artifact-out
shape.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from collections.abc import Callable
from pathlib import Path

from ..sim import experiments
from ..sim.kernels import current_backend, use_backend
from .resultset import ResultSet, failure_record
from .shard import shard_cells, shard_store_path
from .specs import ReportSpec, SpecError, SweepSpec

__all__ = [
    "run_sweep_spec",
    "run_report_spec",
    "smoke_spec",
]

#: Sizes of the fixed tiny CI sweep (``repro sweep --smoke``), which runs
#: **every registered scenario** (``scenarios=None``) through its
#: oracle/validator at these sizes — one seed, small n, full catalog.
SMOKE_SIZES = (12, 18)


def smoke_spec(workers: int | None = None, output: str | None = None) -> SweepSpec:
    """The fixed tiny sweep spec behind ``repro sweep --smoke`` (CI entry).

    ``scenarios=None`` resolves to the full registry at run time, so a
    newly registered scenario is smoke-covered (driver + oracle) with no
    CI edit; any :class:`DriverError`/validator failure fails the sweep.
    """
    return SweepSpec(
        scenarios=None,
        sizes=SMOKE_SIZES,
        seeds=(0,),
        workers=workers or 1,
        output=output,
    )


def _tidy(record: dict, row_fields: tuple) -> dict:
    """Project a stored record onto the tidy row columns, in order.

    Core columns come first in :data:`~repro.sim.experiments.ROW_FIELDS`
    order, then any scenario-specific quality columns in sorted key order —
    the same layout :func:`repro.sim.experiments.run_scenario` emits, so
    store-reloaded rows equal freshly computed ones exactly.

    ``latency_model`` defaults to ``"unit"`` for records stored before the
    column existed: those rows could only have come from the synchronous
    engine, whose network *is* the unit model, so the default is the
    recorded truth, not a guess.  (Their resume digests omit unit latency
    for the same reason — old stores stay resumable; see
    :func:`repro.sim.experiments.scenario_digest`.)
    """
    row = {
        name: record.get(name, "unit") if name == "latency_model" else record[name]
        for name in row_fields
    }
    for key in sorted(record):
        if key not in row and key != "metrics":
            row[key] = record[key]
    return row


#: Supervisor poll ceiling: the longest the dispatcher sleeps between
#: liveness/deadline checks when no worker event arrives first (worker
#: results and deaths wake it immediately via their pipe/process sentinels).
_POLL_SECONDS = 0.2


class _Worker:
    """One supervised worker: a forked process plus its two private pipes.

    Private pipes (not a shared pool queue) are the crux of fault
    isolation: when this process dies mid-write, only *its* result channel
    can hold a torn message, and the supervisor discards the whole channel
    with the worker — a crash can never corrupt another worker's results
    or hang a shared ``imap``.  Each channel has exactly one writer and one
    reader, so plain ``context.Pipe(duplex=False)`` connections (public
    API — ``send``/``recv``/``poll``/``wait`` need no queue locks) carry
    the whole protocol.  The worker holds at most one group at a time, so
    the supervisor always knows exactly which cells a dead worker took
    down.

    Right after the fork the parent closes its copies of the worker-side
    ends — before any later sibling can inherit them — which makes the
    worker the sole writer of its result pipe.  If the worker then dies
    mid-message, the supervisor's ``recv`` hits EOF and raises instead of
    blocking forever on a frame that can never complete;
    :func:`_run_groups_supervised` treats that read failure as the worker
    death it is.
    """

    __slots__ = ("process", "tasks", "results", "group_id", "deadline")

    def __init__(self, context, spec: SweepSpec, with_metrics: bool):
        task_reader, self.tasks = context.Pipe(duplex=False)
        self.results, result_writer = context.Pipe(duplex=False)
        self.group_id: int | None = None
        self.deadline: float | None = None
        self.process = context.Process(
            target=_worker_loop,
            args=(task_reader, result_writer, spec, with_metrics),
            daemon=True,
        )
        self.process.start()
        # Drop the worker-side ends so the worker is their sole owner.
        task_reader.close()
        result_writer.close()

    def dispatch(self, group_id: int, task: tuple, timeout: float | None) -> None:
        self.group_id = group_id
        self.deadline = time.monotonic() + timeout if timeout else None
        self.tasks.send(task)

    def shutdown(self) -> None:
        """Best-effort teardown; never raises (runs on interrupt paths)."""
        try:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        except Exception:
            pass
        for channel in (self.tasks, self.results):
            try:
                channel.close()
            except Exception:
                pass


def _worker_loop(task_pipe, result_pipe, spec: SweepSpec, with_metrics: bool) -> None:
    """Worker side of :class:`_Worker`: serve dispatched groups until told to stop.

    The supervisor sends ``(segment, group)`` tasks down this worker's
    private task pipe (``None`` or EOF means shut down).  ``segment`` names
    the shared-memory segment holding the group's graph, or is ``None``
    when the supervisor published none; the worker attaches it and runs the
    whole group on that graph, and a segment it cannot attach leaves the
    group to build the graph locally.  The graph is dropped with the
    group: a worker keeps no graph and no mapped segment between groups.
    Each group is answered on the private result pipe with ``("ok",
    triples)`` or ``("error", message)`` (see
    :func:`repro.sim.experiments._run_cell_group`).  ``spec`` is the
    sweep's validated :class:`SweepSpec`; the backend request is inherited,
    since the supervisor forks inside :func:`~repro.sim.kernels.use_backend`.

    Driver exceptions are stringified before crossing the pipe, so an
    unpicklable exception object can never turn a deterministic failure
    into a hung parent.  A worker that dies mid-group (crash, OOM kill,
    ``os._exit``) simply never answers: the supervisor notices via the
    process sentinel and re-dispatches the group.  Signals
    (``KeyboardInterrupt``/``SystemExit``) propagate and kill the worker
    for the same reason: an interrupt is a death, not a driver bug, and
    reporting it as ``"error"`` would abort the whole sweep instead of
    letting the supervisor's fault path decide.
    """
    from ..sim import shm

    while True:
        try:
            task = task_pipe.recv()
        except EOFError:
            return  # the supervisor is gone; nothing left to serve
        if task is None:
            return
        segment, group = task
        try:
            graph = None if segment is None else shm.attach_graph(segment)
            # Looked up at call time, not bound at import: perfbench's
            # tracer patches ``_run_cell_group`` and ``_run_cell`` on the
            # module before the fork.
            result = experiments._run_cell_group(group, spec, with_metrics, graph)
        except (KeyboardInterrupt, SystemExit):
            raise  # die silently; the supervisor sees a dead worker
        except BaseException as exc:  # noqa: BLE001 — must cross the pipe as data
            result_pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        else:
            result_pipe.send(("ok", result))


def _run_groups_supervised(
    tasks: list[tuple[str | None, list[tuple[int, str, int, int]]]],
    spec: SweepSpec,
    *,
    context,
    with_metrics: bool,
    land: Callable[[int, dict, dict | None], None],
    fail: Callable[[list, int, str], None],
) -> None:
    """Dispatch ``(segment, group)`` tasks to supervised fork workers.

    The validated ``spec`` sets the policy: up to ``spec.workers`` workers
    (see :func:`_worker_loop`), each holding one task at a time.  Each
    group either lands its cells (``land`` per cell), or — after its
    worker died/stalled ``1 + spec.max_retries`` times — is handed to
    ``fail``.  A worker that *reports* an exception (a deterministic
    driver/oracle failure, not a fault) raises
    :class:`~repro.sim.experiments.SweepError` exactly like the sequential
    path; the caller's ``finally`` handles store cleanup.  The wait
    multiplexes worker result pipes and process sentinels, so both results
    and deaths wake the supervisor immediately — a dead worker can never
    hang the sweep.
    """
    pending = list(range(len(tasks)))  # LIFO: retried groups go first
    failures = [0] * len(tasks)
    open_groups = len(tasks)
    pool: list[_Worker] = []

    def crashed(group_id: int, cause: str) -> int:
        """Account one fault against ``group_id``; 1 if the group is closed."""
        failures[group_id] += 1
        if failures[group_id] <= spec.max_retries:
            pending.append(group_id)  # retry on a fresh worker
            return 0
        fail(
            tasks[group_id][1],
            failures[group_id],
            f"{cause} after {failures[group_id]} attempt(s)",
        )
        return 1
    try:
        while open_groups:
            # Replace the fallen and fill up to the target head count.
            retained = []
            for w in pool:
                if w.group_id is None and not w.process.is_alive():
                    w.shutdown()  # reap a worker that died between groups
                else:
                    retained.append(w)
            pool = retained
            target = min(
                spec.workers, len(pending) + sum(w.group_id is not None for w in pool)
            )
            while sum(w.process.is_alive() for w in pool) < target:
                pool.append(_Worker(context, spec, with_metrics))
            for worker in pool:
                if worker.group_id is None and pending and worker.process.is_alive():
                    group_id = pending.pop()
                    try:
                        worker.dispatch(group_id, tasks[group_id], spec.task_timeout)
                    except Exception:
                        # Died between the liveness check and the send: the
                        # group was never attempted, but bounded accounting
                        # beats an unbounded requeue loop on a host that
                        # kills every fork.
                        worker.group_id = None
                        worker.shutdown()
                        open_groups -= crashed(
                            group_id,
                            f"worker died before receiving the group "
                            f"(exit code {worker.process.exitcode})",
                        )

            # Sleep until a result lands, a worker dies, or a deadline nears.
            busy = [w for w in pool if w.group_id is not None]
            now = time.monotonic()
            deadlines = [w.deadline - now for w in busy if w.deadline is not None]
            wait = max(0.0, min([_POLL_SECONDS, *deadlines]))
            sentinels = [w.results for w in busy] + [w.process.sentinel for w in busy]
            if sentinels:
                multiprocessing.connection.wait(sentinels, timeout=wait)

            now = time.monotonic()
            for worker in busy:
                group_id = worker.group_id
                stuck = False
                alive = worker.process.is_alive()
                if alive and not worker.results.poll():
                    if worker.deadline is None or now <= worker.deadline:
                        continue  # still working, within budget
                    # Stuck beyond the per-group budget: treat as dead.
                    worker.process.kill()
                    alive = False
                    stuck = True
                if alive:
                    try:
                        # The worker is the pipe's sole writer (see _Worker),
                        # so a death mid-message surfaces here as EOF/unpickle
                        # failure, never as an indefinitely blocked read.
                        status, payload = worker.results.recv()
                    except Exception:
                        alive = False  # died mid-write: fall through to crash handling
                    else:
                        worker.group_id = None
                        worker.deadline = None
                        if status == "error":
                            raise experiments.SweepError(payload)
                        for index, row, metrics in payload:
                            land(index, row, metrics)
                        open_groups -= 1
                        continue
                # The worker died holding this group.  Its result channel
                # may hold a torn message — discard it with the worker.
                # Attribute the fault correctly when giving up: a
                # supervisor kill at the deadline is a stuck driver, not a
                # crash, and the operator's remedy differs (raise the
                # timeout vs chase an OOM/segfault).
                worker.group_id = None
                worker.shutdown()
                open_groups -= crashed(
                    group_id,
                    f"worker stuck beyond task_timeout={spec.task_timeout:g}s, killed"
                    if stuck
                    else f"worker died (exit code {worker.process.exitcode})",
                )
    finally:
        for worker in pool:
            if worker.group_id is None and worker.process.is_alive():
                try:
                    worker.tasks.send(None)  # polite shutdown for idle workers
                except Exception:
                    pass
        for worker in pool:
            worker.shutdown()


def _publish(group: list[tuple[int, str, int, int]], handles: list) -> str | None:
    """Build ``group``'s graph and publish it as a shared-memory segment.

    Returns the segment's name for the group's task, after adding its owner
    handle to ``handles`` (the caller unlinks them all on every exit path),
    or ``None`` when the plane cannot carry the graph — no shared memory on
    this platform, unpicklable labels, a full ``/dev/shm`` — and the
    worker builds it locally instead.  The supervisor keeps only the
    segment, not the graph, so the forked workers inherit no graph.
    """
    from ..sim import shm

    if not shm.available():
        return None
    _, name, n, seed = group[0]
    try:
        handle = shm.publish_graph(experiments.get_scenario(name).build_graph(n, seed))
    except Exception:
        return None
    if handle is None:
        return None
    handles.append(handle)
    return handle.name


def run_sweep_spec(
    spec: SweepSpec,
    *,
    store: ResultSet | None = None,
    progress: Callable[[int, int, dict], None] | None = None,
) -> list[dict]:
    """Execute ``spec``, resuming against its store; return the tidy table.

    ``store`` overrides ``spec.output`` (handy for tests and in-memory
    runs); ``progress(completed, total, row)`` is invoked once per *newly
    executed* cell, where ``completed`` counts reused cells too.  Rows come
    back in cross-product order (scenario-major, then size, then seed) —
    identical at any worker count, with or without resume.  The store's
    lines, by contrast, come in completion order, which at ``workers > 1``
    varies from run to run; tables, reports, resume and merge read a store
    by cell key and never depend on its line order.

    A sharded spec (``shard_index``/``shard_count``) runs only its own
    partition of the cross product and, when ``spec.output`` is set, writes
    the derived shard store ``<output>.shard-<i>-of-<k>.jsonl`` — the
    canonical path stays free for :func:`repro.api.merge_shards`.

    A cell whose worker died or stalled beyond the retry budget comes back
    as a ``failed`` placeholder row (``row["status"] == "failed"``, see
    :func:`repro.api.resultset.failure_record`) rather than an exception or
    a hang; re-running the spec retries exactly those cells.  The store is
    always flushed and closed — on success, driver errors, and Ctrl-C
    alike.
    """
    spec = spec.validate()
    names = (
        list(spec.scenarios) if spec.scenarios is not None
        else experiments.list_scenarios()
    )
    # The fault-tolerance gate: never inject fault kinds an algorithm does
    # not declare surviving (AlgorithmSpec.fault_tolerance).  A catalog-wide
    # sweep auto-restricts to the tolerant scenarios (the CI faulted-smoke
    # contract); explicitly named non-tolerant scenarios are an error —
    # their oracles *will* fire (run_scenario is the ungated probe).
    if spec.fault_model is not None:
        from ..sim.faults import parse_fault_model

        plane = parse_fault_model(spec.fault_model)
        fault_kinds = plane.kinds if plane is not None else frozenset()
        if fault_kinds:
            from .algorithms import get_algorithm_spec

            def _tolerant(name: str) -> bool:
                algo = get_algorithm_spec(experiments.get_scenario(name).algorithm)
                return fault_kinds <= frozenset(algo.fault_tolerance)

            if spec.scenarios is None:
                names = [name for name in names if _tolerant(name)]
                if not names:
                    raise SpecError(
                        f"sweep spec: no registered scenario declares tolerance "
                        f"for fault model {spec.fault_model!r}"
                    )
            else:
                intolerant = [name for name in names if not _tolerant(name)]
                if intolerant:
                    raise SpecError(
                        f"sweep spec: fault_model {spec.fault_model!r} injects "
                        f"fault kinds the algorithms of {intolerant} do not "
                        f"declare tolerance for; drop them from scenarios, or "
                        f"run one cell with repro.sim.experiments.run_scenario "
                        f"to watch it break"
                    )
    from ..sim.events import canonical_latency, choose_engine

    for name in names:
        scenario = experiments.get_scenario(name)  # fail fast, before forking
        # spec.validate() checked the spec's own engine/latency pair; each
        # scenario's latency model and stop bounds are checked here, so a
        # bad pin is refused before any cell runs or any store is opened.
        latency = (
            spec.latency_model if spec.latency_model is not None
            else scenario.latency_model
        )
        try:
            choose_engine(spec.engine, canonical_latency(latency), scenario.bounded)
        except ValueError as exc:
            raise SpecError(f"sweep spec: scenario {name!r}: {exc}") from None
    if store is None:
        if spec.output and spec.shard_count is not None:
            store = ResultSet.open(
                shard_store_path(spec.output, spec.shard_index, spec.shard_count)
            )
        elif spec.output:
            store = ResultSet.open(spec.output)
        else:
            store = ResultSet()

    tasks = shard_cells(spec, names)
    total = len(tasks)
    rows: list[dict | None] = [None] * total
    pending: list[tuple[int, str, int, int]] = []
    # Resume keys carry the scenario-definition digest: a store written
    # under different params for the same scenario name misses the lookup,
    # so its stale cells re-run instead of silently polluting the table.
    digests = {
        name: experiments.scenario_digest(
            experiments.get_scenario(name),
            latency_model=spec.latency_model,
            fault_model=spec.fault_model,
        )
        for name in names
    }
    for index, (name, n, seed) in enumerate(tasks):
        record = store.get((name, n, seed, digests[name]))
        if record is not None:
            rows[index] = _tidy(record, experiments.ROW_FIELDS)
        else:
            pending.append((index, name, n, seed))

    completed = total - len(pending)

    # Serialized metrics only matter when they will outlive the run — an
    # in-memory store is discarded with its records, so skip the O(E log E)
    # per-cell serialization (and the pool-pipe traffic) on that path.
    with_metrics = store.path is not None

    def land(index: int, row: dict, metrics: dict | None) -> None:
        nonlocal completed
        store.append({**row, "metrics": metrics} if with_metrics else dict(row))
        rows[index] = row
        completed += 1
        if progress is not None:
            progress(completed, total, row)

    def fail(group: list, attempts: int, message: str) -> None:
        nonlocal completed
        for index, name, n, seed in group:
            record = failure_record(name, n, seed, digests[name], message, attempts)
            store.append(record)
            rows[index] = record
            completed += 1
            if progress is not None:
                progress(completed, total, record)

    # Group pending cells by graph-instance key (first-seen order) so each
    # group runs on one graph instance.
    groups: dict[tuple, list[tuple[int, str, int, int]]] = {}
    for index, name, n, seed in pending:
        key = experiments.get_scenario(name).instance_key(n, seed)
        groups.setdefault(key, []).append((index, name, n, seed))
    group_list = list(groups.values())

    context = None
    if spec.workers > 1 and len(group_list) > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pass  # no fork on this platform: run sequentially
    shm_handles: list = []
    # try/finally, not context managers alone: the store must flush and
    # close on *every* exit — success, a driver exception, or Ctrl-C —
    # or buffered rows of an interrupted sweep would be lost, and every
    # published segment must be unlinked.
    try:
        if group_list:
            with use_backend(spec.backend):
                # Resolve the backend before any fork, so workers inherit
                # the request and the imported numpy module instead of
                # each importing it.
                current_backend()
                if context is None:
                    for group in group_list:
                        for index, row, metrics in experiments._run_cell_group(
                            group, spec, with_metrics
                        ):
                            land(index, row, metrics)
                else:
                    tasks = [(_publish(group, shm_handles), group) for group in group_list]
                    _run_groups_supervised(
                        tasks,
                        spec,
                        context=context,
                        with_metrics=with_metrics,
                        land=land,
                        fail=fail,
                    )
    finally:
        for handle in shm_handles:
            handle.unlink()
        store.close()
    return rows


def run_report_spec(spec: ReportSpec) -> str:
    """Compile the recorded tables per ``spec``; write ``spec.output`` if set."""
    from ..analysis.report import compile_report

    spec = spec.validate()
    text = compile_report(spec.results_dir)
    if spec.output:
        Path(spec.output).write_text(text)
    return text


"""Out-of-program tracing: spans and hot-call counters around ``repro`` layers.

The tracer patches public entry points of each layer at class or module
level, records what they do, and puts every original back afterwards.
Nothing under ``src/`` knows it exists.

* **Spans** (name, start, end, parent) wrap the coarse calls: cells,
  drivers, oracles, runner runs and constructors, graph builds, shm
  publish/attach and store appends.  They are kept in memory.
* **Hot calls** (node steps, kernel rounds, sends, metric hooks, fault
  draws, indexed-view lookups) are too frequent for a span each; their
  count and summed self time are added to the enclosing span.
* A span's or hot call's **self time** is its duration minus the time its
  children cover, so self times never count a nanosecond twice.

In the sweep, the patches are installed before the supervisor forks, so
workers inherit them.  Each worker appends the spans of every cell group
it finishes to its own per-pid file; the parent merges those files.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "import_all",
    "step_classes",
    "Tracer",
    "CellClock",
    "read_worker_spans",
]

_clock = time.perf_counter


def import_all() -> None:
    """Import every ``repro`` submodule (drivers import algorithms lazily).

    A tracer that walked ``__subclasses__()`` before these imports would
    silently miss every algorithm class a driver has not imported yet.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _all_subclasses(base: type) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def step_classes() -> list[tuple[type, str]]:
    """Every ``(class, method)`` that defines its own node or kernel step."""
    from repro.sim.kernels import BatchKernel
    from repro.sim.runner import NodeAlgorithm

    out = []
    for base, method in ((NodeAlgorithm, "on_round"), (BatchKernel, "on_round_batch")):
        for cls in _all_subclasses(base):
            if method in vars(cls):
                out.append((cls, method))
    return out


class _Patches:
    """Installed attribute replacements, each restorable to its original."""

    def __init__(self) -> None:
        self.entries: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)
        self.entries.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self.entries):
            setattr(owner, name, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that are not the original object any more."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self.entries
            if vars(owner).get(name) is not original
        ]

    def covers(self, owner, name: str) -> bool:
        return any(o is owner and n == name for o, n, _ in self.entries)


class _Frame:
    """One open span: its identity plus the time its children covered."""

    __slots__ = ("sid", "name", "start", "parent", "child", "hot", "extra")

    def __init__(self, sid, name, start, parent) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.child = 0.0
        self.hot: dict = {}
        self.extra = 0


class Tracer:
    """Spans and hot-call aggregates for one process (and its forks)."""

    def __init__(self, workdir: Path | None = None) -> None:
        self.workdir = workdir
        self.patches = _Patches()
        self.spans: list = []  # finished spans, see _close()
        self._next = 0
        self._flushed = 0
        self.forks = 0
        self._active = False
        self._in_hook = False
        self._current = self._open("root", None)
        # ``stack`` holds the child-time accumulator of every open call,
        # spans and hot calls alike; ``_current`` is the innermost span.
        self._stack: list = [self._current]
        os.register_at_fork(after_in_child=self._after_fork_child,
                            after_in_parent=self._after_fork_parent)

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name, parent):
        self._next += 1
        return _Frame(f"{os.getpid()}:{self._next}", name, _clock(), parent)

    def _close(self, frame, end) -> None:
        self.spans.append((
            frame.sid, frame.name, frame.start, end, frame.parent,
            end - frame.start - frame.child, frame.hot, frame.extra,
        ))

    @contextmanager
    def span(self, name: str):
        """Open a span under the innermost open span until the block ends."""
        outer = self._current
        frame = self._open(name, outer.sid)
        self._stack.append(frame)
        self._current = frame
        try:
            yield frame
        finally:
            end = _clock()
            self._stack.pop()
            self._stack[-1].child += end - frame.start
            self._current = outer
            self._close(frame, end)

    def _after_fork_child(self) -> None:
        if self._active:
            # A sweep worker: keep the patches, start an empty record.
            self.spans = []
            self._flushed = 0
            self.forks = 0
            self._current = self._open("worker", None)
            self._stack = [self._current]

    def _after_fork_parent(self) -> None:
        if self._active:
            self.forks += 1

    # -- wrappers ---------------------------------------------------------
    def span_wrapper(self, name: str, fn, after=None, before=None):
        """Wrap ``fn`` in a span; ``after(state, args, result)`` sets its count."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as frame:
                state = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    frame.extra = after(state, args, result)
            return result

        return wrapper

    def hot_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            acc = _Acc(stack[-1])
            stack.append(acc)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                acc.up.child += dur
                hot = tracer._current.hot
                rec = hot.get(name)
                if rec is None:
                    hot[name] = [1, dur - acc.child, 0]
                else:
                    rec[0] += 1
                    rec[1] += dur - acc.child

        return wrapper

    def hook_wrapper(self, fn):
        """A metric hook: counted on its outermost call only."""
        tracer = self
        inner = self.hot_wrapper("metrics.hook", fn)

        def wrapper(*args, **kwargs):
            if tracer._in_hook:
                return fn(*args, **kwargs)
            tracer._in_hook = True
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._in_hook = False

        return wrapper

    def kernel_wrapper(self, fn):
        """``on_round_batch``: a kernel round, or a decline when it returns None."""
        tracer = self

        def wrapper(kernel, r, awake, *rest):
            stack = tracer._stack
            acc = _Acc(stack[-1])
            stack.append(acc)
            t0 = _clock()
            try:
                codes = fn(kernel, r, awake, *rest)
            finally:
                dur = _clock() - t0
                stack.pop()
                acc.up.child += dur
            name = "kernel.decline" if codes is None else "kernel"
            hot = tracer._current.hot
            rec = hot.get(name)
            if rec is None:
                rec = hot[name] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dur - acc.child
            if codes is not None:
                rec[2] += len(awake)
            return codes

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self, *, sweep: bool = False) -> None:
        """Patch every traced entry point (import everything first)."""
        import_all()
        from repro import energy
        from repro.api import algorithms, resultset
        from repro.energy import validation
        from repro.graphs import generators
        from repro.graphs.indexed import IndexedGraph
        from repro.graphs.weighted_graph import Graph
        from repro.sim import events, experiments, faults, metrics, runner, shm

        p = self.patches
        for owner, label in ((runner.Runner, "runner"), (events.EventRunner, "events")):
            p.replace(owner, "__init__", lambda f, l=label: self.span_wrapper(f"{l}.init", f))
            p.replace(owner, "run", lambda f, l=label: self.span_wrapper(
                f"{l}.run", f, _messages_after, _messages_before))
        for name in ("send", "broadcast"):
            p.replace(runner.Context, name, lambda f: self.hot_wrapper("send", f))
        for cls, method in step_classes():
            if method == "on_round":
                p.replace(cls, method, lambda f: self.hot_wrapper("step", f))
            else:
                p.replace(cls, method, self.kernel_wrapper)
        for cls in _all_subclasses(metrics.Metrics):
            for name in sorted(vars(cls)):
                if name.startswith("record_"):
                    p.replace(cls, name, self.hook_wrapper)
                elif name in ("merge", "to_dict"):
                    p.replace(cls, name, lambda f, n=name: self.hot_wrapper(f"metrics.{n}", f))
        for name in ("drop_message", "duplicate_message"):
            p.replace(faults.FaultModel, name, lambda f: self.hot_wrapper("faults", f))
        p.replace(generators, "make_family", lambda f: self.span_wrapper("graphs.build", f))
        p.replace(IndexedGraph, "of", lambda f: self.hot_wrapper("graphs.index", f))
        for name in ("dijkstra", "hop_distances", "mst_weight"):
            p.replace(Graph, name, lambda f, n=name: self.span_wrapper(f"oracle:Graph.{n}", f))
        for name in ("validate_decomposition", "validate_sparse_cover", "validate_layered_cover"):
            for owner in (energy, validation):
                p.replace(owner, name, lambda f, n=name: self.span_wrapper(f"oracle:{n}", f))
        p.replace(algorithms.AlgorithmSpec, "resolve", self._resolve_wrapper)
        p.replace(shm, "publish_graph", lambda f: self.span_wrapper("shm.publish", f, _segment_bytes))
        p.replace(shm, "attach_graph", lambda f: self.span_wrapper("shm.attach", f, _attached))
        p.replace(resultset.ResultSet, "append", lambda f: self.span_wrapper("store.append", f))
        if sweep:
            p.replace(experiments, "_run_cell", lambda f: self.span_wrapper("cell", f))
            p.replace(experiments, "_run_cell_group", self._group_wrapper)
        self._active = True

    def restore(self) -> None:
        self._active = False
        self.patches.restore()

    def _resolve_wrapper(self, resolve):
        tracer = self

        def wrapper(spec):
            return tracer.span_wrapper(f"driver:{spec.name}", resolve(spec))

        return wrapper

    def _group_wrapper(self, run_group):
        inner = self.span_wrapper("sweep.group", run_group)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.flush()
            return result

        return wrapper

    # -- output -----------------------------------------------------------
    def flush(self) -> None:
        """Append spans finished since the last flush to this pid's file."""
        if self.workdir is None:
            return
        path = self.workdir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as out:
            for span in self.spans[self._flushed:]:
                out.write(json.dumps(span) + "\n")
        self._flushed = len(self.spans)


class _Acc:
    """Child-time accumulator of one open hot call."""

    __slots__ = ("child", "up")

    def __init__(self, up) -> None:
        self.child = 0.0
        self.up = up


def _messages_before(args):
    return args[0].metrics.total_messages


def _messages_after(before, args, result):
    return args[0].metrics.total_messages - before


def _segment_bytes(state, args, handle):
    # The owner handle keeps its SharedMemory private; its size is the segment's.
    return 0 if handle is None else handle._shm.size


def _attached(state, args, graph):
    return 0 if graph is None else 1


def read_worker_spans(workdir: Path) -> list:
    """Every span the workers' per-pid ``spans-<pid>.jsonl`` files hold."""
    spans = []
    for path in sorted(workdir.glob("spans-*.jsonl")):
        with path.open() as handle:
            spans.extend(tuple(json.loads(line)) for line in handle)
    return spans


class CellClock:
    """Per-cell latency of sweep workers, with no other patch installed.

    Times each ``_run_cell`` call in the process that runs it (a forked
    worker) and appends the times of each finished cell group to a per-pid
    file, which :meth:`collect` reads back in the parent.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.patches = _Patches()
        self.times: list[float] = []

    def install(self) -> None:
        from repro.sim import experiments

        self.patches.replace(experiments, "_run_cell", self._timed)
        self.patches.replace(experiments, "_run_cell_group", self._flushing)

    def restore(self) -> None:
        self.patches.restore()

    def reset(self) -> None:
        for path in self.workdir.glob("cells-*.jsonl"):
            path.unlink()
        self.times = []

    def _timed(self, run_cell):
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return run_cell(*args, **kwargs)
            finally:
                self.times.append(_clock() - t0)

        return wrapper

    def _flushing(self, run_group):
        def wrapper(*args, **kwargs):
            try:
                return run_group(*args, **kwargs)
            finally:
                path = self.workdir / f"cells-{os.getpid()}.jsonl"
                with path.open("a") as out:
                    out.write(json.dumps(self.times) + "\n")
                self.times = []

        return wrapper

    def collect(self) -> list[float]:
        times = []
        for path in sorted(self.workdir.glob("cells-*.jsonl")):
            for line in path.read_text().splitlines():
                times.extend(json.loads(line))
        return times

"""Latency models, engine selection, and the event runner.

The paper states every result in lock-step synchronous rounds, so the
event engine is not a second simulator: :class:`EventRunner` runs the
round engine's one loop (:mod:`repro.sim.runner`) and adds what real
deployments have and the paper's rounds abstract away:

* **per-edge latency models** (:class:`UniformLatency`, the seeded
  :class:`RandomDelayLatency`, explicit :class:`EdgeTableLatency`
  tables): a message sent at time ``t`` over port ``p`` is delivered at
  ``t + delay(p)``.  Under any non-unit model the loop parks it in a
  per-arrival-time slot and moves it into the inbox at that time, before
  that time's wakes run — unicasts first, then broadcasts, each in send
  order, which is the order a unit-latency round fills the inboxes in;
* **stopping conditions** beyond the round budget: ``max_time`` (a
  duration horizon — simulation stops gracefully once virtual time passes
  it with work left) and ``message_budget`` (a bandwidth cap — stops
  once that many messages have been sent), both reported via
  :attr:`EventRunner.stop_reason`;
* the **uniform-unit equivalence guarantee**: with the default ``unit``
  latency model, :class:`EventRunner` takes exactly the code path of the
  synchronous :class:`~repro.sim.Runner` — same outputs, same
  :class:`~repro.sim.Metrics` (to the byte, including serialized store
  payloads).  The guarantee is a property of the structure: there is
  only one loop.

Engine selection
----------------
Algorithms construct runners through :func:`make_runner`, which consults
the ambient :func:`simulation_engine` context: outside any context (or
under ``engine="round"``) it returns the synchronous :class:`Runner`;
under ``engine="event"`` it returns an :class:`EventRunner` with the
context's latency model.  :func:`latency_bound` exposes the model's
worst-case per-edge delay so latency-aware protocols (e.g. Bellman-Ford's
horizon) can scale their time budgets; under the synchronous engine it is
1 and nothing changes.

Latency model strings (the sweep-facing ``latency_model`` axis):

* ``"unit"`` (aliases ``"sync"``, ``"uniform"``) — every edge has delay 1;
  representable by both engines, and the canonical value recorded in tidy
  rows of synchronous runs;
* ``"uniform:K"`` — every edge has integer delay ``K`` (a time-dilated
  synchronous execution);
* ``"random:K"`` — per-edge delays drawn uniformly from ``1..K`` by a
  seeded, label-keyed hash (deterministic per ``(seed, edge)`` across
  processes and worker counts, symmetric per undirected edge).

Sleeping-model note: in :data:`~repro.sim.Mode.SLEEPING` a message is
delivered iff its receiver was awake *at the send time* (the paper's
rule; under unit latency this is exactly the synchronous semantics).  The
decision is made when the send resolves and is final — a receiver that
halts while the message is in flight still counts it as delivered.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..graphs import Graph
from ..graphs.indexed import IndexedGraph
from .faults import FaultModel, parse_fault_model
from .metrics import Metrics
from .runner import Mode, Runner

__all__ = [
    "LatencyModel",
    "UniformLatency",
    "RandomDelayLatency",
    "EdgeTableLatency",
    "parse_latency_model",
    "canonical_latency",
    "EngineConfig",
    "EngineStats",
    "simulation_engine",
    "current_engine",
    "latency_bound",
    "current_faults",
    "fault_horizon_factor",
    "make_runner",
    "EventRunner",
]


# ----------------------------------------------------------------------
# latency models
# ----------------------------------------------------------------------
class LatencyModel:
    """Per-edge message delays: ``delay(port) >= 1`` virtual time units.

    Subclasses define :attr:`name` (the canonical sweep-axis string
    recorded in tidy rows), :attr:`bound` (the worst-case per-edge delay —
    what :func:`latency_bound` reports to latency-aware protocols), and
    :meth:`port_delays` (one integer per CSR port).  A model whose bound
    is 1 is the unit model, whatever its class: the engine then never
    asks for the table.
    """

    #: Canonical model string (``"unit"``, ``"uniform:3"``, ``"random:4"``).
    name: str = "unit"
    #: Worst-case per-edge delay (1 for the unit model).
    bound: int = 1
    def port_delays(self, indexed: IndexedGraph) -> list[int]:
        """Per-port delay table, parallel to ``indexed.nbr``."""
        raise NotImplementedError


def _check_delay(delay: int, what: str) -> int:
    if not isinstance(delay, int) or isinstance(delay, bool) or delay < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {delay!r}")
    return delay


class UniformLatency(LatencyModel):
    """Every edge has the same integer delay.

    ``UniformLatency(1)`` is the ``unit`` model — the network the paper's
    synchronous rounds describe, and the model under which
    :class:`EventRunner` matches :class:`~repro.sim.Runner` exactly.
    Larger delays give a time-dilated but otherwise synchronous-shaped
    execution (useful as a sanity axis: metrics that should be
    delay-invariant must not move).
    """

    def __init__(self, delay: int = 1) -> None:
        self.bound = _check_delay(delay, "uniform latency delay")
        self.name = "unit" if delay == 1 else f"uniform:{delay}"

    def port_delays(self, indexed: IndexedGraph) -> list[int]:
        return [self.bound] * len(indexed.nbr)


class RandomDelayLatency(LatencyModel):
    """Seeded per-edge random delays, uniform on ``1..max_delay``.

    The delay of an edge is drawn from a :class:`random.Random` seeded by
    the string ``"{seed}|{max_delay}|{u!r}|{v!r}"`` with the endpoint
    reprs in sorted order — so delays are symmetric per undirected edge,
    identical across processes and worker counts (string seeding hashes
    deterministically), and independent of graph construction order.
    Distinct sweep seeds draw distinct delay tables, which is what makes
    ``latency_model="random:K"`` a real per-cell axis.
    """

    def __init__(self, max_delay: int, seed: int = 0) -> None:
        self.bound = _check_delay(max_delay, "random latency max_delay")
        self.seed = seed
        self.name = "unit" if max_delay == 1 else f"random:{max_delay}"

    def edge_delay(self, u: object, v: object) -> int:
        lo, hi = sorted((repr(u), repr(v)))
        rng = random.Random(f"{self.seed}|{self.bound}|{lo}|{hi}")
        return rng.randint(1, self.bound)

    def port_delays(self, indexed: IndexedGraph) -> list[int]:
        labels = indexed.labels
        delays: list[int] = []
        # One draw per undirected edge, mirrored to both ports: compute on
        # the canonical (sorted-repr) key so u->v and v->u always agree.
        cache: dict[tuple, int] = {}
        for i in range(indexed.num_nodes):
            u = labels[i]
            for k in range(indexed.indptr[i], indexed.indptr[i + 1]):
                v = labels[indexed.nbr[k]]
                key = tuple(sorted((repr(u), repr(v))))
                delay = cache.get(key)
                if delay is None:
                    delay = cache[key] = self.edge_delay(u, v)
                delays.append(delay)
        return delays


class EdgeTableLatency(LatencyModel):
    """Explicit per-edge delays from a ``{(u, v): delay}`` table.

    Lookups are symmetric (``(u, v)`` falls back to ``(v, u)``), and edges
    absent from the table use ``default``.  This is the API-level model
    for measured topologies (e.g. ping matrices); it has no sweep-string
    form — build it in code and pass it to :func:`simulation_engine` or
    :class:`EventRunner` directly.
    """

    def __init__(self, table: dict, default: int = 1) -> None:
        self.table = dict(table)
        self.default = _check_delay(default, "edge table default delay")
        for key, delay in self.table.items():
            _check_delay(delay, f"edge table delay for {key!r}")
        self.bound = max([self.default, *self.table.values()]) if self.table else self.default
        self.name = f"table:{len(self.table)}"

    def edge_delay(self, u: object, v: object) -> int:
        delay = self.table.get((u, v))
        if delay is None:
            delay = self.table.get((v, u), self.default)
        return delay

    def port_delays(self, indexed: IndexedGraph) -> list[int]:
        labels = indexed.labels
        delays: list[int] = []
        for i in range(indexed.num_nodes):
            u = labels[i]
            for k in range(indexed.indptr[i], indexed.indptr[i + 1]):
                delays.append(self.edge_delay(u, labels[indexed.nbr[k]]))
        return delays


def parse_latency_model(spec: "str | LatencyModel", seed: int = 0) -> LatencyModel:
    """Build a latency model from its sweep-axis string.

    ``"unit"``/``"sync"``/``"uniform"`` -> unit latency;
    ``"uniform:K"`` -> :class:`UniformLatency`; ``"random:K"`` ->
    :class:`RandomDelayLatency` seeded with ``seed``.  A
    :class:`LatencyModel` instance passes through unchanged.  Raises
    :class:`ValueError` on anything else — callers surface it as a spec
    or sweep error before any work runs.
    """
    if isinstance(spec, LatencyModel):
        return spec
    if not isinstance(spec, str):
        raise ValueError(f"latency model must be a string or LatencyModel, got {spec!r}")
    text = spec.strip().lower()
    if text in ("unit", "sync", "uniform"):
        return UniformLatency(1)
    head, sep, tail = text.partition(":")
    if sep:
        if head not in ("uniform", "random", "random-delay"):
            raise ValueError(
                f"latency model {spec!r}: unknown kind {head!r} before ':' "
                f"(options: 'unit', 'uniform:K', 'random:K')"
            )
        try:
            value = int(tail)
        except ValueError:
            raise ValueError(
                f"latency model {spec!r}: expected an integer bound after "
                f"'{head}:', got {tail!r}"
            ) from None
        if head == "uniform":
            return UniformLatency(value)
        if value == 1:
            return UniformLatency(1)
        return RandomDelayLatency(value, seed=seed)
    raise ValueError(
        f"unknown latency model {spec!r}; options: 'unit', 'uniform:K', 'random:K'"
    )


def canonical_latency(spec: "str | LatencyModel") -> str:
    """The canonical string of a latency model spec (``"unit"`` for sync).

    This is the value recorded in tidy rows and hashed into scenario
    digests — ``"sync"``, ``"uniform"``, ``"uniform:1"`` and ``"random:1"``
    all canonicalize to ``"unit"``, encoding the equivalence guarantee:
    a unit-latency event execution *is* the synchronous execution.
    """
    return parse_latency_model(spec, seed=0).name


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
class EngineStats:
    """Mutable run-outcome recorder attached to an :class:`EngineConfig`.

    Runners note their graceful-stop outcome here so callers that never
    see the runner instance (drivers run algorithms through their public
    entry points) can still surface ``stop_reason`` and the final virtual
    time as sweep columns.  When a cell runs several runners (recursive
    algorithms), the last non-``None`` stop reason and the largest final
    time win — the cell-level story of "did a budget cut this run short".
    """

    __slots__ = ("stop_reason", "virtual_time")

    def __init__(self) -> None:
        self.stop_reason: str | None = None
        self.virtual_time: int = 0

    def note(self, stop_reason: str | None, virtual_time: int) -> None:
        if stop_reason is not None:
            self.stop_reason = stop_reason
        if virtual_time > self.virtual_time:
            self.virtual_time = virtual_time


@dataclass(frozen=True)
class EngineConfig:
    """The ambient simulation engine: backend kind plus network model.

    ``faults`` is the parsed fault plane (``None`` when fault-free) —
    applied by *both* engines.  ``max_time`` / ``message_budget`` are the
    event engine's graceful stopping conditions; ``stats`` collects
    stop-reason/virtual-time outcomes from the runners built inside the
    context.
    """

    engine: str  # "round" | "event"
    latency: LatencyModel
    faults: FaultModel | None = None
    max_time: int | None = None
    message_budget: int | None = None
    stats: EngineStats = field(default_factory=EngineStats, compare=False)


_ENGINE_STACK: list[EngineConfig] = []


def current_engine() -> EngineConfig | None:
    """The innermost active :func:`simulation_engine` config, or ``None``."""
    return _ENGINE_STACK[-1] if _ENGINE_STACK else None


def latency_bound() -> int:
    """Worst-case per-edge delay of the ambient engine (1 when synchronous).

    Latency-aware protocols use this to scale their time budgets — e.g.
    Bellman-Ford's ``n``-round horizon becomes ``n * latency_bound()``
    so estimates can cross any shortest path under the slowest edges.
    """
    config = current_engine()
    return 1 if config is None else config.latency.bound


def current_faults() -> FaultModel | None:
    """The ambient fault plane, or ``None`` outside any faulted context.

    Drivers consult this to relax their oracles to the declared
    tolerances (e.g. distance correctness on surviving nodes under a
    crash plan) and to recompute the deterministic crash schedule.
    """
    config = current_engine()
    return None if config is None else config.faults


def fault_horizon_factor() -> int:
    """Time-budget slack demanded by the ambient fault plane (1 if none).

    The fault-plane analogue of :func:`latency_bound`: fault-aware
    protocols multiply their horizons by it so dropped messages can retry
    and restarted nodes can relearn before the protocol gives up.
    """
    plane = current_faults()
    return 1 if plane is None else plane.horizon_factor


@contextmanager
def simulation_engine(
    engine: str = "event",
    latency: "str | LatencyModel" = "unit",
    seed: int = 0,
    *,
    faults: "str | FaultModel | None" = None,
    max_time: int | None = None,
    message_budget: int | None = None,
):
    """Select the simulation engine for all :func:`make_runner` calls inside.

    ``engine="event"`` runs protocols on :class:`EventRunner` under the
    given ``latency`` model (a string axis value or a
    :class:`LatencyModel`); ``engine="round"`` pins the synchronous
    :class:`~repro.sim.Runner` and therefore requires the unit model.
    ``seed`` feeds seeded models (``random:K`` latency and every fault
    draw).  ``faults`` installs a fault plane honored by *both* engines;
    ``max_time`` / ``message_budget`` are event-engine stopping
    conditions (rejected under ``engine="round"``, which has no virtual
    clock to bound).  Contexts nest; the innermost wins.
    """
    if engine not in ("round", "event"):
        raise ValueError(f"unknown engine {engine!r}; options: 'round', 'event'")
    model = parse_latency_model(latency, seed=seed)
    if engine == "round" and model.name != "unit":
        raise ValueError(
            f"the synchronous 'round' engine cannot express latency model "
            f"{model.name!r}; use engine='event'"
        )
    if engine == "round" and (max_time is not None or message_budget is not None):
        raise ValueError(
            "max_time/message_budget are event-engine stopping conditions; "
            "use engine='event'"
        )
    plane = parse_fault_model(faults, seed=seed)
    config = EngineConfig(engine, model, plane, max_time, message_budget)
    _ENGINE_STACK.append(config)
    try:
        yield config
    finally:
        _ENGINE_STACK.pop()


def make_runner(
    graph: "Graph | IndexedGraph",
    algorithms: dict,
    mode: Mode = Mode.CONGEST,
    **kwargs,
):
    """Construct the ambient engine's runner (the library-wide entry point).

    Outside any :func:`simulation_engine` context — or under
    ``engine="round"`` — this is exactly ``Runner(graph, algorithms,
    mode, **kwargs)``; under ``engine="event"`` it is an
    :class:`EventRunner` carrying the context's latency model and
    stopping conditions.  Both engines inherit the context's fault
    plane.  All library algorithms build their runners through this
    factory, which is what lets one sweep flag re-run the whole catalog
    on the event core — or under a fault model.
    """
    config = current_engine()
    if config is None:
        return Runner(graph, algorithms, mode, **kwargs)
    if config.faults is not None:
        kwargs.setdefault("faults", config.faults)
    if config.engine == "round":
        return Runner(graph, algorithms, mode, **kwargs)
    if config.max_time is not None:
        kwargs.setdefault("max_time", config.max_time)
    if config.message_budget is not None:
        kwargs.setdefault("message_budget", config.message_budget)
    kwargs.setdefault("stats", config.stats)
    return EventRunner(graph, algorithms, mode, latency=config.latency, **kwargs)


# ----------------------------------------------------------------------
# the event-driven runner
# ----------------------------------------------------------------------
class EventRunner(Runner):
    """The :class:`~repro.sim.Runner` loop with per-edge latency and
    graceful stopping conditions.

    Drives the same :class:`~repro.sim.NodeAlgorithm` /
    :class:`~repro.sim.Context` / :class:`~repro.sim.Inbox` API as the
    synchronous runner — algorithms cannot tell which engine they run on
    except through message timing.  ``ctx.round`` is the node's current
    *virtual time*; ``ctx.wake_at`` / ``ctx.sleep_for`` schedule in the
    same currency.  Under the default unit latency model the execution is
    the round engine's, step for step (see the module docstring).

    Parameters beyond the :class:`~repro.sim.Runner` set
    -----------------------------------------------------
    latency:
        A :class:`LatencyModel` or axis string (default ``"unit"``).
    max_time:
        Duration stopping: events at virtual times beyond this horizon
        are not processed; if a live wake or an undelivered message is
        left past it, the run stops gracefully with ``stop_reason ==
        "max_time"``.  A message sent at the horizon arrives past it
        under every latency model, unit latency included.  (``max_rounds`` stays the *hard* budget —
        exceeding it raises, as in the sync runner.)
    message_budget:
        Bandwidth stopping: once this many messages have been sent the
        run stops gracefully with ``stop_reason == "message_budget"``
        (the in-flight batch still resolves — budgets bound work, they do
        not tear messages).
    stats:
        Optional :class:`EngineStats` noting the stop reason and final
        virtual time.

    ``edge_capacity`` is enforced per *send time*: at most that many
    messages may enter one directed edge per virtual time unit — the
    event-core reading of per-edge bandwidth, which degenerates to the
    paper's per-round capacity under unit latency.
    """

    # __init__ and run reach the shared code through _setup/_execute, not
    # super(): perfbench's tracer wraps each class's own __init__ and run in
    # a span, and nested runner/event spans would split the time wrongly.
    def __init__(
        self,
        graph: "Graph | IndexedGraph",
        algorithms: dict,
        mode: Mode = Mode.CONGEST,
        *,
        latency: "str | LatencyModel | None" = None,
        round_width: int = 1,
        edge_capacity: int = 1,
        metrics: Metrics | None = None,
        max_rounds: int = 10_000_000,
        max_time: int | None = None,
        message_budget: int | None = None,
        faults: "str | FaultModel | None" = None,
        stats: EngineStats | None = None,
    ) -> None:
        self._setup(graph, algorithms, mode, round_width, edge_capacity,
                    metrics, max_rounds, faults)
        self.latency = parse_latency_model(latency if latency is not None else "unit")
        self.max_time = max_time
        self.message_budget = message_budget
        self._stats = stats
        #: ``None`` (ran to quiescence), ``"max_time"``, or ``"message_budget"``.
        self.stop_reason: str | None = None

    # ------------------------------------------------------------------
    def run(self) -> Metrics:
        """Process events until quiescence or a stopping condition."""
        latency = self.latency
        delays = None if latency.bound == 1 else latency.port_delays(self.indexed)
        self.stop_reason, final_time = self._execute(
            delays, self.max_time, self.message_budget
        )
        if self._stats is not None:
            self._stats.note(self.stop_reason, final_time)
        return self.metrics

"""All-Pairs Shortest Paths via ``n`` concurrent SSSPs (Section 1.1).

The paper's APSP result: because the Section 2 SSSP has polylog congestion
per edge, ``n`` instances (one per source) can run *concurrently* under
random-delay scheduling [LMR94, Gha15], giving ``~O(n)`` total time.  The
only randomness in the whole APSP algorithm is the delays.

Reproduction strategy (DESIGN.md, "Send traces in the engine" and
"Constructions are built once per call"): every SSSP instance is
executed once on the simulator, recording its per-(edge, round) message
trace in a plain :class:`~repro.sim.Metrics`'s opt-in ``send_trace``,
which batch kernels fill like any other run.  The trace is a
columnar :class:`~repro.sim.SendTrace`: each engine run adds one segment
of port and round columns, and merges shift segments by a base clock
instead of rewriting entries.  The ``n`` instances share one
construction memo: each distinct Boruvka forest, and the recursion's
done-cast over it, is simulated once per call and charged to every
instance that asks for it, its trace segments shared by reference.  The
scheduler then draws one uniform random start delay per instance from a
window ``[0, n)`` and superimposes the traces in one counting pass over
integer slot keys.  The run is *schedulable* if no (edge, direction,
round) slot exceeds the per-round capacity ``c`` (the CONGEST bandwidth
left for each instance-bundle; the scheduling theorems allow
``O(log n)`` messages per round to be bundled since each message is
``O(log n)`` bits and ``B``-bit CONGEST messages with
``B = O(log^2 n)`` — or equivalently grouping rounds — changes bounds
only by polylog factors).  The reported makespan is ``max_i (delay_i +
duration_i)``; experiment E7 checks it scales ``~O(n)`` and that capacity
violations don't occur for ``c = O(log n)``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from operator import add

from ..graphs import Graph
from ..sim import Metrics, SendTrace
from ..sim.kernels import current_backend, numpy_or_none
from .cssp import DEFAULT_EPS, cssp
from .sssp import SSSPResult

__all__ = ["APSPResult", "apsp", "schedule_with_random_delays", "ScheduleReport"]


@dataclass
class ScheduleReport:
    """Outcome of superimposing delayed SSSP traces."""

    makespan: int
    max_slot_load: int
    capacity: int
    delays: dict = field(repr=False)

    @property
    def feasible(self) -> bool:
        """True when no (edge, round) slot exceeded the per-round capacity."""
        return self.max_slot_load <= self.capacity


@dataclass
class APSPResult:
    """All-pairs distances plus per-instance metrics and the schedule."""

    distances: dict  # (source, node) -> distance
    per_source: dict  # source -> SSSPResult
    schedule: ScheduleReport

    def distance(self, u: object, v: object) -> float:
        return self.distances[(u, v)]


#: Largest slot key the numpy path can hold in an int64 column.
_INT64_MAX = (1 << 63) - 1


def _max_load_counter(placed: list, ids_by_table: dict, span: int) -> int:
    """The worst slot load, counted in a ``Counter`` of Python-int keys."""
    slot_load: Counter = Counter()
    scaled_by_table = {
        table: list(map(span.__mul__, ids)) for table, ids in ids_by_table.items()
    }
    for offset, pairs, ports, rounds in placed:
        scaled = scaled_by_table[id(pairs)]
        slot_load.update(map(add, map(scaled.__getitem__, ports), map(offset.__add__, rounds)))
    return max(slot_load.values(), default=0)


def _max_load_numpy(np, placed: list, ids_by_table: dict, span: int) -> int:
    """The worst slot load, from one int64 key column: sort, then count runs.

    The caller guarantees every key fits in int64.  The ``array("q")``
    trace columns are read in place.
    """
    if not placed:
        return 0
    scaled_by_table = {
        table: np.array(ids, dtype=np.int64) * span for table, ids in ids_by_table.items()
    }
    keys = np.empty(sum(len(ports) for _o, _p, ports, _r in placed), dtype=np.int64)
    start = 0
    for offset, pairs, ports, rounds in placed:
        chunk = keys[start:start + len(ports)]
        np.take(scaled_by_table[id(pairs)], np.frombuffer(ports, dtype=np.int64), out=chunk)
        chunk += np.frombuffer(rounds, dtype=np.int64)
        chunk += offset
        start += len(ports)
    keys.sort()
    # A slot's load is the length of its run of equal keys.
    run_ends = np.flatnonzero(keys[1:] != keys[:-1])
    return int(np.diff(run_ends, prepend=-1, append=len(keys) - 1).max())


def schedule_with_random_delays(
    traces: dict,
    durations: dict,
    *,
    window: int,
    capacity: int,
    seed: int = 0,
) -> ScheduleReport:
    """Superimpose per-instance (edge, round) traces under random delays.

    ``traces`` maps instance -> :class:`~repro.sim.SendTrace`;
    ``durations`` maps instance -> rounds.  Returns the makespan and the
    worst per-slot load so callers can verify feasibility at their chosen
    capacity.

    Every directed edge gets an integer id, once per label table, and the
    slot ``(edge, t)`` is counted under the key ``edge * span + t``, where
    ``span`` exceeds every delayed round ``t``: distinct slots never share
    a key.  Under the numpy backend the keys of every send fill one int64
    column, which is sorted so that a slot's load is the length of its
    run of equal keys.  Under the scalar backend, or when a key could
    pass int64, a ``Counter`` counts them in C over the trace columns.
    Both paths give the same report.
    """
    rng = random.Random(seed)
    delays = {i: rng.randrange(max(1, window)) for i in traces}
    placed = [
        (base + delays[instance], pairs, ports, rounds)
        for instance, trace in traces.items()
        for base, pairs, ports, rounds in trace.segments
    ]
    span = 1 + max((offset + max(rounds) for offset, _p, _q, rounds in placed), default=0)
    edge_ids: dict = {}
    fresh = count()
    ids_by_table: dict[int, list] = {}
    for _offset, pairs, _ports, _rounds in placed:
        if id(pairs) not in ids_by_table:
            # setdefault hands a new edge the next id and an old one its own.
            ids_by_table[id(pairs)] = list(map(edge_ids.setdefault, pairs, fresh))
    # Every id is below next(fresh), so every key is below id_bound * span.
    id_bound = next(fresh)
    np = numpy_or_none() if current_backend() == "numpy" else None
    if np is not None and id_bound * span <= _INT64_MAX:
        max_slot_load = _max_load_numpy(np, placed, ids_by_table, span)
    else:
        max_slot_load = _max_load_counter(placed, ids_by_table, span)
    makespan = max(
        (delays[i] + durations[i] for i in traces), default=0
    )
    return ScheduleReport(
        makespan=makespan, max_slot_load=max_slot_load, capacity=capacity, delays=delays
    )


def apsp(
    graph: Graph,
    *,
    eps: float = DEFAULT_EPS,
    seed: int = 0,
    capacity_log_factor: int = 4,
) -> APSPResult:
    """All-pairs distances by ``n`` independent SSSP runs + random delays.

    Exact distances for every ordered pair.  The schedule report states the
    concurrent makespan and whether the per-round edge capacity
    ``capacity_log_factor * ceil(log2 n)`` was respected.

    The sources share one construction memo, so each distinct Boruvka
    forest and done-cast is simulated once and replayed into every
    source that asks for it; the per-source metrics and traces are those
    of ``n`` separate runs.
    """
    import math

    nodes = sorted(graph.nodes(), key=repr)
    per_source: dict = {}
    traces: dict = {}
    durations: dict = {}
    memo: dict = {}
    for s in nodes:
        metrics = Metrics()
        metrics.send_trace = SendTrace()
        distances, _ = cssp(graph, {s: 0}, eps=eps, metrics=metrics, memo=memo)
        per_source[s] = SSSPResult(source=s, distances=distances, metrics=metrics)
        traces[s] = metrics.send_trace
        durations[s] = metrics.rounds

    n = max(2, graph.num_nodes)
    capacity = capacity_log_factor * math.ceil(math.log2(n))
    window = max(1, max(durations.values(), default=1))
    schedule = schedule_with_random_delays(
        traces, durations, window=window, capacity=capacity, seed=seed
    )
    distances = {
        (s, v): per_source[s].distances[v] for s in nodes for v in graph.nodes()
    }
    return APSPResult(distances=distances, per_source=per_source, schedule=schedule)


"""Execution tracing: per-round load profiles and awake timelines.

:class:`TracingMetrics` is a drop-in :class:`~repro.sim.Metrics` that
keeps a :class:`~repro.sim.SendTrace` and reads *when* things happened
off it: messages per round, awake nodes per round, and per-edge time
series.  Useful for debugging schedule bugs in sleeping-model protocols
(e.g. "who was awake when this offer was sent?") and for the
congestion-profile example.  The engines meter it exactly like a plain
traced ``Metrics`` (batch kernels and the construction memo included), so
``messages_by_round`` counts every send ``total_messages`` counts,
fault-dropped ones too, and merges and copies keep both profiles.

Costs: memory linear in (active rounds + messages); use on experiment-
sized runs, not the biggest sweeps.
"""

from __future__ import annotations

from collections import Counter

from .metrics import Metrics, SendTrace

__all__ = ["TracingMetrics"]


class TracingMetrics(Metrics):
    """Metrics plus time-resolved message and wake records."""

    def __init__(self) -> None:
        super().__init__()
        self.send_trace = SendTrace()

    @property
    def messages_by_round(self) -> Counter:
        """Round -> messages sent in that round (absolute rounds)."""
        out: Counter = Counter()
        for base, _pairs, _ports, rounds in self.send_trace.segments:
            out.update(map(base.__add__, rounds))
        return out

    @property
    def awake_by_round(self) -> Counter:
        """Round -> number of awake nodes."""
        return self.send_trace.wakes()

    # -- analysis helpers -------------------------------------------------
    def peak_round_load(self) -> tuple[int, int]:
        """``(round, messages)`` of the busiest round (0, 0 when silent)."""
        load = self.messages_by_round
        if not load:
            return (0, 0)
        busiest = max(load, key=load.__getitem__)
        return busiest, load[busiest]

    def awake_fraction_profile(self, num_nodes: int, buckets: int = 10) -> list[float]:
        """Average awake fraction per time bucket across the execution.

        Every round lands in exactly one bucket: the last bucket extends to
        the horizon, so the ``horizon % buckets`` tail rounds are averaged
        into it rather than silently dropped (e.g. horizon 25 over 10
        buckets gives nine 2-round buckets and one 7-round tail bucket —
        rounds 18..24 all counted).
        """
        awake = self.awake_by_round
        if not awake or num_nodes == 0:
            return [0.0] * buckets
        horizon = max(awake) + 1
        width = max(1, horizon // buckets)
        out = []
        for b in range(buckets):
            lo = b * width
            hi = horizon if b == buckets - 1 else min((b + 1) * width, horizon)
            if lo >= hi:
                out.append(0.0)
                continue
            total = sum(awake.get(r, 0) for r in range(lo, hi))
            out.append(total / ((hi - lo) * num_nodes))
        return out

    def edge_profile(self, u: object, v: object) -> dict[int, int]:
        """Round -> messages for the undirected edge ``{u, v}``."""
        return dict(sorted(self.send_trace.rounds_on({(u, v), (v, u)}).items()))

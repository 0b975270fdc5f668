"""Seeded fault-injection plane: message drop/duplication, node crash-restart.

The sleeping model exists because messages to sleeping nodes are *lost* —
that is the one hazard the engines could express so far.  This module
generalizes it into a first-class fault plane, following the same recipe
:class:`~repro.sim.events.RandomDelayLatency` established for latency:
every fault decision is a pure function of ``(seed, fault kind, edge or
node, time, occurrence index)``, so a faulted execution is deterministic,
fork-stable and process-stable — the same ``(seed, fault_model)`` pair
drops the same messages and crashes the same nodes no matter how many
sweep workers or shards ran the cell.

Fault model strings (the sweep-facing ``fault_model`` axis):

* ``"none"`` — no faults; parses to ``None`` so engine hot paths stay
  byte-identical to the pre-fault code (the differential guarantee);
* ``"drop:p"`` — each delivered-bound message is destroyed independently
  with probability ``p`` (metered in ``Metrics.messages_dropped``);
* ``"dup:p"`` — each *delivered* message independently arrives twice
  (the duplicate lands immediately after the original, same time; it is
  a fault artifact, so it bypasses edge-capacity metering and does not
  inflate message/congestion totals — only ``messages_duplicated``);
* ``"crash:k@r"`` — ``k`` seeded node crashes at/after time ``r`` (the
  ``j``-th sampled node dies at ``r + j``): a crashed node stops
  stepping, its pending inbox is destroyed, and messages addressed to it
  are dropped;
* ``"+restart:d"`` (only with ``crash``) — each crashed node reboots
  ``d`` time units after its crash with *fresh* algorithm state (a copy
  of its initial instance), as if it had just joined the network;
* composed forms join terms with ``+``: ``"drop:0.05+dup:0.01"``,
  ``"crash:2@3+restart:6"``.

Where faults act (see DESIGN.md): drop and duplication are decided at
**send time**, on the sending side of the link — consistent with the
event engine's send-time resolution of sleeping-model delivery — while a
crash acts at **delivery time**, because a dead receiver cannot accept a
message regardless of when it was sent.  Under unit latency the two
engines make identical draws in identical order, so faulted runs, like
fault-free ones, agree byte-for-byte across engines.
"""

from __future__ import annotations

import random
from hashlib import blake2b

__all__ = ["FaultModel", "parse_fault_model", "canonical_fault"]


def _uniform(key: str) -> float:
    """A uniform [0, 1) draw keyed by a string — stable across processes.

    ``random.Random(key)`` would work (string seeding hashes with
    sha512), but building a full Mersenne state per message is
    needless; one blake2b digest is the cheap, equally stable draw.
    A message draw is ``_uniform(key) < rate``; :class:`FaultModel`
    computes the same verdict from a cached key prefix and
    :func:`_draw_bound`.
    """
    digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def _draw_bound(rate: float) -> bytes:
    """The 8-byte big-endian bound below which a digest draws ``True``.

    ``x / 2**64 < rate`` is monotone in the digest's integer ``x``, so
    bisection finds the least ``x`` where it fails, and ``digest < bound``
    as bytes gives the float compare's verdict for every ``x``.  The
    bound fits in 8 bytes because ``(2**64 - 1) / 2**64`` rounds to 1.0.
    """
    lo, hi = 0, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 < rate:
            lo = mid + 1
        else:
            hi = mid
    return lo.to_bytes(8, "big")


def _check_prob(value: float, what: str) -> float:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{what} probability must be in [0, 1), got {value!r}")
    return value


class FaultModel:
    """One parsed fault plane: which hazards are active, at what rates.

    Instances are immutable in spirit (construct-and-use); the engines
    query them through :meth:`drop_message`, :meth:`duplicate_message`
    and :meth:`crash_plan`, all pure functions of the constructor
    arguments — no mutable draw state, which is what makes faulted runs
    reproducible across worker counts and shards.
    """

    def __init__(
        self,
        *,
        drop: float = 0.0,
        dup: float = 0.0,
        crashes: int = 0,
        crash_time: int = 0,
        restart_after: int | None = None,
        seed: int = 0,
    ) -> None:
        self.drop = _check_prob(drop, "drop")
        self.dup = _check_prob(dup, "dup")
        if not isinstance(crashes, int) or isinstance(crashes, bool) or crashes < 0:
            raise ValueError(f"crash count must be an integer >= 0, got {crashes!r}")
        if not isinstance(crash_time, int) or isinstance(crash_time, bool) or crash_time < 0:
            raise ValueError(f"crash time must be an integer >= 0, got {crash_time!r}")
        if restart_after is not None and (
            not isinstance(restart_after, int)
            or isinstance(restart_after, bool)
            or restart_after < 1
        ):
            raise ValueError(
                f"restart delay must be an integer >= 1, got {restart_after!r}"
            )
        if restart_after is not None and crashes == 0:
            raise ValueError("restart requires crash: 'restart:d' without 'crash:k@r'")
        self.crashes = crashes
        self.crash_time = crash_time
        self.restart_after = restart_after
        self.seed = seed
        self._drop_bound = _draw_bound(self.drop)
        self._dup_bound = _draw_bound(self.dup)
        # UTF-8 key prefixes of the per-message draws, by (src, dst) label.
        self._drop_prefixes: dict = {}
        self._dup_prefixes: dict = {}

    # -- identity --------------------------------------------------------
    @property
    def name(self) -> str:
        """Canonical axis string (term order: drop, dup, crash, restart)."""
        terms: list[str] = []
        if self.drop:
            terms.append(f"drop:{self.drop:g}")
        if self.dup:
            terms.append(f"dup:{self.dup:g}")
        if self.crashes:
            terms.append(f"crash:{self.crashes}@{self.crash_time}")
            if self.restart_after is not None:
                terms.append(f"restart:{self.restart_after}")
        return "+".join(terms) if terms else "none"

    @property
    def kinds(self) -> frozenset:
        """The active hazard kinds — matched against declared tolerances."""
        kinds = set()
        if self.drop:
            kinds.add("drop")
        if self.dup:
            kinds.add("dup")
        if self.crashes:
            kinds.add("crash")
        return frozenset(kinds)

    @property
    def horizon_factor(self) -> int:
        """Time-budget slack for fault-aware protocols (cf. latency_bound).

        Dropped messages retry on the next (re)broadcast and restarted
        nodes relearn from scratch, so convergence under faults needs
        head-room; doubling the fault-free horizon covers every
        registered rate with large margin (a drop rate ``p`` slows a
        monotone flood by ``1/(1-p)`` in expectation).
        """
        return 2

    def __repr__(self) -> str:
        return f"FaultModel({self.name!r}, seed={self.seed})"

    # -- per-message draws ----------------------------------------------
    # A draw is ``_uniform(key) < rate`` for the one-string key
    # ``f"{seed}|{kind}|{rate:g}|{src!r}|{dst!r}|{time}|{index}"``.  The
    # part up to ``dst`` is encoded once per label pair, and the digest is
    # compared as bytes against the rate's bound (:func:`_draw_bound`), so
    # a draw formats and hashes only its per-message suffix.  The cache is
    # keyed by label, not port id, because one model serves runs over many
    # subgraphs; labels that compare equal print equal (ints, strings).
    def drop_message(self, src: object, dst: object, time: int, index: int) -> bool:
        """Whether the ``index``-th message on ``src -> dst`` at ``time`` drops.

        Keyed by the drop rate (not the whole model name), so composing
        ``dup`` onto an existing ``drop:p`` model does not perturb which
        messages drop — the axes compose without interference.
        """
        if not self.drop:
            return False
        return self._draw(self._drop_prefixes, "drop", self.drop, self._drop_bound,
                          src, dst, time, index)

    def duplicate_message(self, src: object, dst: object, time: int, index: int) -> bool:
        """Whether that message is delivered twice (independent of dropping)."""
        if not self.dup:
            return False
        return self._draw(self._dup_prefixes, "dup", self.dup, self._dup_bound,
                          src, dst, time, index)

    def _draw(self, prefixes: dict, kind: str, rate: float, bound: bytes,
              src: object, dst: object, time: int, index: int) -> bool:
        prefix = prefixes.get((src, dst))
        if prefix is None:
            prefix = prefixes[src, dst] = (
                f"{self.seed}|{kind}|{rate:g}|{src!r}|{dst!r}|".encode()
            )
        digest = blake2b(prefix + f"{time}|{index}".encode(), digest_size=8).digest()
        return digest < bound

    # -- crash schedule --------------------------------------------------
    def crash_plan(self, labels) -> dict:
        """``{node: (crash_time, restart_time | None)}`` for this network.

        Victims are sampled from the repr-sorted label list by a
        :class:`random.Random` seeded with ``"{seed}|crash|{k}|{r}"`` —
        independent of graph construction order and identical in every
        process.  The ``j``-th victim crashes at ``crash_time + j``
        (staggered, so composed failures arrive as a sequence, not one
        synchronized wipe) and restarts ``restart_after`` later if a
        restart delay is configured.
        """
        if not self.crashes:
            return {}
        pool = sorted(labels, key=repr)
        rng = random.Random(f"{self.seed}|crash|{self.crashes}|{self.crash_time}")
        chosen = rng.sample(pool, min(self.crashes, len(pool)))
        plan: dict = {}
        for j, node in enumerate(chosen):
            when = self.crash_time + j
            restart = None if self.restart_after is None else when + self.restart_after
            plan[node] = (when, restart)
        return plan


def _term_error(
    spec: str, position: int, count: int, term: str, detail: str
) -> ValueError:
    """A parse error that pinpoints the failing term of a composed spec.

    ``"drop:0.1+crash:2@x"`` fails somewhere in its second term; the
    message must say *which* term and *what* text broke, or the user is
    left diffing the whole spec by eye.
    """
    where = (
        f"term {position} of {count} ({term!r})" if count > 1 else f"term {term!r}"
    )
    return ValueError(f"fault model {spec!r}: {where}: {detail}")


def _parse_number(
    text: str,
    *,
    integer: bool,
    spec: str,
    position: int,
    count: int,
    term: str,
    what: str,
):
    try:
        return int(text) if integer else float(text)
    except ValueError:
        kind = "an integer" if integer else "a number"
        raise _term_error(
            spec, position, count, term,
            f"expected {kind} for {what}, got {text!r}",
        ) from None


def parse_fault_model(spec: "str | FaultModel | None", seed: int = 0) -> FaultModel | None:
    """Build a fault plane from its sweep-axis string.

    ``"none"`` (and models whose every rate is zero) parse to ``None`` —
    the engines gate all fault bookkeeping on ``plane is None``, which is
    what keeps fault-free runs byte-identical to the pre-fault code.  A
    :class:`FaultModel` instance passes through unchanged (it carries its
    own seed, like a prebuilt latency model).  Raises :class:`ValueError`
    on anything malformed — callers surface it as a spec or sweep error
    before any work runs.
    """
    if spec is None:
        return None
    if isinstance(spec, FaultModel):
        return spec
    if not isinstance(spec, str):
        raise ValueError(f"fault model must be a string or FaultModel, got {spec!r}")
    text = spec.strip().lower()
    if text == "none":
        return None
    if not text:
        raise ValueError("fault model must be 'none' or a '+'-joined list of terms")
    drop = dup = 0.0
    crashes = 0
    crash_time = 0
    restart_after: int | None = None
    terms = [term.strip() for term in text.split("+")]
    total = len(terms)
    seen: dict[str, int] = {}
    for position, term in enumerate(terms, start=1):
        head, sep, tail = term.partition(":")
        if term == "none" or not sep:
            raise _term_error(
                spec, position, total, term,
                "expected 'drop:p', 'dup:p', 'crash:k@r' or 'restart:d' "
                "('none' stands alone)",
            )
        if head in seen:
            raise _term_error(
                spec, position, total, term,
                f"repeats {head!r} (already given at term {seen[head]})",
            )
        seen[head] = position
        number = dict(spec=spec, position=position, count=total, term=term)
        try:
            if head == "drop":
                drop = _check_prob(
                    _parse_number(tail, integer=False, what="the drop probability",
                                  **number),
                    "drop",
                )
            elif head == "dup":
                dup = _check_prob(
                    _parse_number(tail, integer=False, what="the dup probability",
                                  **number),
                    "dup",
                )
            elif head == "crash":
                crash_count, at_sep, when = tail.partition("@")
                if not at_sep:
                    raise _term_error(
                        spec, position, total, term,
                        "expected 'crash:k@r' (k crashes at/after time r)",
                    )
                crashes = _parse_number(
                    crash_count, integer=True,
                    what="the crash count (before '@')", **number,
                )
                crash_time = _parse_number(
                    when, integer=True,
                    what="the crash time (after '@')", **number,
                )
                if crashes < 1:
                    raise _term_error(
                        spec, position, total, term,
                        f"crash count must be >= 1, got {crashes}",
                    )
                if crash_time < 0:
                    raise _term_error(
                        spec, position, total, term,
                        f"crash time must be >= 0, got {crash_time}",
                    )
            elif head == "restart":
                restart_after = _parse_number(
                    tail, integer=True, what="the restart delay", **number,
                )
                if restart_after < 1:
                    raise _term_error(
                        spec, position, total, term,
                        f"restart delay must be >= 1, got {restart_after}",
                    )
            else:
                raise _term_error(
                    spec, position, total, term,
                    "unknown term (options: 'drop:p', 'dup:p', 'crash:k@r', "
                    "'restart:d')",
                )
        except ValueError as exc:
            if str(exc).startswith("fault model "):
                raise
            # _check_prob raises without term context; attach it here.
            raise _term_error(spec, position, total, term, str(exc)) from None
    if restart_after is not None and not crashes:
        raise ValueError(f"fault model {spec!r}: restart requires a crash term")
    if not (drop or dup or crashes):
        return None
    return FaultModel(
        drop=drop,
        dup=dup,
        crashes=crashes,
        crash_time=crash_time,
        restart_after=restart_after,
        seed=seed,
    )


def canonical_fault(spec: "str | FaultModel | None") -> str:
    """The canonical string of a fault model spec (``"none"`` when inert).

    This is the value recorded in tidy rows and hashed into scenario
    digests — and it is hashed **only when not "none"**, so every
    pre-fault JSONL store keeps resuming unchanged.  Zero-rate terms
    canonicalize away: ``"drop:0"`` is ``"none"``.
    """
    plane = parse_fault_model(spec, seed=0)
    return "none" if plane is None else plane.name

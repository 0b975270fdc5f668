"""Batch-kernel round API: step a whole round's awake set as columns.

The columnar message plane (PRs 1-2) stops at the algorithm boundary —
per-node ``on_round`` callbacks still execute scalar Python, one attribute
dance and one wake computation per node per round.  A :class:`BatchKernel`
lifts that boundary: for a protocol that opts in, the engine hands the
kernel the *whole round* — the sorted awake index list, the per-node inbox
columns, and the engine's own outbox columns — and the kernel returns one
wake code per awake node.  The engine then applies those codes with exactly
the scheduling logic of the scalar path.  When every code of the round is
the same (``codes.count(codes[0]) == len(codes)``, the common case), it
books the whole awake list at once: one ``extend`` into the target round's
bucket, or one halt mark per node.  Mixed codes are applied node by node.

The contract is **metering parity**: a kernel round must leave every
observable — message counts, per-edge counters, wake/energy accounting,
round totals, and the algorithm's final local state — byte-identical to the
scalar path.  The engine enforces the cheap half mechanically (it keeps the
delivery phase, the per-round edge-capacity check over the outbox columns,
the wake logs, and the scheduler untouched, so a kernel that emits the
same outbox columns and the same wake decisions *cannot* diverge, nor
overrun an edge unnoticed); the differential suite in
``tests/test_kernels.py`` pins the rest across the scenario catalog.

Rules a kernel must follow (the engine relies on them):

* append unicasts to ``out_ports``/``out_payloads`` (port ids) and
  broadcasts to ``bcast_src``/``bcast_payloads`` (node indices) in the
  same order the scalar path would — inbox order is observable;
* never mutate the inbox columns or the shared CSR arrays: the CSR
  columns are tuples, so a write raises ``TypeError``, and the
  backend-parity suite (``tests/test_kernels.py::TestBackendParity``)
  pins what ``awake``/``inboxes`` mutations would change; the engine
  truncates inboxes after the kernel returns;
* a broadcast by a degree-0 node appends **no** record (mirroring
  :meth:`Context.broadcast`'s early return).

Kernels may *decline* a round by returning ``None`` before mutating any
state; the engine then runs the scalar path for that round.  This keeps
kernels honest on protocols (Boruvka) where only some rounds have a
regular batch shape.

A kernel stays only while it is measurably faster end to end (DESIGN.md,
"Batch kernels: metering parity is the contract"); Boruvka's
(:mod:`repro.core.boruvka`) is the one that does.

The ``backend`` knob selects the dispatch path: ``"numpy"`` (default when
numpy is importable) enables batch kernels and APSP's vectorized
superposition count (:mod:`repro.core.apsp`), ``"scalar"`` forces the
per-node path everywhere.  The knob is **provenance, not physics**: both
backends produce byte-identical metrics and results, so it is never
digested and every existing store resumes under either setting.

numpy loads on the first backend resolution — :func:`numpy_or_none`,
:func:`available_backends`, :func:`default_backend`,
:func:`current_backend`, or a ``"numpy"`` request to :func:`set_backend`
— never at ``import repro``.  A process that never resolves a backend
does not import numpy at all: ``--help``, an argument or spec error,
``repro sweep --list``/``--merge``, ``repro report``, a sweep whose store
is already complete, and every process of a ``scalar`` sweep.  A process
that runs a cell under the numpy backend pays the same import, at its
first cell instead of at start-up.
"""

from __future__ import annotations

from contextlib import contextmanager

#: ``_np`` holds this sentinel until the first resolution, then the numpy
#: module, or ``None`` when numpy is not importable (everything degrades to
#: scalar).
_UNRESOLVED = object()
_np = _UNRESOLVED

__all__ = [
    "BatchKernel",
    "WAKE_HALT",
    "numpy_or_none",
    "available_backends",
    "default_backend",
    "current_backend",
    "set_backend",
    "use_backend",
    "kernel_for",
]

#: Wake codes a kernel returns per awake node.  Any value ``>= 0`` is an
#: absolute wake round (the ``ctx.wake_at`` analog, above the current round
#: ``r``; ``r + 1`` is the next); the one negative code mirrors ``ctx.halt()``:
#: never step again, the output is in state.
WAKE_HALT = -4


def numpy_or_none():
    """The numpy module when importable, else ``None`` (kernels vector-gate).

    The first call imports numpy; later calls return the cached answer.
    """
    global _np
    if _np is _UNRESOLVED:
        try:
            import numpy as _np
        except ImportError:
            _np = None
    return _np


# ----------------------------------------------------------------------
# backend knob (provenance-only; never digested)
# ----------------------------------------------------------------------
_BACKENDS = ("scalar", "numpy")
_requested: str | None = None  # None -> default


def available_backends() -> tuple[str, ...]:
    """Backends this interpreter can actually run."""
    return _BACKENDS if numpy_or_none() is not None else ("scalar",)


def default_backend() -> str:
    """``"numpy"`` when numpy is importable, else ``"scalar"``."""
    return "numpy" if numpy_or_none() is not None else "scalar"


def current_backend() -> str:
    """The active backend after resolving requests against availability.

    A ``"numpy"`` request on a numpy-less interpreter resolves to
    ``"scalar"`` — the graceful-fallback contract the CI matrix pins.
    """
    name = _requested if _requested is not None else default_backend()
    if name == "numpy" and numpy_or_none() is None:
        return "scalar"
    return name


def set_backend(name: str | None) -> None:
    """Request a backend (``None`` restores the default).

    A ``"numpy"`` request resolves numpy at once, so the import happens
    here and not inside the first run that dispatches a kernel.
    """
    global _requested
    if name is not None and name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {_BACKENDS}"
        )
    if name == "numpy":
        numpy_or_none()
    _requested = name


@contextmanager
def use_backend(name: str | None):
    """Scoped :func:`set_backend` (restores the previous request)."""
    global _requested
    prev = _requested
    set_backend(name)
    try:
        yield
    finally:
        _requested = prev


# ----------------------------------------------------------------------
# kernel protocol
# ----------------------------------------------------------------------
class BatchKernel:
    """One protocol's vectorized round step.

    Subclasses hold whatever per-node state columns they need (built from
    the algorithm instances at construction) and implement
    :meth:`on_round_batch`.  Kernels that mirror instance state in their
    own columns must write it back in :meth:`finalize` — drivers read
    results off the algorithm instances after ``run()``.
    """

    def on_round_batch(
        self, r, awake, inboxes,
        out_ports, out_payloads, bcast_src, bcast_payloads,
    ):
        """Step every node in ``awake`` for round ``r``.

        Returns a ``list`` of wake codes aligned with ``awake``, or ``None``
        to decline the round (the engine then runs the scalar path; the
        kernel must not have mutated anything before declining).
        """
        raise NotImplementedError

    def finalize(self) -> None:
        """Write kernel state back onto the algorithm instances."""


def kernel_for(runner) -> BatchKernel | None:
    """Build the batch kernel for this run, or ``None`` for scalar.

    Centralizes every dispatch gate so both engines agree:

    * the active backend enables kernels (``scalar`` disables them);
    * no fault plane: fault draws are keyed per delivered message in
      delivery order, and crash restarts rebind algorithm instances
      mid-run, both interleaved with per-node stepping;
    * a homogeneous algorithm roster whose class opts in via
      ``batch_kernel`` (which may itself return ``None``).

    Neither the metrics accumulator nor ``edge_capacity`` is a gate: the
    engine meters every accumulator from the same columns (an opt-in
    ``send_trace`` included) and checks a kernel round's outbox columns
    against the capacity exactly as it checks scalar sends.
    """
    if current_backend() == "scalar":
        return None
    if runner.faults is not None:
        return None
    algorithms = runner._algorithms_by_index
    if not algorithms:
        return None
    cls = type(algorithms[0])
    for alg in algorithms:
        if type(alg) is not cls:
            return None
    hook = getattr(cls, "batch_kernel", None)
    if hook is None:
        return None
    return hook(runner)

"""Shared-memory graph plane for sweep workers.

A sweep's locality groups all share graph instances keyed by
``(family, max_weight, n, seed)``.  Without this module every worker
regenerates its group's graph from the family recipe; with it, the
supervisor builds each graph once, publishes its CSR columns into one
``multiprocessing.shared_memory`` segment, and sends its name with the
group; the forked worker *attaches* it — the OS maps the same physical
pages into the worker, and the worker unpacks the columns with
:func:`struct.unpack_from`: no pickling of the adjacency and no
regeneration.  The attach rebuilds the label-space
:class:`Graph` (drivers iterate neighbors by label) and seeds its cached
:class:`~repro.graphs.indexed.IndexedGraph` via
:meth:`~repro.graphs.indexed.IndexedGraph.from_csr` with the unpacked
tuples.  Everything is byte-order exact: the attached CSR *is* the
publisher's CSR, so row/metric identity across worker counts is
structural, not probabilistic.

Ownership and cleanup — the part that must survive every failure mode:

* The **supervisor is the sole owner** of every segment.  It publishes
  inside a ``try``/``finally`` and unlinks on every exit path — success,
  driver errors, and Ctrl-C alike.  If the supervisor itself is SIGKILLed,
  its ``resource_tracker`` daemon (which outlives it precisely for this)
  unlinks the registered segments.
* A worker closes its mapping as soon as it has unpacked the columns:
  the rebuilt graph holds its own copies, so no segment stays mapped in
  a worker beyond one attach.
* Workers never unlink.  :class:`SharedMemory` registers every open with
  the resource tracker (attaches too, not just creates — CPython
  gh-82300), but the plane only runs under the ``fork`` start method, so
  workers share the supervisor's tracker daemon and an attach-side
  register is an idempotent set-add there.  A crashed or SIGKILLed
  worker therefore cannot trigger an unlink; the daemon cleans up only
  when the whole process tree is gone.
* Attach failures (segment already gone, platform without shm) fall back
  to regenerating the graph locally; the plane is an optimization, never
  a correctness dependency.

Graceful degradation: on platforms without ``multiprocessing.shared_memory``
(or without ``/dev/shm``), :func:`available` is False and the sweep runs
exactly as before.  The attach is one path whatever the dispatch
backend.
"""

from __future__ import annotations

import pickle
import struct

__all__ = [
    "available",
    "publish_graph",
    "attach_graph",
    "active_segments",
    "SharedGraphHandle",
]

try:  # pragma: no cover - import guard exercised on exotic platforms only
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None
    shared_memory = None

#: Header layout: num_nodes, num_ports, labels-blob length (bytes).
_HEADER = struct.Struct("<qqq")
_WORD = 8  # int64 column width

#: Segments published by THIS process (name -> SharedGraphHandle).
_PUBLISHED: dict[str, "SharedGraphHandle"] = {}


def available() -> bool:
    """Whether this platform can publish shared-memory graph segments."""
    return shared_memory is not None


def active_segments() -> list[str]:
    """Names of segments this process has published and not yet unlinked."""
    return sorted(_PUBLISHED)


class SharedGraphHandle:
    """Owner-side handle for one published graph segment."""

    __slots__ = ("name", "_shm")

    def __init__(self, name: str, shm) -> None:
        self.name = name
        self._shm = shm

    def unlink(self) -> None:
        """Release and remove the segment (idempotent, never raises)."""
        _PUBLISHED.pop(self.name, None)
        try:
            self._shm.close()
        except Exception:
            pass
        try:
            self._shm.unlink()
        except Exception:
            pass  # already gone (tracker cleanup, double unlink, ...)


def _pack_ints(buf, offset: int, values) -> int:
    n = len(values)
    struct.pack_into(f"<{n}q", buf, offset, *values)
    return offset + n * _WORD


def publish_graph(graph) -> SharedGraphHandle | None:
    """Publish ``graph``'s CSR into a fresh shared-memory segment.

    Returns the owner handle, or ``None`` when shared memory is
    unavailable or the segment cannot be created (e.g. ``/dev/shm`` is
    full) — callers treat ``None`` as "ship nothing, workers rebuild".
    """
    if shared_memory is None:
        return None
    from ..graphs.indexed import IndexedGraph

    indexed = IndexedGraph.of(graph)
    blob = pickle.dumps(indexed.labels, protocol=pickle.HIGHEST_PROTOCOL)
    ports = len(indexed.nbr)
    size = (
        _HEADER.size
        + (len(indexed.indptr) + 2 * ports) * _WORD
        + len(blob)
    )
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
    except Exception:
        return None
    try:
        buf = shm.buf
        _HEADER.pack_into(buf, 0, indexed.num_nodes, ports, len(blob))
        offset = _HEADER.size
        offset = _pack_ints(buf, offset, indexed.indptr)
        offset = _pack_ints(buf, offset, indexed.nbr)
        offset = _pack_ints(buf, offset, indexed.wt)
        buf[offset : offset + len(blob)] = blob
    except Exception:
        handle = SharedGraphHandle(shm.name, shm)
        handle.unlink()
        return None
    handle = SharedGraphHandle(shm.name, shm)
    _PUBLISHED[shm.name] = handle
    return handle


def attach_graph(name: str):
    """Attach a published segment and rebuild its :class:`Graph`.

    The returned graph's ``_adj`` rows are laid out in CSR order, so the
    rebuilt adjacency — and any view derived from it — is byte-identical
    to the publisher's.  Its cached indexed view is seeded directly from
    the CSR tuples unpacked from the mapped buffer, which is closed again
    before this returns.
    Returns ``None`` when the segment cannot be attached; callers fall
    back to building the graph locally.
    """
    if shared_memory is None:
        return None
    from ..graphs.indexed import IndexedGraph
    from ..graphs.weighted_graph import Graph

    try:
        shm = shared_memory.SharedMemory(name=name)
    except Exception:
        return None
    # SharedMemory registers with the resource tracker on *attach* as
    # well as create (CPython gh-82300).  The plane only runs under the
    # fork start method, so this worker shares the supervisor's tracker
    # daemon and the attach-side register is an idempotent set-add there,
    # not a second owner.  Do NOT unregister here: the daemon holds one
    # entry per name, and unregistering from N workers would double-remove
    # it and strip the supervisor-SIGKILL backstop.
    try:
        buf = shm.buf
        n, ports, blob_len = _HEADER.unpack_from(buf, 0)
        offset = _HEADER.size
        indptr_end = offset + (n + 1) * _WORD
        nbr_end = indptr_end + ports * _WORD
        wt_end = nbr_end + ports * _WORD
        labels = pickle.loads(bytes(buf[wt_end : wt_end + blob_len]))
        indptr = struct.unpack_from(f"<{n + 1}q", buf, offset)
        nbr = struct.unpack_from(f"<{ports}q", buf, indptr_end)
        wt = struct.unpack_from(f"<{ports}q", buf, nbr_end)
    finally:
        shm.close()
    indexed = IndexedGraph.from_csr(labels, indptr, nbr, wt)
    graph = Graph()
    adj = graph._adj
    for i, u in enumerate(labels):
        row = {}
        for p in range(indptr[i], indptr[i + 1]):
            row[labels[nbr[p]]] = wt[p]
        adj[u] = row
    graph._num_edges = indexed.num_edges
    graph._indexed_view = indexed
    return graph

"""Deterministic sweep sharding and shard-store recombination.

A *shard* is one of ``k`` disjoint sub-jobs of a :class:`~repro.api.SweepSpec`:
the cell cross product is grouped by graph-instance key (the same locality
grouping the executor uses for worker dispatch, so the cells that run on
one graph instance never split across machines) and the groups are dealt
round-robin, in first-seen cross-product order, to the ``k`` shards.  The
partition is a pure function of the spec and the scenario registry —
every participant computes the same assignment independently, which is
what lets ``k`` machines or CI jobs each run ``--shard i/k`` with no
coordinator.

Each shard streams its rows to its own derived store,
``<output>.shard-<i>-of-<k>.jsonl``, so concurrent shards never contend on
one file; :func:`merge_shards` (a thin front over
:meth:`repro.api.ResultSet.merge`) recombines them into the canonical
``<output>`` store.  The merge is idempotent and tolerant: duplicate and
overlapping cells collapse through the store's digest-based resume keys,
``failed`` rows survive only where no shard produced a successful record,
and torn lines from a crashed shard writer are skipped with a warning.
"""

from __future__ import annotations

import re
from pathlib import Path

from .resultset import ResultSet
from .specs import SpecError, SweepSpec

__all__ = [
    "shard_store_path",
    "shard_store_paths",
    "find_shard_stores",
    "partition_cells",
    "shard_cells",
    "merge_shards",
]

#: Filename pattern of a shard store derived from canonical output ``base``.
_SHARD_SUFFIX = re.compile(r"\.shard-(\d+)-of-(\d+)\.jsonl$")


def shard_store_path(output: str | Path, index: int, count: int) -> Path:
    """The derived per-shard store path: ``<output>.shard-<i>-of-<k>.jsonl``."""
    return Path(f"{output}.shard-{index}-of-{count}.jsonl")


def shard_store_paths(output: str | Path, count: int) -> list[Path]:
    """All ``count`` shard store paths derived from canonical ``output``."""
    return [shard_store_path(output, i, count) for i in range(1, count + 1)]


def find_shard_stores(output: str | Path) -> list[Path]:
    """Existing shard stores of canonical ``output``, in (count, index) order.

    Globs ``<output>.shard-*-of-*.jsonl`` next to the canonical path, so a
    merge can assemble whatever shards actually ran — including shards of
    different ``k`` from separate campaigns — without being handed a list.
    """
    base = Path(output)
    parent = base.parent if str(base.parent) else Path(".")
    found = []
    for candidate in parent.glob(f"{base.name}.shard-*-of-*.jsonl"):
        match = _SHARD_SUFFIX.search(candidate.name)
        if match:
            found.append((int(match.group(2)), int(match.group(1)), candidate))
    return [path for _, _, path in sorted(found)]


def partition_cells(cells: list[tuple], keys: list[tuple], count: int) -> list[list[tuple]]:
    """Deal ``cells`` into ``count`` disjoint shards, whole groups at a time.

    ``keys[i]`` is the graph-instance key of ``cells[i]``; cells sharing a
    key form one locality group and always land in the same shard (splitting
    a group would rebuild the same graph on two machines).  Groups are
    assigned round-robin in first-seen order — deterministic, and balanced
    to within one group per shard.  The concatenation of the shards is a
    permutation of ``cells``; each shard preserves cross-product order.
    """
    if len(cells) != len(keys):
        raise ValueError(f"{len(cells)} cells but {len(keys)} instance keys")
    shards: list[list[tuple]] = [[] for _ in range(count)]
    assignment: dict[tuple, int] = {}
    for cell, key in zip(cells, keys):
        shard = assignment.get(key)
        if shard is None:
            shard = assignment[key] = len(assignment) % count
        shards[shard].append(cell)
    return shards


def shard_cells(spec: SweepSpec, scenario_names: list[str]) -> list[tuple]:
    """The ``(scenario, n, seed)`` cells belonging to ``spec``'s own shard.

    For an unsharded spec this is the whole cross product.  The scenario
    registry supplies the instance keys, so the caller must pass the
    resolved ``scenario_names`` (as with :meth:`SweepSpec.cells`).
    """
    from ..sim import experiments

    cells = spec.cells(scenario_names)
    if spec.shard_count is None:
        return cells
    keys = [
        experiments.get_scenario(name).instance_key(n, seed)
        for name, n, seed in cells
    ]
    return partition_cells(cells, keys, spec.shard_count)[spec.shard_index - 1]


def merge_shards(
    output: str | Path,
    shards: list[str | Path] | None = None,
) -> ResultSet:
    """Recombine shard stores into the canonical store at ``output``.

    ``shards=None`` finds ``<output>.shard-*-of-*.jsonl`` siblings via
    :func:`find_shard_stores`.  Records append through the normal store
    machinery, so duplicates collapse on their resume keys, a successful
    record beats any shard's ``failed`` record for the same cell, and
    re-merging is a no-op (idempotent).  Returns the merged (closed)
    :class:`ResultSet`; raises :class:`~repro.api.SpecError` when there is
    nothing to merge.
    """
    paths = [Path(p) for p in shards] if shards is not None else find_shard_stores(output)
    if not paths:
        raise SpecError(
            f"no shard stores to merge into {output} "
            f"(expected {shard_store_path(output, 1, 2).name}-style siblings)"
        )
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise SpecError(f"shard stores do not exist: {missing}")
    return ResultSet.merge(output, paths)

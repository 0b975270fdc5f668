"""The census's catches, pinned: each seeded mutation still fails tier-1.

DESIGN.md's "Determinism guards" lists the census of bug-class mutations
seeded into the real modules, each with the tier-1 test that catches it.
Each case below applies one row's edits to a copy of the tree, runs that
test there and requires it to fail, so every catch the census counts
stays true.  An anchor that no longer matches fails with the anchor text:
move the row along with the code it anchors in.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.kernels import numpy_or_none

REPO = Path(__file__).parent.parent

_SEED_REACHES = "tests/test_driver_catalog.py::TestSeedVariation::test_driver_seed_reaches_the_run"

#: Census row -> (mutation, module under src/repro, the cheapest tier-1 test
#: that fails on it, [(anchor, replacement), ...]).  The comment names the
#: deleted lint rule that used to fire on the row.
CAUGHT_AT_RUN_TIME = {
    3: ('_sample_nodes uses random.Random(0)', 'api/drivers.py',  # P203
        f'{_SEED_REACHES}[labeled-bfs/grid]', [
        ('return random.Random(seed).sample(nodes',
         'return random.Random(0).sample(nodes'),
    ]),
    4: ('_source_node uses random.Random(0)', 'api/drivers.py',  # P203
        f'{_SEED_REACHES}[bellman-ford/er]', [
        ('return nodes[random.Random(seed).randrange',
         'return nodes[random.Random(0).randrange'),
    ]),
    6: ('APSP delays drawn from random.Random(0)', 'core/apsp.py',  # P203
        f'{_SEED_REACHES}[apsp/er]', [
        ('    rng = random.Random(seed)\n    delays',
         '    rng = random.Random(0)\n    delays'),
    ]),
    7: ('random_connected_graph uses random.Random(0)', 'graphs/generators.py',  # P203
        'tests/test_energy_cssp.py::TestCoverMemo::test_memo_matches_fresh_constructions[er-seed0]', [
        ('    rng = random.Random(seed)\n    graph = random_tree(',
         '    rng = random.Random(0)\n    graph = random_tree('),
    ]),
    8: ('_source_node reseeds the global RNG and draws from it', 'api/drivers.py',  # D101, D102
        f'{_SEED_REACHES}[bellman-ford/er]', [
        ('    return nodes[random.Random(seed).randrange(len(nodes))]',
         '    random.seed(seed)\n    return nodes[random.randrange(len(nodes))]'),
    ]),
    9: ('APSP delays drawn from the global RNG', 'core/apsp.py',  # D101
        'tests/test_cssp.py::TestForestMemo::test_apsp_memo_matches_fresh_constructions', [
        ('delays = {i: rng.randrange(max(1, window)) for i in traces}',
         'delays = {i: random.randrange(max(1, window)) for i in traces}'),
    ]),
    11: ('crash_plan samples victims from set order', 'sim/faults.py',  # D103
         'tests/test_driver_catalog.py::TestHashOrder::test_string_labelled_runs_agree_across_hash_seeds[bfs/grid@crash2]', [
        ('        pool = sorted(labels, key=repr)',
         '        pool = list(set(labels))'),
    ]),
    13: ('scenario_digest drops sort_keys=True', 'sim/experiments.py',  # D104
         'tests/test_driver_catalog.py::TestParamsAwareResume::test_digest_ignores_param_order', [
        ('payload = json.dumps(payload_dict, sort_keys=True)',
         'payload = json.dumps(payload_dict)'),
    ]),
    14: ('scenario_digest hashes the params in set order', 'sim/experiments.py',  # D103
         'tests/test_faults.py::test_pre_fault_digests_are_pinned', [
        ('"params": {str(k): v for k, v in dict(scenario.params).items()},',
         '"params": [[str(k), v] for k, v in set(dict(scenario.params).items())],'),
    ]),
    16: ('_run_cell adds a wall-time quality column', 'sim/experiments.py',  # D105
         'tests/test_event_differential.py::test_every_scenario_row_identical_under_event_engine[apsp/er]', [
        ('import hashlib\nimport json\n',
         'import hashlib\nimport json\nimport time\n'),
        ('    graph = _cached_graph(scenario, n, seed)\n    metrics = Metrics()',
         '    graph = _cached_graph(scenario, n, seed)\n    started = time.perf_counter()\n    metrics = Metrics()'),
        ('    merged = dict(extras) if extras else {}\n',
         '    merged = dict(extras) if extras else {}\n    merged["wall_ms"] = int(1000 * (time.perf_counter() - started))\n'),
    ]),
    17: ('Runner.run stops after a one-hour wall-clock budget', 'sim/runner.py',  # D105
         f'{_SEED_REACHES}[bfs/grid]', [
        ('from itertools import repeat\n',
         'from itertools import repeat\nimport time\n'),
        ('        last_round = -1\n        messages_sent = 0\n',
         '        last_round = -1\n        deadline = time.monotonic() + 3600\n        messages_sent = 0\n'),
        ('        while heap:\n',
         '        while heap and time.monotonic() < deadline:\n'),
    ]),
    18: ('drive_apsp reads its capacity factor from the environment', 'api/drivers.py',  # D107
         f'{_SEED_REACHES}[apsp/er]', [
        ('    from ..core import apsp\n\n',
         '    from ..core import apsp\n    import os\n\n    capacity_log_factor = int(os.environ.get("REPRO_APSP_CAPACITY", capacity_log_factor))\n'),
    ]),
    19: ('_source_node sorts nodes by id()', 'api/drivers.py',  # D106
         'tests/test_energy_cssp.py::TestCoverMemo::test_pinned_instance_builds_each_distinct_input_once', [
        ('    nodes = sorted(graph.nodes(), key=repr)\n    return nodes[random.Random(seed).randrange',
         '    nodes = sorted(graph.nodes(), key=id)\n    return nodes[random.Random(seed).randrange'),
    ]),
    20: ('Bellman-Ford sorts its inbox payloads in place', 'baselines/bellman_ford.py',  # P201
         f'{_SEED_REACHES}[bellman-ford/er@drop5]', [
        ('            dist = self.dist\n            for sender, estimate in zip(inbox.senders, inbox.payloads):',
         '            dist = self.dist\n            inbox.payloads.sort()\n            for sender, estimate in zip(inbox.senders, inbox.payloads):'),
    ]),
    22: ('labeled-bfs/grid registers a tuple-valued param', 'sim/experiments.py',  # P204
         'tests/test_api_specs.py', [  # the registry raises on import: no test collects
        ('    Scenario("labeled-bfs/grid", "grid", "labeled-bfs", max_weight=9,\n',
         '    Scenario("labeled-bfs/grid", "grid", "labeled-bfs", max_weight=9,\n             params=(("num_sources", (3,)),),\n'),
    ]),
    23: ('drive_boruvka returns a column named like a core row field', 'api/drivers.py',  # P205
         'tests/test_driver_catalog.py::TestCatalogDifferential::test_driver_passes_its_oracle[boruvka-tree]', [
        ('    return {"forest_weight": weight, "mst_weight": expected}',
         '    return {"forest_weight": weight, "mst_weight": expected, "n": graph.num_nodes}'),
    ]),
    24: ('WeightedBFS kernel reverses its awake column in place', 'core/bfs.py',  # P206
         'tests/test_kernels.py::TestBackendParity::test_event_engine_stores_are_byte_identical', [
        ('        codes = []\n        append = codes.append\n        for i in awake:',
         '        codes = []\n        append = codes.append\n        awake.reverse()\n        for i in awake:'),
    ]),
}

#: Rows that only a batch kernel can show: without numpy no kernel runs.
NEEDS_NUMPY = {24}


def mutate(source: str, edits: list) -> str:
    """Apply ``edits`` in order; each anchor must occur exactly once."""
    for anchor, replacement in edits:
        assert source.count(anchor) == 1, f"census anchor not found exactly once: {anchor!r}"
        source = source.replace(anchor, replacement)
    return source


def copy_tree(root: Path) -> None:
    """Copy ``src/``, ``tests/`` and ``pyproject.toml`` under ``root``.

    The whole tree, pyproject.toml included: its ``pythonpath = ["src"]``
    must put the copy's source first, not this checkout's.
    """
    for part in ("src", "tests"):
        shutil.copytree(REPO / part, root / part)
    shutil.copy2(REPO / "pyproject.toml", root)


#: Plugins no catcher uses, off because loading them costs about a second
#: per run (naming one that is not installed is harmless).
UNUSED_PLUGINS = ("-p", "no:hypothesispytest", "-p", "no:benchmark")


def run_tier1(root: Path, *nodeids: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *UNUSED_PLUGINS, *nodeids],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))},
    )


def test_tier1_catchers_pass_on_a_clean_copy(tmp_path):
    # Control for the case below: in an unmutated copy every catcher
    # passes, so a failure there is the mutation's doing, not the copy's.
    copy_tree(tmp_path)
    catchers = [
        catcher for row, (_what, _module, catcher, _edits) in sorted(CAUGHT_AT_RUN_TIME.items())
        if row not in NEEDS_NUMPY or numpy_or_none() is not None
    ]
    result = run_tier1(tmp_path, *catchers)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("row", sorted(CAUGHT_AT_RUN_TIME), ids=lambda row: f"row{row:02d}")
def test_census_mutation_fails_its_tier1_test(row, tmp_path):
    what, module, catcher, edits = CAUGHT_AT_RUN_TIME[row]
    if row in NEEDS_NUMPY and numpy_or_none() is None:
        pytest.skip("no numpy: no batch kernel runs, so the mutation cannot show")
    copy_tree(tmp_path)
    target = tmp_path / "src" / "repro" / module
    target.write_text(mutate(target.read_text(encoding="utf-8"), edits), encoding="utf-8")
    result = run_tier1(tmp_path, catcher)
    # 1: the test failed; 2: its module no longer imports.  Anything else
    # (0: it passed, 4: no such test) means the catch is gone.
    assert result.returncode in (1, 2), f"row {row} ({what}):\n{result.stdout[-2000:]}"

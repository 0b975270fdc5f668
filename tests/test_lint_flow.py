"""Whole-program flow analysis: project model, F rules, SARIF."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from repro.__main__ import main
from repro.lint import RULES, lint_paths, lint_source
from repro.lint.flow import FlowAnalysis
from repro.lint.project import ProjectModel
from repro.lint.sarif import sarif_document
from repro.testing import subprocess_env

FIXTURES = Path(__file__).parent / "lint_fixtures"
FLOWPKG = FIXTURES / "flowpkg"
SUBPROCESS_ENV = subprocess_env()


def make_model(tmp_path, files) -> ProjectModel:
    """Build a :class:`ProjectModel` from ``{relative_path: source}``."""
    triples = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        triples.append((str(path), source, ast.parse(source)))
    return ProjectModel(triples)


def resolved_edges(model) -> set:
    return {
        (edge.caller.qualname, edge.callee.qualname)
        for edge in model.edges
        if edge.resolved
    }


# ----------------------------------------------------------------------
# call graph: module/symbol resolution edge cases
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_plain_import_attribute_call(self, tmp_path):
        model = make_model(tmp_path, {
            "util.py": "def helper():\n    return 1\n",
            "app.py": "import util\n\n\ndef go():\n    return util.helper()\n",
        })
        assert ("app:go", "util:helper") in resolved_edges(model)

    def test_import_as_alias_resolves(self, tmp_path):
        model = make_model(tmp_path, {
            "util.py": "def helper():\n    return 1\n",
            "app.py": "import util as zed\n\n\ndef go():\n    return zed.helper()\n",
        })
        assert ("app:go", "util:helper") in resolved_edges(model)

    def test_from_import_as_alias_resolves(self, tmp_path):
        model = make_model(tmp_path, {
            "util.py": "def helper():\n    return 1\n",
            "app.py": (
                "from util import helper as h\n\n\ndef go():\n    return h()\n"
            ),
        })
        assert ("app:go", "util:helper") in resolved_edges(model)

    def test_relative_import_inside_package(self, tmp_path):
        model = make_model(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": "def helper():\n    return 1\n",
            "pkg/app.py": (
                "from .util import helper\n\n\ndef go():\n    return helper()\n"
            ),
        })
        assert ("pkg.app:go", "pkg.util:helper") in resolved_edges(model)

    def test_import_cycle_resolves_both_directions(self, tmp_path):
        model = make_model(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": (
                "from . import b\n\n\ndef fa():\n    return b.fb()\n"
            ),
            "pkg/b.py": (
                "from . import a\n\n\ndef fb():\n    return 0\n"
                "\n\ndef back():\n    return a.fa()\n"
            ),
        })
        edges = resolved_edges(model)
        assert ("pkg.a:fa", "pkg.b:fb") in edges
        assert ("pkg.b:back", "pkg.a:fa") in edges

    def test_nested_def_gets_dotted_qualname_and_scope_chain(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return helper()\n"
                "    return inner()\n"
                "\n\ndef helper():\n    return 1\n"
            ),
        })
        assert "app:outer.inner" in model.functions
        edges = resolved_edges(model)
        assert ("app:outer", "app:outer.inner") in edges
        assert ("app:outer.inner", "app:helper") in edges

    def test_self_method_call_resolves_to_the_class(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": (
                "class Box:\n"
                "    def get(self):\n"
                "        return self._load()\n"
                "\n"
                "    def _load(self):\n"
                "        return 1\n"
            ),
        })
        assert ("app:Box.get", "app:Box._load") in resolved_edges(model)

    def test_instance_method_call_resolves_via_constructor_type(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": (
                "class Box:\n"
                "    def get(self):\n"
                "        return 1\n"
                "\n\ndef go():\n    box = Box()\n    return box.get()\n"
            ),
        })
        assert ("app:go", "app:Box.get") in resolved_edges(model)

    def test_lambda_call_is_an_explicit_unresolved_edge(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": "def go():\n    fn = lambda x: x\n    return fn(2)\n",
        })
        assert ("app:go", "app:__module__") not in resolved_edges(model)
        unresolved = model.unresolved_edges()
        assert any(edge.caller.qualname == "app:go" for edge in unresolved)

    def test_external_calls_are_unresolved_never_silent(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": "import math\n\n\ndef go():\n    return math.sqrt(4)\n",
        })
        unresolved = model.unresolved_edges()
        assert len(unresolved) == 1
        assert unresolved[0].reason


# ----------------------------------------------------------------------
# process topology: worker- vs supervisor-side classification
# ----------------------------------------------------------------------
class TestTopology:
    def test_process_target_and_its_callees_are_worker_side(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": (
                "from multiprocessing import Process\n"
                "\n\ndef helper():\n    return 1\n"
                "\n\ndef worker(q):\n    q.put(helper())\n"
                "\n\ndef launch(q):\n"
                "    Process(target=worker, args=(q,)).start()\n"
            ),
        })
        topo = model.topology
        assert {s.kind for s in topo.spawn_sites} == {"process"}
        assert topo.is_worker(model.functions["app:worker"])
        assert topo.is_worker(model.functions["app:helper"])
        assert topo.is_supervisor(model.functions["app:launch"])
        assert not topo.is_worker(model.functions["app:launch"])

    def test_pool_submit_classifies_the_submitted_function(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": (
                "def task(n):\n    return n * 2\n"
                "\n\ndef run(pool):\n    return pool.submit(task, 3)\n"
            ),
        })
        topo = model.topology
        assert {s.kind for s in topo.spawn_sites} == {"pool"}
        assert topo.is_worker(model.functions["app:task"])


# ----------------------------------------------------------------------
# the flowpkg golden package: every F rule, cross-module, exact lines
# ----------------------------------------------------------------------
def flowpkg_markers() -> list:
    marks = []
    for path in sorted(FLOWPKG.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "# expect: " in line:
                marks.append((path.name, line.split("# expect: ")[1].strip(), lineno))
    return sorted(marks)


class TestFlowpkgGolden:
    def test_every_planted_hazard_fires_at_its_exact_line(self):
        findings, checked = lint_paths([str(FLOWPKG)])
        got = sorted((Path(f.path).name, f.rule, f.line) for f in findings)
        assert got == flowpkg_markers()
        assert len(checked) == 6

    def test_markers_cover_all_four_f_rules(self):
        assert {rule for _, rule, _ in flowpkg_markers()} == {
            "F301", "F302", "F303", "F304",
        }

    def test_no_flow_drops_exactly_the_f_findings(self):
        findings, _ = lint_paths([str(FLOWPKG)], flow=False)
        assert findings == []

    def test_select_family_f_keeps_only_flow_findings(self):
        findings, _ = lint_paths([str(FLOWPKG)], select=("F",))
        assert findings and all(f.rule.startswith("F") for f in findings)
        findings, _ = lint_paths([str(FLOWPKG)], ignore=("F",))
        assert findings == []


# ----------------------------------------------------------------------
# degradation contract: missing evidence silences, never lies
# ----------------------------------------------------------------------
class TestDegradation:
    def test_seed_escaping_into_unresolved_call_is_not_laundering(self):
        source = (
            "import mystery\n"
            "\n\n"
            "def drive_demo(graph, seed, metrics):\n"
            "    return {\"x\": mystery.run(graph, seed)}\n"
        )
        assert [f for f in lint_source(source) if f.rule == "F301"] == []

    def test_seed_reaching_a_resolved_launderer_is_caught(self):
        source = (
            "def launder(seed):\n"
            "    return None\n"
            "\n\n"
            "def drive_demo(graph, seed, metrics):\n"
            "    launder(seed)\n"
            "    return {}\n"
        )
        findings = [f for f in lint_source(source) if f.rule == "F301"]
        assert len(findings) == 1
        assert findings[0].line == 5
        assert "launder" in findings[0].message

    def test_unresolved_edge_count_lands_in_stats(self):
        stats: dict = {}
        lint_paths([str(FLOWPKG)], stats=stats)
        flow = stats["flow"]
        assert flow["functions"] > 0
        assert flow["call_edges"] > 0
        assert "unresolved_edges" in flow
        assert flow["spawn_sites"] >= 1

    def test_clean_cli_run_writes_nothing_to_stderr(self, capsys):
        # The unresolved-edge count lives in the --json flow block only; a
        # clean text run prints its summary and nothing else.
        good = str(FIXTURES / "f301_good.py")
        assert main(["lint", good]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "1 file clean\n"
        assert main(["lint", good, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "unresolved_edges" in json.loads(captured.out)["flow"]


    def test_json_flow_block_counts_every_unresolved_edge(self, capsys):
        assert main(["lint", str(FLOWPKG), "--json", "--select", "F"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert "cache" not in data
        files = sorted(FLOWPKG.rglob("*.py"))
        model = ProjectModel(
            [(str(p), p.read_text(), ast.parse(p.read_text())) for p in files]
        )
        assert data["flow"]["unresolved_edges"] == len(model.unresolved_edges()) > 0

    def test_removed_cache_flag_is_an_unknown_option(self, tmp_path, capsys):
        good = str(FIXTURES / "f301_good.py")
        assert main(["lint", good, "--cache", str(tmp_path / "c.json")]) == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

# ----------------------------------------------------------------------
# pragma placement regressions: multi-line statements, decorated defs
# ----------------------------------------------------------------------
class TestPragmaPlacement:
    def test_pragma_on_the_closing_line_of_a_multiline_call(self):
        source = (
            "import random\n"
            "\n\n"
            "def f(options):\n"
            "    return random.choice(\n"
            "        sorted(options),\n"
            "    )  # repro: lint-ok[D101] demo fixture for span pragmas\n"
        )
        assert lint_source(source) == []

    def test_pragma_on_an_inner_line_of_a_multiline_call(self):
        source = (
            "import random\n"
            "\n\n"
            "def f(options):\n"
            "    return random.choice(\n"
            "        sorted(options),  # repro: lint-ok[D101] span pragma demo\n"
            "    )\n"
        )
        assert lint_source(source) == []

    def test_pragma_above_a_decorated_def_covers_the_def_line(self):
        source = (
            "def trace(fn):\n"
            "    return fn\n"
            "\n\n"
            "# repro: lint-ok[F301] fixture: decorated driver, reviewed\n"
            "@trace\n"
            "def drive_demo(graph, seed, metrics):\n"
            "    return {}\n"
        )
        assert lint_source(source) == []

    def test_pragma_on_the_signature_line_of_a_decorated_def(self):
        source = (
            "def trace(fn):\n"
            "    return fn\n"
            "\n\n"
            "@trace\n"
            "def drive_demo(\n"
            "    graph,\n"
            "    seed,\n"
            "    metrics,\n"
            "):  # repro: lint-ok[F301] fixture: split signature, reviewed\n"
            "    return {}\n"
        )
        assert lint_source(source) == []

    def test_checked_in_pragma_fixtures_lint_clean(self):
        findings, checked = lint_paths([
            str(FIXTURES / "pragma_multiline.py"),
            str(FIXTURES / "pragma_decorated.py"),
        ])
        assert findings == []
        assert len(checked) == 2

    def test_compound_statement_bodies_are_not_blanket_covered(self):
        # A pragma on a `def` line must not suppress findings deep in the
        # body — only simple statements group their physical lines.
        source = (
            "import random\n"
            "\n\n"
            "def f():  # repro: lint-ok[D101] must not reach the body\n"
            "    return random.random()\n"
        )
        assert [f.rule for f in lint_source(source)] == ["D101"]


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
class TestSarif:
    def test_document_shape_rules_and_result_anchors(self):
        findings, _ = lint_paths([str(FLOWPKG)])
        doc = sarif_document(findings, RULES, "0.0-test")
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert [rule.id for rule in RULES] == ids[: len(RULES)]
        assert {"X000", "X100", "X200"} <= set(ids)
        assert len(run["results"]) == len(findings)
        for result, finding in zip(run["results"], findings):
            assert result["ruleId"] == finding.rule
            assert driver["rules"][result["ruleIndex"]]["id"] == finding.rule
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] == finding.line
            assert region["startColumn"] == finding.col + 1
            assert "lint-ok" in result["message"]["text"]

    def test_cli_output_sarif_exit_and_parse(self, capsys):
        assert main(["lint", str(FLOWPKG), "--output", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"]

    def test_cli_output_sarif_clean_run(self, capsys):
        good = str(FIXTURES / "f301_good.py")
        assert main(["lint", good, "--output", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# plugins mode: the flow gate over the resolved registry
# ----------------------------------------------------------------------
LAUNDERING_PLUGIN = '''\
"""Deliberately seed-laundering plugin: the CI --plugins leg must catch it."""

from repro.api import AlgorithmSpec, register_algorithm_spec


def drive_rogue(graph, seed, metrics):
    order = sorted(graph.nodes(), key=repr)
    return {"rogue_first": repr(order[:1])}


def register():
    register_algorithm_spec(
        AlgorithmSpec("rogue", "lint_launder_plugin:drive_rogue",
                      description="drops its seed on the floor")
    )
'''


class TestPluginsFlow:
    def test_seed_laundering_plugin_is_caught_as_f301(self, tmp_path):
        (tmp_path / "lint_launder_plugin.py").write_text(LAUNDERING_PLUGIN)
        env = dict(SUBPROCESS_ENV)
        env["PYTHONPATH"] = str(tmp_path) + ":" + env["PYTHONPATH"]
        env["REPRO_PLUGINS"] = "lint_launder_plugin:register"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        data = json.loads(result.stdout)
        laundering = [f for f in data["findings"] if f["rule"] == "F301"]
        assert laundering, data["findings"]
        assert laundering[0]["path"].endswith("lint_launder_plugin.py")

    def test_plugins_flow_stats_surface_in_json(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins", "--json"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        data = json.loads(result.stdout)
        assert data["flow"]["functions"] > 0


# ----------------------------------------------------------------------
# analysis internals worth pinning
# ----------------------------------------------------------------------
class TestFlowAnalysis:
    def test_analysis_is_memoized_per_model(self, tmp_path):
        model = make_model(tmp_path, {
            "app.py": "def f():\n    return 1\n",
        })
        assert FlowAnalysis.of(model) is FlowAnalysis.of(model)

    def test_sorted_sanitizes_set_order_taint(self):
        source = (
            "import hashlib\n"
            "\n\n"
            "def key(row):\n"
            "    tags = {t for t in row}\n"
            "    clean = sorted(tags)\n"
            "    return hashlib.sha256(repr(clean).encode()).hexdigest()\n"
        )
        assert [f for f in lint_source(source) if f.rule == "F302"] == []

    def test_wall_clock_reaching_a_digest_is_f302(self):
        source = (
            "import hashlib\n"
            "import time\n"
            "\n\n"
            "def key():\n"
            "    stamp = time.time()  # repro: lint-ok[D105] fixture taint source\n"
            "    return hashlib.sha256(repr(stamp).encode()).hexdigest()\n"
        )
        findings = [f for f in lint_source(source) if f.rule == "F302"]
        assert len(findings) == 1
        assert findings[0].line == 7

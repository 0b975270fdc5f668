"""``repro.lint``: rule engine, rule set, pragmas, CLI, SARIF, ``--plugins``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.lint import (
    PRAGMA_RULE_ID,
    RULES,
    SYNTAX_RULE_ID,
    Finding,
    lint_paths,
    lint_source,
    resolve_rule_selection,
)
from repro.lint.sarif import sarif_document
from repro.testing import subprocess_env

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"
SUBPROCESS_ENV = subprocess_env()

RULE_IDS = [rule.id for rule in RULES]

#: Rule ids that once existed and were deleted (DESIGN.md, "Lint census"):
#: a pragma or selection naming one must fail loudly, not pass silently.
RETIRED_RULE_IDS = ("D104", "D106", "P201", "P203", "P204", "P205", "P206")


def expected_lines(source: str, rule_id: str) -> list:
    """The 1-based lines a bad fixture marks with ``# expect: <id>``."""
    return sorted(
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if f"# expect: {rule_id}" in line
    )


# ----------------------------------------------------------------------
# golden fixtures: one violating and one clean snippet per rule
# ----------------------------------------------------------------------
def fixture(rule, kind: str) -> Path:
    """The checked-in ``<id>_<kind>.py`` example of ``rule``."""
    return FIXTURES / f"{rule.id.lower()}_{kind}.py"


class TestGoldenFixtures:
    def test_fixture_pairs_match_the_rule_set(self):
        # Every registered rule has its bad/good pair, and every pair
        # belongs to a registered rule, so a deleted rule's fixtures
        # cannot linger.
        wanted = {rule.id.lower() for rule in RULES}
        for kind in ("bad", "good"):
            found = {
                path.name[: -len(f"_{kind}.py")]
                for path in FIXTURES.glob(f"*_{kind}.py")
            }
            assert found == wanted, kind

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_bad_fixture_reports_the_marked_lines(self, rule):
        source = fixture(rule, "bad").read_text()
        marked = expected_lines(source, rule.id)
        assert marked, f"{rule.id}: bad fixture carries no # expect markers"
        findings = lint_source(source, path=fixture(rule, "bad").name)
        assert sorted(f.line for f in findings if f.rule == rule.id) == marked
        # ... and nothing *else* fires: each fixture isolates its rule.
        assert [f for f in findings if f.rule != rule.id] == []
        for finding in findings:
            assert finding.name == rule.name
            assert finding.severity == rule.severity
            assert finding.message

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_good_fixture_is_clean_under_every_rule(self, rule):
        assert lint_source(fixture(rule, "good").read_text()) == []

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_cli_exits_1_on_each_bad_fixture(self, rule, capsys):
        assert main(["lint", str(fixture(rule, "bad"))]) == 1
        out = capsys.readouterr().out
        assert rule.id in out
        assert rule.name in out

    def test_cli_exits_0_on_the_good_fixtures(self, capsys):
        good = [str(fixture(rule, "good")) for rule in RULES]
        assert main(["lint", *good]) == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# engine: pragmas, selection, meta rules
# ----------------------------------------------------------------------
BAD_SNIPPET = "import random\n\n\ndef f():\n    return random.random()\n"


class TestPragmas:
    def test_same_line_pragma_suppresses_with_reason(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    return random.random()  # repro: lint-ok[D101] demo of the pragma\n"
        )
        assert lint_source(source) == []

    def test_comment_line_pragma_covers_the_next_line(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    # repro: lint-ok[D101] demo of the pragma\n"
            "    return random.random()\n"
        )
        assert lint_source(source) == []

    def test_pragma_without_reason_is_itself_a_finding(self):
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[D101]"
        )
        findings = lint_source(source)
        rules = {f.rule for f in findings}
        # The bare pragma suppresses nothing and is reported itself.
        assert rules == {PRAGMA_RULE_ID, "D101"}

    @pytest.mark.parametrize("rule_id", ("D999", *RETIRED_RULE_IDS))
    def test_pragma_with_unknown_rule_id_is_a_finding(self, rule_id):
        source = BAD_SNIPPET.replace(
            "random.random()",
            f"random.random()  # repro: lint-ok[{rule_id}] not a rule",
        )
        rules = {f.rule for f in lint_source(source)}
        assert rules == {PRAGMA_RULE_ID, "D101"}

    def test_pragma_suppresses_only_the_named_rules(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    random.seed(0)  # repro: lint-ok[D101] wrong id on purpose\n"
        )
        assert {f.rule for f in lint_source(source)} == {"D102"}

    def test_one_pragma_can_name_several_rules(self):
        source = (
            "import os\n"
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    # repro: lint-ok[D101,D107] fixture exercising a shared pragma\n"
            "    return random.random(), os.getenv('HOME')\n"
        )
        assert lint_source(source) == []


class TestSelection:
    def test_select_runs_only_named_rules(self):
        source = BAD_SNIPPET.replace(
            "return random.random()", "random.seed(0)\n    return random.random()"
        )
        assert {f.rule for f in lint_source(source)} == {"D101", "D102"}
        assert {f.rule for f in lint_source(source, select=("D102",))} == {"D102"}

    def test_ignore_drops_named_rules(self):
        assert lint_source(BAD_SNIPPET, ignore=("D101",)) == []

    def test_family_prefix_selects_the_whole_family(self):
        assert {f.rule for f in lint_source(BAD_SNIPPET, select=("P",))} == set()
        assert {f.rule for f in lint_source(BAD_SNIPPET, select=("D",))} == {"D101"}

    @pytest.mark.parametrize("rule_id", ("BOGUS", *RETIRED_RULE_IDS))
    def test_unknown_rule_raises_value_error(self, rule_id):
        with pytest.raises(ValueError, match=f"--select: unknown rule '{rule_id}'"):
            resolve_rule_selection((rule_id,), None)
        with pytest.raises(ValueError, match=f"--ignore: unknown rule '{rule_id}'"):
            resolve_rule_selection(None, (rule_id,))

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == [SYNTAX_RULE_ID]
        assert findings[0].line == 1

    def test_exempt_paths_skip_the_rule(self):
        timed = "import time\n\n\ndef f():\n    return time.time()\n"
        assert {f.rule for f in lint_source(timed)} == {"D105"}
        assert lint_source(timed, path="src/repro/bench.py") == []


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
            "import random\n"
            "\n\n"
            "def trace(fn):\n"
            "    return fn\n"
            "\n\n"
            "# repro: lint-ok[D101] fixture: decorated driver, reviewed\n"
            "@trace\n"
            "def drive_demo(graph, seed, metrics, jitter=random.random()):\n"
            "    return {}\n"
        )
        assert lint_source(source) == []
        unsuppressed = source.replace("# repro: lint-ok[D101]", "#")
        assert [(f.rule, f.line) for f in lint_source(unsuppressed)] == [("D101", 10)]

    def test_pragma_on_the_signature_line_of_a_decorated_def(self):
        source = (
            "import random\n"
            "\n\n"
            "def trace(fn):\n"
            "    return fn\n"
            "\n\n"
            "@trace\n"
            "def drive_demo(\n"
            "    graph,\n"
            "    seed,\n"
            "    metrics,\n"
            "    jitter=random.random(),\n"
            "):  # repro: lint-ok[D101] fixture: split signature, reviewed\n"
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
# CLI: exits, filtering, JSON schema
# ----------------------------------------------------------------------
class TestLintCLI:
    def test_usage_errors_exit_2(self, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", "--select", "BOGUS", str(FIXTURES)]) == 2
        assert main(["lint", "--ignore", "D104", str(FIXTURES)]) == 2
        assert main(["lint", "/no/such/path"]) == 2
        capsys.readouterr()

    def test_select_filters_findings(self, capsys):
        bad = str(FIXTURES / "d101_bad.py")
        assert main(["lint", bad, "--select", "P"]) == 0
        capsys.readouterr()
        assert main(["lint", bad, "--ignore", "D101"]) == 0
        capsys.readouterr()
        assert main(["lint", bad, "--select", "D"]) == 1
        capsys.readouterr()

    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out
            assert rule.name in out

    def test_list_rules_json(self, capsys):
        assert main(["lint", "--list-rules", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in catalog] == RULE_IDS
        assert all(entry["summary"] for entry in catalog)

    def test_json_schema_round_trips(self, capsys):
        bad = str(FIXTURES / "d103_bad.py")
        assert main(["lint", bad, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1
        assert data["files_checked"] == [bad]
        assert data["findings"]
        for raw in data["findings"]:
            finding = Finding.from_dict(raw)
            assert finding.to_dict() == raw
            assert finding.rule == "D103"

    def test_clean_cli_run_writes_nothing_to_stderr(self, capsys):
        good = str(FIXTURES / "d101_good.py")
        assert main(["lint", good]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "1 file clean\n"
        assert main(["lint", good, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert set(json.loads(captured.out)) == {"version", "files_checked", "findings"}

    def test_removed_cache_flag_is_an_unknown_option(self, tmp_path, capsys):
        good = str(FIXTURES / "d101_good.py")
        assert main(["lint", good, "--cache", str(tmp_path / "c.json")]) == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_self_lint_src_repro_is_clean(self):
        # The acceptance gate CI enforces, kept honest in-process too.
        findings, checked = lint_paths([str(SRC_REPRO)])
        assert findings == []
        assert len(checked) > 40

    def test_cli_subprocess_end_to_end(self):
        # One real process: the CI job invokes the same entry point.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(FIXTURES / "d101_bad.py")],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 1
        assert "D101" in result.stdout


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
class TestSarif:
    def test_document_shape_rules_and_result_anchors(self):
        findings, _ = lint_paths([str(FIXTURES)])
        assert findings
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
        assert main(["lint", str(FIXTURES / "d101_bad.py"), "--output", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"]

    def test_cli_output_sarif_clean_run(self, capsys):
        good = str(FIXTURES / "d101_good.py")
        assert main(["lint", good, "--output", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# --plugins: the registry gate
# ----------------------------------------------------------------------
ROGUE_PLUGIN = '''\
import random

from repro.api import AlgorithmSpec, register_algorithm_spec


def drive_rogue(graph, seed, metrics):
    return {"rogue_pick": random.random()}


def register():
    register_algorithm_spec(
        AlgorithmSpec("rogue", "lint_rogue_plugin:drive_rogue",
                      description="deliberately unseeded test plugin")
    )
'''


class TestPluginsMode:
    def test_builtin_registry_lints_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_unseeded_plugin_driver_is_caught(self, tmp_path):
        (tmp_path / "lint_rogue_plugin.py").write_text(ROGUE_PLUGIN)
        env = dict(SUBPROCESS_ENV)
        env["PYTHONPATH"] = str(tmp_path) + ":" + env["PYTHONPATH"]
        env["REPRO_PLUGINS"] = "lint_rogue_plugin:register"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        data = json.loads(result.stdout)
        rogue = [f for f in data["findings"] if f["rule"] == "D101"]
        assert rogue, data["findings"]
        assert rogue[0]["path"].endswith("lint_rogue_plugin.py")
        # The checked-file listing names which algorithms each file backs.
        assert any("rogue" in entry for entry in data["files_checked"])


# ----------------------------------------------------------------------
# cross-pins against the live system
# ----------------------------------------------------------------------
class TestCrossPins:
    def test_rule_ids_are_unique_and_well_formed(self):
        assert len(RULE_IDS) == len(set(RULE_IDS))
        for rule in RULES:
            assert rule.id[0] in ("D", "P")
            assert rule.id[1:].isdigit()
            assert rule.name and rule.summary
            assert rule.severity in ("error", "warning")

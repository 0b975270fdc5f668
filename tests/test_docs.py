"""Documentation consistency: the docs reference things that exist."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestDocsExist:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 1000, f"{name} looks like a stub"

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Paper identity confirmed" in text

    def test_experiments_cover_all_recorded_tables(self):
        results = ROOT / "benchmarks" / "results"
        if not results.is_dir():
            pytest.skip("benchmarks not recorded yet")
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for table in results.glob("E*.txt"):
            stem = table.stem.split("_")[0].rstrip("abc")
            assert stem in text, f"{table.stem} not discussed in EXPERIMENTS.md"


class TestDesignModuleReferences:
    def test_referenced_modules_import(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in set(re.findall(r"`(repro(?:\.\w+)+)`", text)):
            module = match
            attr = None
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                module, _, attr = match.rpartition(".")
                mod = importlib.import_module(module)
                assert hasattr(mod, attr), f"DESIGN.md references missing {match}"


def _pointer_sources() -> list:
    """The files whose prose points into DESIGN.md by section title."""
    return [*sorted((ROOT / "src").rglob("*.py")), ROOT / "README.md", ROOT / "EXPERIMENTS.md"]


class TestDesignSectionPointers:
    def test_quoted_sections_exist(self):
        """``DESIGN.md, "Title"`` names a heading, ``(decision)`` aside."""
        headings = {
            line[3:].removesuffix(" (decision)")
            for line in (ROOT / "DESIGN.md").read_text().splitlines()
            if line.startswith("## ")
        }
        pointers = 0
        for path in _pointer_sources():
            text = " ".join(path.read_text().split())
            for title in re.findall(r'DESIGN\.md,? "([^"]+)"', text):
                pointers += 1
                assert title in headings, f"{path.name} points at DESIGN.md {title!r}"
            assert not re.search(r"DESIGN\.md,? decision \d", text), (
                f"{path.name} points at a numbered decision; DESIGN.md has none"
            )
        assert pointers > 5


class TestPublicAPIHasDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.graphs",
            "repro.sim",
            "repro.core",
            "repro.baselines",
            "repro.energy",
            "repro.analysis",
        ],
    )
    def test_every_export_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            if name.startswith("__"):
                continue
            obj = getattr(module, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"

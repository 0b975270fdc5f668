"""Report compilation from recorded experiment tables."""

import pytest

from repro.analysis.report import _ORDER, compile_report


@pytest.fixture
def results_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "E1_correctness.txt").write_text("== E1 ==\na | b\n1 | 2\n")
    (d / "E3_congestion.txt").write_text("== E3 ==\nx\n9\n")
    (d / "Ecustom_extra.txt").write_text("== extra ==\n")
    return d


class TestCompile:
    def test_orders_known_experiments(self, results_dir):
        report = compile_report(results_dir)
        assert report.index("E1_correctness") < report.index("E3_congestion")
        assert "Ecustom_extra" in report

    def test_contains_table_bodies(self, results_dir):
        report = compile_report(results_dir)
        assert "1 | 2" in report

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compile_report(tmp_path / "nope")

    def test_empty_dir_raises(self, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            compile_report(empty)

    def test_real_results_if_present(self):
        from pathlib import Path

        real = Path(__file__).parent.parent / "benchmarks" / "results"
        stems = {path.stem for path in real.glob("*.txt")}
        if not stems:
            pytest.skip("benchmarks not yet recorded")
        # A partial bench run records only some tables: check every table
        # that is present, in canonical order, not one fixed name.
        report = compile_report(real)
        sections = [line[3:] for line in report.splitlines() if line.startswith("## ")]
        expected = [name for name in _ORDER if name in stems] + sorted(stems - set(_ORDER))
        assert sections == expected

"""Compile recorded experiment tables into one evaluation report.

``pytest benchmarks/ --benchmark-only`` drops one rendered table per
experiment into ``benchmarks/results/``; this module stitches them into a
single Markdown document so EXPERIMENTS.md's raw appendix can be
regenerated in one call (and so CI can diff evaluation output runs).
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["compile_report"]

#: Canonical experiment order (E1..E13 with sub-experiments).
_ORDER = [
    "E1_correctness",
    "E2_cssp_time",
    "E2z_zero_weights",
    "E3_congestion",
    "E4_messages",
    "E5_recursion",
    "E6_energy_bfs",
    "E7_apsp",
    "E8_baselines",
    "E9_cutter",
    "E10_boruvka",
    "E11_covers",
    "E12_energy_cssp",
    "E13a_eps",
    "E13b_cover",
    "E13c_bf",
]


def compile_report(results_dir: str | Path) -> str:
    """Concatenate all recorded tables in canonical order as Markdown."""
    results = Path(results_dir)
    if not results.is_dir():
        raise FileNotFoundError(
            f"{results} does not exist — run `pytest benchmarks/ --benchmark-only` first"
        )
    sections = ["# Recorded experiment tables\n"]
    known = {p.stem: p for p in results.glob("*.txt")}
    ordered = [name for name in _ORDER if name in known]
    ordered += sorted(set(known) - set(_ORDER))
    if not ordered:
        raise FileNotFoundError(f"no experiment tables found in {results}")
    for name in ordered:
        sections.append(f"## {name}\n")
        sections.append("```")
        sections.append(known[name].read_text().rstrip())
        sections.append("```\n")
    return "\n".join(sections)

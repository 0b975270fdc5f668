"""E12 — Theorem 3.15: weighted CSSP with low-energy subroutines.

Checks exactness and that the sleeping-model execution actually sleeps
(awake fraction well below the always-awake baseline of 1.0), across a
small n sweep — the full recursive stack is simulation-heavy.
"""

from _bench import record_table, run_once
from repro import graphs
from repro.energy import energy_cssp

SIZES = [8, 12, 16, 20]


def run_sweep():
    rows = []
    for n in SIZES:
        g = graphs.random_weights(graphs.random_connected_graph(n, seed=n), 5, seed=n)
        d, m = energy_cssp(g, {0: 0})
        truth = g.dijkstra([0])
        exact = all(d[u] == truth[u] for u in g.nodes())
        rows.append([n, exact, m.rounds, m.max_energy,
                     round(m.max_energy / m.rounds, 3), m.lost_messages])
    return rows


def test_e12_energy_cssp(benchmark):
    rows = run_once(benchmark, run_sweep)
    record_table(
        "E12_energy_cssp",
        "E12: energy-model weighted CSSP (Thm 3.15) — exact, awake-frac < 1",
        ["n", "exact", "rounds", "max energy", "awake frac", "lost msgs"],
        rows,
    )
    for row in rows:
        assert row[1] is True, row
        assert row[4] < 0.9, row

"""E2 / E2z — Theorem 2.6/2.7: CSSP time scales near-linearly in n.

Sweeps n across families, fits ``rounds = a * n^b``, and checks the
exponent is consistent with ``~O(n)`` (b between ~0.7 and ~1.6 — the
log^2 n factor shows up as mild super-linearity at small scale).
"""

from _bench import record_table, run_once
from repro import cssp, graphs
from repro.analysis import fit_power_law
from repro.sim import Metrics

SIZES = [16, 24, 32, 48, 64]


def measure(family: str, n: int, zero_weights: bool = False):
    g = graphs.make_family(family, n)
    g = graphs.random_weights(g, 9, seed=n, min_weight=0 if zero_weights else 1)
    m = Metrics()
    cssp(g, {next(iter(g.nodes())): 0}, metrics=m)
    return g.num_nodes, m


def run_sweep():
    rows = []
    fits = {}
    for family in ("path", "grid", "er"):
        ns, rounds = [], []
        for n in SIZES:
            real_n, m = measure(family, n)
            ns.append(real_n)
            rounds.append(m.rounds)
            rows.append([family, real_n, m.rounds, m.total_messages, m.max_congestion])
        fits[family] = fit_power_law(ns, rounds)
    return rows, fits


def test_e2_cssp_time_scaling(benchmark):
    rows, fits = run_once(benchmark, run_sweep)
    for family, fit in fits.items():
        rows.append([f"{family} FIT", "-", f"n^{fit.exponent:.2f}", f"r2={fit.r2:.3f}", "-"])
    record_table(
        "E2_cssp_time",
        "E2: CSSP rounds vs n (Thm 2.6 claims ~O(n))",
        ["family", "n", "rounds", "messages", "congestion"],
        rows,
    )
    for family, fit in fits.items():
        assert 0.5 < fit.exponent < 1.8, (family, fit)


def test_e2z_zero_weight_extension(benchmark):
    def sweep():
        rows = []
        ns, rounds = [], []
        for n in SIZES:
            real_n, m = measure("er", n, zero_weights=True)
            ns.append(real_n)
            rounds.append(m.rounds)
            rows.append(["er+zeros", real_n, m.rounds, m.max_congestion])
        return rows, fit_power_law(ns, rounds)

    rows, fit = run_once(benchmark, sweep)
    rows.append(["FIT", "-", f"n^{fit.exponent:.2f}", f"r2={fit.r2:.3f}"])
    record_table(
        "E2z_zero_weights",
        "E2z: CSSP with zero-weight edges (Thm 2.7, same bounds)",
        ["family", "n", "rounds", "congestion"],
        rows,
    )
    assert 0.5 < fit.exponent < 1.9, fit

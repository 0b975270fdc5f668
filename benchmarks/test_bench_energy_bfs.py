"""E6 — Theorems 3.8/3.13: low-energy BFS time ~O(D), energy decomposition.

Two tables:

* time: query rounds vs D on paths — the slope vs D must be ~linear
  (the polylog slowdown sigma is n-independent once cover geometry
  stabilizes);
* energy: the decomposition the paper's proof uses — wakes per
  (node, cluster role) stays flat in n, roles per node stays small —
  versus the always-awake baseline whose awake time *is* D.
"""

from _bench import record_table, run_once
from repro import graphs
from repro.energy.covers import build_layered_cover
from repro.energy.low_energy_bfs import run_low_energy_bfs
from repro.sim import Metrics

SIZES = [16, 32, 64, 128]


def measure(n: int) -> dict:
    g = graphs.path_graph(n)
    cover = build_layered_cover(g, n, base=4, stretch=3)
    m = Metrics()
    dist, sched = run_low_energy_bfs(g, cover, {0: 0}, n, metrics=m)
    assert dist == g.hop_distances([0])
    total_roles: dict = {}
    for cov in cover.levels:
        for c in cov.clusters:
            for u in c.tree_parent:
                total_roles[u] = total_roles.get(u, 0) + 1
    max_roles = max(total_roles.values())
    mega_wakes = m.max_energy // sched.omega
    return {
        "n": n,
        "D": n - 1,
        "rounds": m.rounds,
        "sigma": sched.sigma,
        "omega": sched.omega,
        "energy": m.max_energy,
        "mega_wakes": mega_wakes,
        "max_roles": max_roles,
        "wakes_per_role": round(mega_wakes / max_roles, 1),
        "awake_fraction": round(m.max_energy / m.rounds, 3),
    }


def run_sweep():
    return [measure(n) for n in SIZES]


def test_e6_energy_bfs(benchmark):
    data = run_once(benchmark, run_sweep)
    rows = [
        [d["n"], d["D"], d["rounds"], d["sigma"], d["omega"], d["energy"],
         d["mega_wakes"], d["max_roles"], d["wakes_per_role"], d["awake_fraction"]]
        for d in data
    ]
    record_table(
        "E6_energy_bfs",
        "E6: low-energy BFS on paths (Thm 3.8/3.13) — awake fraction falls, "
        "always-awake baseline is 1.0",
        ["n", "D", "rounds", "sigma", "omega", "energy", "mega-wakes",
         "roles/node", "wakes/role", "awake-frac"],
        rows,
    )
    # Time ~O(D): rounds / (sigma * omega * D) stays within a narrow band.
    norm = [d["rounds"] / (d["sigma"] * d["omega"] * d["D"]) for d in data]
    assert max(norm) / min(norm) < 3.0, norm
    # Energy: awake fraction strictly below always-awake and non-increasing
    # at the large end (the polylog-vs-linear gap opens with n).
    fracs = [d["awake_fraction"] for d in data]
    assert all(f < 0.95 for f in fracs), fracs
    assert fracs[-1] <= fracs[0], fracs
    # Per-role wake cost normalized by sigma is flat — the proof's invariant.
    per_role_norm = [d["wakes_per_role"] / d["sigma"] for d in data]
    assert max(per_role_norm) / min(per_role_norm) < 4.0, per_role_norm

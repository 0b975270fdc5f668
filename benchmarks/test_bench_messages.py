"""E4 — message complexity ~O(m): total messages scale with edges.

Fixes n and sweeps density; the paper claims ~O(m) messages for SSSP
(vs Theta(m n) for naive Bellman-Ford).
"""

from _bench import record_table, run_once
from repro import graphs, cssp, run_bellman_ford
from repro.sim import Metrics

N = 40
DENSITIES = [0.05, 0.1, 0.2, 0.35, 0.5]


def run_sweep():
    rows, ms, ours, bf = [], [], [], []
    for p in DENSITIES:
        g = graphs.random_weights(
            graphs.random_connected_graph(N, extra_edge_prob=p, seed=int(p * 100)), 9,
            seed=int(p * 100),
        )
        m_cssp, m_bf = Metrics(), Metrics()
        cssp(g, {0: 0}, metrics=m_cssp)
        run_bellman_ford(g, 0, metrics=m_bf)
        ms.append(g.num_edges)
        ours.append(m_cssp.total_messages)
        bf.append(m_bf.total_messages)
        rows.append([g.num_edges, m_cssp.total_messages,
                     round(m_cssp.total_messages / g.num_edges, 1),
                     m_bf.total_messages, round(m_bf.total_messages / g.num_edges, 1)])
    return rows, ms, ours, bf


def test_e4_messages_linear_in_m(benchmark):
    rows, ms, ours, bf = run_once(benchmark, run_sweep)
    record_table(
        "E4_messages",
        f"E4: total messages vs m at n={N} — CSSP ~O(m) vs Bellman-Ford Theta(mn)",
        ["m", "cssp msgs", "cssp msgs/m", "bf msgs", "bf msgs/m"],
        rows,
    )
    # CSSP messages per edge stay within a narrow polylog band; Bellman-Ford's
    # per-edge count sits near n.
    per_edge = [o / m for o, m in zip(ours, ms)]
    assert max(per_edge) / min(per_edge) < 3.0, per_edge
    bf_per_edge = [o / m for o, m in zip(bf, ms)]
    assert min(bf_per_edge) > N / 3, bf_per_edge

#!/usr/bin/env python
"""Congestion and awake-time profiles over an execution (TracingMetrics).

Shows *when* the network is busy: the per-round message load of the
paper's SSSP versus Bellman-Ford, the busiest (edge, round) slot of each
send trace, and the awake-fraction timeline of the sleeping-model BFS
(the visual form of "each node is awake only polylog rounds").

Run:  python examples/congestion_trace.py
"""

from repro import graphs, run_bellman_ford
from repro.analysis import render_table
from repro.core.cssp import cssp
from repro.energy import low_energy_bfs_from_scratch
from repro.sim import TracingMetrics


def sparkline(values, width: int = 40) -> str:
    """Cheap text sparkline for a profile."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    top = max(values) or 1
    step = max(1, len(values) // width)
    cells = [values[i] for i in range(0, len(values), step)]
    return "".join(blocks[min(9, int(9 * v / top))] for v in cells)


def main() -> None:
    g = graphs.random_weights(
        graphs.random_connected_graph(32, extra_edge_prob=0.08, seed=5), 9, seed=6
    )
    print(f"instance: n={g.num_nodes}, m={g.num_edges}")

    rows = []
    for name, run in (
        ("cssp-sssp", lambda t: cssp(g, {0: 0}, metrics=t)),
        ("bellman-ford", lambda t: run_bellman_ford(g, 0, metrics=t)),
    ):
        trace = TracingMetrics()
        run(trace)
        peak_round, peak_load = trace.peak_round_load()
        # The send trace counts every message by (directed edge, round).
        slots = trace.send_trace.counts()
        assert sum(slots.values()) == trace.total_messages
        (busiest_edge, _t), slot_load = max(slots.items(), key=lambda kv: kv[1])
        u, v = busiest_edge
        assert sum(trace.edge_profile(u, v).values()) == trace.congestion_of(u, v)
        rows.append([name, trace.rounds, trace.total_messages, peak_load,
                     round(trace.total_messages / max(1, trace.rounds), 1), slot_load])
    print()
    print(render_table(
        "per-round load: burstiness of each algorithm",
        ["algorithm", "rounds", "messages", "peak round load", "avg msgs/round",
         "peak edge-round load"],
        rows,
    ))

    # Sleeping-model BFS awake timeline on a path: the wavefront of
    # activity travels — at any instant most sensors sleep.
    path = graphs.path_graph(48)
    query = TracingMetrics()
    low_energy_bfs_from_scratch(path, {0: 0}, query_metrics=query)
    profile = query.awake_fraction_profile(path.num_nodes, buckets=40)
    print()
    print("sleeping-model BFS: fraction of nodes awake over time")
    print("  " + sparkline([int(1000 * x) for x in profile]))
    print(f"  mean awake fraction: {sum(profile) / len(profile):.3f} "
          f"(always-awake baseline: 1.000)")


if __name__ == "__main__":
    main()

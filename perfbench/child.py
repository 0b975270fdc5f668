"""One fresh benchmark process: run passes of a workload, report as JSON.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py --workload W --seed S --workdir DIR --out FILE
        [--seconds T] [--passes N] [--workers K] [--traced] [--short]

Untimed set-up (imports, backend check) happens before the first pass.
Timed mode starts passes until the next one would end after ``--seconds``
(at least one, or exactly ``--passes``), and can sample the host's speed
with :mod:`reference` all through them.  Traced mode runs one pass under :class:`tracer.Tracer` and reports the
per-layer metrics it recorded.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import reference
import tracer as tracing
import workloads


def _resolved_backend() -> str:
    """The backend the numpy request resolves to; refuse anything else."""
    from repro.sim.kernels import current_backend, use_backend

    with use_backend("numpy"):
        backend = current_backend()
    if backend != "numpy":
        raise SystemExit(
            f"backend 'numpy' resolved to {backend!r}: the numbers would "
            "measure the scalar program; install numpy or stop"
        )
    return backend


def _peak_rss_mb(sweep: bool) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sweep:  # the largest reaped worker counts too
        own = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return own / 1024.0


#: Loop samples per process taken before each sweep pass and after the last.
SWEEP_SAMPLES = 16


def timed(args, workload, workdir: Path) -> dict:
    """Time-boxed passes; with ``--reference-loop``, host-speed samples too.

    A sequential cell and the loop alternate in this process, two loop
    samples after every cell.  Sweep cells run in worker processes, one
    per CPU, so around every sweep pass one loop per worker runs at once
    in fresh interpreters.
    """
    sweep = workload.workers > 1
    clock = None
    if sweep:
        clock = tracing.CellClock(workdir)
        clock.install()
    passes, loop_s = [], []
    workers = args.workers or workload.workers

    def sample_cell():
        loop_s.extend(reference.reference_loop())

    def sample_workers():
        if args.reference_loop and sweep:
            loop_s.extend(reference.parallel_samples(workers, SWEEP_SAMPLES))

    after_cell = sample_cell if args.reference_loop and not sweep else None
    start = time.perf_counter()
    while True:
        sample_workers()
        result = workloads.run_pass(workload, args.seed, workdir, args.workers, clock,
                                    after_cell=after_cell)
        passes.append(asdict(result))
        if args.passes is not None:
            if len(passes) >= args.passes:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    sample_workers()
    if clock is not None:
        clock.restore()
    return {"passes": passes, "reference_loop_s": loop_s,
            "peak_rss_mb": _peak_rss_mb(sweep)}


def traced(args, workload, workdir: Path) -> dict:
    sweep = workload.workers > 1
    tracer = tracing.Tracer(workdir)
    tracer.install(sweep=sweep)
    try:
        with tracer.span("pass"):
            result = workloads.run_pass(
                workload, args.seed, workdir, args.workers,
                tracer=None if sweep else tracer,
            )
    finally:
        tracer.restore()
    spans = tracer.spans + tracing.read_worker_spans(workdir)
    workers = args.workers or workload.workers
    layers = layer_metrics(spans, result.wall_s, workers if sweep else 0, tracer.forks,
                           result.store_bytes)
    unpatched = [
        f"{cls.__module__}.{cls.__qualname__}.{method}"
        for cls, method in tracing.step_classes()
        if not tracer.patches.covers(cls, method)
    ]
    checks = {
        "unrestored": tracer.patches.unrestored(),
        "unpatched_step_methods": unpatched,
        "patched": len(tracer.patches.entries),
        "spans": len(spans),
    }
    if workload.name == "sssp-event":
        # The patches must leave the kernel gate's ``type(metrics) is
        # Metrics`` test true, or the traced run measures another program.
        checks["kernel_gate_open"] = layers["kernel.rounds"] > 0
    return {"passes": [asdict(result)], "layers": layers, "checks": checks}


def layer_metrics(spans, wall: float, workers: int, forks: int, store_bytes: int) -> dict:
    """Per-layer counts and self times from every recorded span."""
    span = defaultdict(lambda: [0, 0.0, 0, 0.0])  # count, self s, extra, duration
    hot = defaultdict(lambda: [0, 0.0, 0])  # count, self s, extra
    for _sid, name, start, end, _parent, self_s, hot_calls, extra in spans:
        rec = span[name.split(":")[0]]
        rec[0] += 1
        rec[1] += self_s
        rec[2] += extra
        rec[3] += end - start
        for hot_name, (count, seconds, hot_extra) in hot_calls.items():
            agg = hot[hot_name]
            agg[0] += count
            agg[1] += seconds
            agg[2] += hot_extra
    out = {
        "runner.runs": span["runner.run"][0],
        "runner.self_s": span["runner.run"][1],
        "runner.init_s": span["runner.init"][1],
        "events.runs": span["events.run"][0],
        "events.self_s": span["events.run"][1],
        "events.init_s": span["events.init"][1],
        "send.calls": hot["send"][0],
        "send.s": hot["send"][1],
        "engine.msgs": span["runner.run"][2] + span["events.run"][2],
        "step.calls": hot["step"][0],
        "step.s": hot["step"][1],
        "kernel.rounds": hot["kernel"][0],
        "kernel.declines": hot["kernel.decline"][0],
        "kernel.nodes": hot["kernel"][2],
        "kernel.s": hot["kernel"][1] + hot["kernel.decline"][1],
        "metrics.hook_calls": hot["metrics.hook"][0],
        "metrics.hook_s": hot["metrics.hook"][1],
        "metrics.merge_s": hot["metrics.merge"][1],
        "metrics.serialize_s": hot["metrics.to_dict"][1],
        "faults.draws": hot["faults"][0],
        "faults.s": hot["faults"][1],
        "graphs.builds": span["graphs.build"][0],
        "graphs.build_s": span["graphs.build"][1],
        "graphs.index_s": hot["graphs.index"][1],
        "driver.s": span["driver"][1],
        "oracle.calls": span["oracle"][0],
        "oracle.s": span["oracle"][1],
        "sweep.workers_spawned": forks,
        "sweep.worker_util": span["cell"][3] / (workers * wall) if workers else 0.0,
        "shm.segments": sum(1 for s in spans if s[1] == "shm.publish" and s[7] > 0),
        "shm.bytes": span["shm.publish"][2],
        "shm.publish_s": span["shm.publish"][1],
        "shm.attaches": span["shm.attach"][2],
        "shm.attach_s": span["shm.attach"][1],
        "store.appends": span["store.append"][0],
        "store.bytes": store_bytes,
        "store.append_s": span["store.append"][1],
    }
    msgs = out["engine.msgs"]
    engine_s = out["runner.self_s"] + out["events.self_s"] + out["send.s"]
    out["engine.ns_per_msg"] = engine_s / msgs * 1e9 if msgs else 0.0
    rounds, declines = out["kernel.rounds"], out["kernel.declines"]
    out["kernel.hit_rate"] = rounds / (rounds + declines) if rounds + declines else 0.0
    nodes = out["kernel.nodes"]
    steps = out["step.calls"]
    out["kernel.node_share"] = nodes / (nodes + steps) if nodes + steps else 0.0
    # Coverage: self time attributed to a named layer, over the time the
    # pass had (the workers' time in the sweep).  Passes, cell groups and
    # cells are harness, not layers.
    harness = ("pass", "sweep.group", "cell")
    attributed = sum(rec[1] for name, rec in span.items() if name not in harness)
    attributed += sum(rec[1] for rec in hot.values())
    out["trace.coverage"] = attributed / (wall * max(1, workers))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reference-loop", action="store_true",
                        help="sample the host's speed all through the passes")
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    import numpy

    backend = _resolved_backend()
    workload = workloads.get_workload(args.workload, short=args.short)
    args.workdir.mkdir(parents=True, exist_ok=True)
    report = (traced if args.traced else timed)(args, workload, args.workdir)
    report.update(
        backend=backend,
        numpy=numpy.__version__,
        python=platform.python_version(),
        seed=args.seed,
    )
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

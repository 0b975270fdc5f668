"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the repository root (any checkout holding ``src/repro``).  With
``--trace 0`` the last line carries the end-to-end metrics: set-up time
over several fresh interpreters, then timed passes in a fresh process.
With ``--trace 1`` it carries the per-layer metrics of one traced pass,
next to an untraced pass of the same inputs.  The line before the last
is a report with provenance, sample counts and the rows digest.  See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402  (sibling modules, after the path insert)
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "msgs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "runner.runs": "count",
    "runner.self_s": "s",
    "runner.init_s": "s",
    "events.runs": "count",
    "events.self_s": "s",
    "events.init_s": "s",
    "send.calls": "count",
    "send.s": "s",
    "engine.msgs": "count",
    "engine.ns_per_msg": "ns/msg",
    "step.calls": "count",
    "step.s": "s",
    "kernel.rounds": "count",
    "kernel.declines": "count",
    "kernel.hit_rate": "ratio",
    "kernel.nodes": "count",
    "kernel.node_share": "ratio",
    "kernel.s": "s",
    "metrics.hook_calls": "count",
    "metrics.hook_s": "s",
    "metrics.merge_s": "s",
    "metrics.serialize_s": "s",
    "faults.draws": "count",
    "faults.s": "s",
    "graphs.builds": "count",
    "graphs.build_s": "s",
    "graphs.index_s": "s",
    "driver.s": "s",
    "oracle.calls": "count",
    "oracle.s": "s",
    "sweep.workers_spawned": "count",
    "sweep.worker_util": "ratio",
    "shm.segments": "count",
    "shm.bytes": "bytes",
    "shm.publish_s": "s",
    "shm.attaches": "count",
    "shm.attach_s": "s",
    "store.appends": "count",
    "store.bytes": "bytes",
    "store.append_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

#: Set-up probe: what every ``repro`` invocation pays before its first cell.
SETUP_PROBE = (
    "import sys, repro\n"
    "from repro.sim import experiments\n"
    "experiments.ensure_discovered()\n"
    "for name in sys.argv[1:]:\n"
    "    experiments.get_scenario(name)\n"
)

#: Every child process must end well inside the benchmark's own limit.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to: measured a failure)."""


def _env() -> dict:
    env = dict(os.environ)
    # One string-hash layout for every child, so processes differ only by
    # the machine's noise, not by dict and set memory layout.
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list, what: str) -> None:
    """Run ``cmd`` in its own process group and wait for the whole group.

    Sweep children leave helpers behind (the multiprocessing resource
    tracker that shared-memory segments start), so the child's exit alone
    does not mean every process it started has ended.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{what} did not finish within {CHILD_TIMEOUT_S} s") from None
    finally:
        _wait_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{stderr.strip()}")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            _kill_group(pgid)
        time.sleep(0.01)


def measure_setup(workload, runs: int) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import, discover and resolve.

    Returns the probe times and reference-loop samples taken in this
    process after each probe.
    """
    cmd = [sys.executable, "-c", SETUP_PROBE, *workload.scenarios]
    _run(cmd, "set-up probe")  # warm-up: byte-compiles a fresh checkout
    samples, loop_s = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        _run(cmd, "set-up probe")
        samples.append(time.perf_counter() - t0)
        loop_s += reference.reference_loop()
    return samples, loop_s


def run_child(args, workdir: Path, tag: str, *extra) -> dict:
    out = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir / tag), "--out", str(out), *extra,
    ]
    if args.short:
        cmd.append("--short")
    _run(cmd, f"{tag} pass of {args.workload}")
    return json.loads(out.read_text())


class Verdict:
    """Attempted and failed cells across every pass of one run."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.reference: dict | None = None

    def add_pass(self, record: dict, label: str) -> None:
        """Count one pass; its rows must equal the first pass's byte for byte."""
        rows = record["rows"]
        self.attempted += len(rows) + len(record["failed"])
        for key, reason in record["failed"].items():
            self.failed[f"{label}:{key}"] = reason
        if self.reference is None:
            self.reference = rows
            for group in workloads.seed_blind_cells(self.workload, self.seed, rows):
                self.failed[f"{label}:{group}"] = "rows ignore the seed"
            return
        for key, row in rows.items():
            if key in self.reference and self.reference[key] != row:
                self.failed[f"{label}:{key}"] = "row diverges from the first pass"

    def digest(self) -> str:
        text = json.dumps(sorted((self.reference or {}).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def pass_seconds(passes: list, sequential: bool) -> float:
    """The time of one pass, from every pass of a run.

    A sequential pass runs the same cells in the same order each time, so
    its time is the sum over cells of each cell's median across passes: a
    burst of host load that slows one cell moves one sample of that cell,
    not a whole pass.  Sweep cells finish in parallel workers in no fixed
    order, so a sweep pass is timed whole and the median taken.
    """
    if not sequential:
        return statistics.median(record["wall_s"] for record in passes)
    per_cell = zip(*(record["cell_s"] for record in passes))
    return sum(statistics.median(samples) for samples in per_cell)


def end_to_end(args, workload, workdir: Path, verdict: Verdict, report: dict) -> dict:
    setup, setup_loop_s = measure_setup(workload, 2 if args.short else 5)
    child = run_child(args, workdir, "timed", "--seconds", str(args.seconds),
                      "--reference-loop")
    passes = child["passes"]
    for index, record in enumerate(passes):
        verdict.add_pass(record, f"pass{index}")
    # Times are scaled to the reference host speed (see reference.py).
    raw_wall = pass_seconds(passes, sequential=workload.workers == 1)
    loop_s = statistics.median(child["reference_loop_s"])
    wall = raw_wall * reference.REFERENCE_LOOP_S / loop_s
    setup_s = (statistics.median(setup) * reference.REFERENCE_LOOP_S
               / statistics.median(setup_loop_s))
    # Per-cell latency is reported but not bounded: a pass mixes a few
    # cell sizes, so its median and tail fall between clusters of cells
    # and move several times more from run to run than the pass time.
    cells = [t for record in passes for t in record["cell_s"]]
    report.update(
        backend=child["backend"], numpy=child["numpy"], passes=len(passes),
        setup_samples=setup, pass_wall_s=[record["wall_s"] for record in passes],
        raw_wall_s=raw_wall, reference_loop_s=loop_s,
        setup_reference_loop_s=statistics.median(setup_loop_s),
        cell_s={
            "p50": statistics.median(cells),
            "p90": statistics.quantiles(cells, n=10, method="inclusive")[8],
            "samples": len(cells),
        },
    )
    return {
        "wall_s": wall,
        "msgs_per_s": statistics.median(r["messages"] for r in passes) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(args, workload, workdir: Path, verdict: Verdict, report: dict) -> dict:
    plain = run_child(args, workdir, "untraced", "--passes", "1")
    verdict.add_pass(plain["passes"][0], "untraced")
    traced = run_child(args, workdir, "traced", "--traced")
    verdict.add_pass(traced["passes"][0], "traced")
    if workload.workers > 1:
        serial = run_child(args, workdir, "serial", "--passes", "1", "--workers", "1")
        verdict.add_pass(serial["passes"][0], "workers1")
    checks = traced["checks"]
    report.update(backend=traced["backend"], numpy=traced["numpy"], checks=checks)
    if checks["unrestored"] or checks["unpatched_step_methods"]:
        verdict.failed["tracer"] = "tracer self-check failed"
    if not checks.get("kernel_gate_open", True):
        verdict.failed["tracer"] = "tracing closed the kernel gate"
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["passes"][0]["wall_s"] / plain["passes"][0]["wall_s"]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: shifts every workload's seed list")
    parser.add_argument("--seconds", type=int, default=30,
                        help="how long the timed passes of --trace 0 may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.get_workload(args.workload, short=args.short)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "short": args.short, **provenance()}
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    verdict = Verdict(workload, args.seed)
    try:
        if args.trace:
            values, units = per_layer(args, workload, workdir, verdict, report), PER_LAYER
        else:
            values, units = end_to_end(args, workload, workdir, verdict, report), END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(verdict.failed)
    report.update(
        attempted=verdict.attempted,
        failed_frac=failed / max(1, verdict.attempted),
        failures=dict(sorted(verdict.failed.items())[:20]),
        rows_digest=verdict.digest(),
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": verdict.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

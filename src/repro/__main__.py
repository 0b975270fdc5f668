"""Command-line front end: ``repro <command>`` / ``python -m repro <command>``.

Every subcommand is a thin constructor over the spec types of
:mod:`repro.api` — the CLI builds a :class:`~repro.api.SweepSpec` /
:class:`~repro.api.BenchSpec` / :class:`~repro.api.ReportSpec` (from
``--spec file.json``, from flags, or both — explicit flags override spec
fields) and hands it to the matching executor.  Anything the CLI can do,
a script can do with the same spec objects.

Commands
--------
``info``
    Library version and the implemented system inventory (``--json`` for a
    machine-readable map).
``demo [n]``
    Quick metered SSSP demo on a random weighted graph of ~n nodes.
``sweep``
    Run a sweep spec: ``--scenarios/--sizes/--seeds/--workers`` select the
    cross product, ``--output store.jsonl`` streams rows to a resumable
    ResultSet (re-running skips finished cells), ``--smoke`` is the fixed
    tiny CI sweep, ``--fit`` appends scaling fits, ``--report out.md``
    writes the Markdown report, ``--list`` prints registered scenarios.
    ``--shard i/k`` runs one deterministic shard of the job into its own
    store and ``--merge`` recombines the shard stores (then resumes any
    gaps); ``--max-retries``/``--task-timeout`` tune the supervised
    executor's fault policy.  Cells that kept crashing come back as
    ``failed`` rows and make the command exit 1.
``bench``
    Time the pinned benchmark subset and record ``BENCH.json``;
    ``--quick`` is the CI perf gate (non-zero exit beyond ``--factor`` x
    the recorded baseline — or when no baseline is recorded at all: a
    missing ``BENCH.json`` is a *skipped* gate, never a passed one).
``report``
    Compile recorded experiment tables into one Markdown document.
``sweep``, ``bench``, and ``report`` accept ``--spec FILE`` (a JSON spec
artifact, see ``EXPERIMENTS.md``); every subcommand accepts ``--json``
(machine-readable stdout).  Bad flags or malformed values exit 2 with a
usage message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


# ----------------------------------------------------------------------
# flag value parsers (argparse types -> exit 2 + usage on malformed input)
# ----------------------------------------------------------------------
def _csv(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return items


def _int_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _shard(text: str) -> tuple[int, int]:
    """Parse ``--shard i/k`` (1-based) into ``(shard_index, shard_count)``."""
    try:
        index_text, count_text = text.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected i/k (e.g. 1/2), got {text!r}"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise argparse.ArgumentTypeError(
            f"shard index must be in 1..count, got {text!r}"
        )
    return index, count


def _load_spec_file(path: str, expected_cls, parser: argparse.ArgumentParser):
    from repro.api import SpecError, load_spec

    try:
        spec = load_spec(path)
    except SpecError as exc:
        parser.error(str(exc))
    if not isinstance(spec, expected_cls):
        parser.error(
            f"--spec {path}: holds a {spec.kind!r} spec, expected {expected_cls.kind!r}"
        )
    return spec


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _scenario_catalog() -> list[dict]:
    """The registered scenario catalog, one JSON-ready dict per scenario."""
    from repro.api import get_algorithm_spec
    from repro.sim.experiments import ensure_discovered, get_scenario, list_scenarios

    ensure_discovered()
    catalog = []
    for name in list_scenarios():
        scenario = get_scenario(name)
        spec = get_algorithm_spec(scenario.algorithm)
        catalog.append({
            "name": name,
            "family": scenario.family,
            "algorithm": scenario.algorithm,
            "model": spec.model,
            "oracle": spec.oracle,
            "max_weight": scenario.max_weight,
            "latency_model": scenario.latency_model,
            "fault_model": scenario.fault_model,
            "fault_tolerance": list(spec.fault_tolerance),
            "params": dict(scenario.params),
            "param_schema": [list(pair) for pair in spec.param_schema],
            "description": scenario.description or spec.description,
        })
    return catalog


def _cmd_info(args) -> int:
    import repro

    systems = [
        ("repro.sim", "CONGEST + sleeping-model simulator with full metering"),
        ("repro.api", "spec-driven experiment API with resumable ResultSets"),
        ("repro.core.bfs", "thresholded weighted BFS (multi-source, offsets)"),
        ("repro.core.cutter", "approximate cutter (Lemma 2.1)"),
        ("repro.core.boruvka", "distributed maximal spanning forest (Thm 2.2)"),
        ("repro.core.cssp", "recursive D-thresholded CSSP (Thms 2.6/2.7)"),
        ("repro.core.sssp / apsp", "SSSP API + random-delay APSP"),
        ("repro.core.paths", "routing trees + distributed verification"),
        ("repro.baselines", "Bellman-Ford and naive distributed Dijkstra"),
        ("repro.energy.decomposition", "k-separated decomposition (Thm 3.10)"),
        ("repro.energy.covers", "sparse + layered covers (Thm 3.11, Def 3.4)"),
        ("repro.energy.low_energy_bfs", "sleeping-model BFS (Thm 3.8)"),
        ("repro.energy.bootstrap", "from-scratch BFS + energy CSSP (Thms 3.13-3.15)"),
    ]
    from repro.api import list_algorithm_specs
    from repro.sim.kernels import available_backends, current_backend

    scenarios = _scenario_catalog()
    backend = {
        "active": current_backend(),
        "available": list(available_backends()),
    }
    if args.json:
        print(json.dumps({
            "version": repro.__version__,
            "backend": backend,
            "systems": dict(systems),
            "algorithms": [spec.to_dict() for spec in list_algorithm_specs()],
            "scenarios": scenarios,
        }, indent=2))
        return 0
    print(f"repro {repro.__version__} — reproduction of Ghaffari & Trygub, PODC 2024")
    print(
        f"batch-kernel backend: {backend['active']} "
        f"(available: {', '.join(backend['available'])})"
    )
    print("\nImplemented systems:")
    for module, description in systems:
        print(f"  {module:32s} {description}")
    print(f"\nRegistered sweep scenarios ({len(scenarios)}):")
    for entry in scenarios:
        params = "".join(
            f" {name}:{type_name}" for name, type_name in entry["param_schema"]
        )
        tolerance = ",".join(entry["fault_tolerance"]) or "-"
        print(
            f"  {entry['name']:30s} {entry['model']:9s} "
            f"oracle={entry['oracle'] or '-'} faults={tolerance}{params}"
        )
    return 0


def _cmd_demo(args) -> int:
    from repro import graphs, sssp

    g = graphs.random_connected_graph(args.n, seed=1)
    g = graphs.random_weights(g, max_weight=50, seed=2)
    result = sssp(g, 0)
    exact = result.distances == g.dijkstra([0])
    if args.json:
        print(json.dumps({
            "n": g.num_nodes, "m": g.num_edges, "max_weight": g.max_weight(),
            "exact": exact, "metrics": result.metrics.summary(),
        }, indent=2))
        return 0 if exact else 1
    print(f"graph: n={g.num_nodes} m={g.num_edges} maxW={g.max_weight()}")
    print(f"exact vs oracle: {exact}")
    for key, value in result.metrics.summary().items():
        print(f"  {key:20s} {value}")
    return 0 if exact else 1


def _cmd_sweep(args, parser) -> int:
    from repro.analysis.sweeps import fit_sweep, sweep_report, sweep_table
    from repro.api import (
        SpecError,
        SweepSpec,
        is_failure,
        merge_shards,
        run_sweep_spec,
        smoke_spec,
    )
    from repro.sim.experiments import SweepError, ensure_discovered

    if args.list:
        ensure_discovered()
        if args.json:
            print(json.dumps(_scenario_catalog(), indent=2))
            return 0
        for entry in _scenario_catalog():
            tolerance = ",".join(entry["fault_tolerance"]) or "-"
            print(
                f"{entry['name']:30s} {entry['model']:9s} "
                f"faults={tolerance:15s} {entry['description']}"
            )
        return 0

    if args.smoke:
        # The fixed CI sweep: selectors are pinned, execution flags compose.
        spec = smoke_spec(workers=args.workers, output=args.output)
        title = "smoke sweep"
    else:
        spec = (
            _load_spec_file(args.spec, SweepSpec, parser) if args.spec else SweepSpec()
        )
        title = "experiment sweep"
    shard_index, shard_count = args.shard if args.shard else (None, None)
    try:
        spec = spec.replace(
            scenarios=None if args.smoke else args.scenarios,
            sizes=None if args.smoke else args.sizes,
            seeds=None if args.smoke else args.seeds,
            workers=args.workers,
            output=args.output,
            shard_index=shard_index,
            shard_count=shard_count,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            latency_model=args.latency_model,
            engine=args.engine,
            fault_model=args.fault_model,
            backend=args.backend,
        )
    except SpecError as exc:
        parser.error(str(exc))
    if spec.shard_count is not None and not spec.output:
        # An output-less shard — whether from --shard or a sharded spec
        # file — would run its partition into a discarded in-memory store:
        # machine-hours with nothing left to merge.
        parser.error("a sharded sweep needs --output (or a spec output): the derived shard store")

    if args.merge:
        # Assemble shard stores into the canonical store, then resume the
        # spec against it: cells no shard completed (or that failed
        # everywhere) run here, so the merged table is always complete.
        if args.shard:
            parser.error("--merge assembles shards; it cannot also run one (--shard)")
        if not spec.output:
            parser.error("--merge needs --output (or a spec output): the canonical store")
        import dataclasses

        spec = dataclasses.replace(spec, shard_index=None, shard_count=None)
        try:
            merged = merge_shards(spec.output)
        except SpecError as exc:
            print(f"merge error: {exc}", file=sys.stderr)
            return 2
        print(
            f"merged {len(merged)} rows"
            + (f" ({len(merged.failures())} failed cells)" if merged.failures() else "")
            + f" into {spec.output}",
            file=sys.stderr,
        )

    progress = None
    if args.progress:
        def progress(completed, total, row):
            state = " FAILED" if is_failure(row) else ""
            print(
                f"[{completed}/{total}] {row['scenario']} n={row['n']} "
                f"seed={row['seed']}{state}",
                file=sys.stderr,
            )

    try:
        rows = run_sweep_spec(spec, progress=progress)
    except (SweepError, SpecError) as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2

    failed = [row for row in rows if is_failure(row)]
    table_rows = [row for row in rows if not is_failure(row)]
    for row in failed:
        print(
            f"FAILED CELL {row['scenario']} n={row['n']} seed={row['seed']}: "
            f"{row['error']}",
            file=sys.stderr,
        )
    status = 1 if failed else 0

    if args.report:
        Path(args.report).write_text(sweep_report(table_rows, title=title))
        print(f"wrote {args.report} ({len(table_rows)} runs)")
        return status
    if args.json:
        print(json.dumps(rows, indent=2))
        return status
    print(sweep_table(table_rows, title=title))
    if spec.output:
        stored = spec.output
        if spec.shard_count is not None:
            from repro.api import shard_store_path

            stored = str(shard_store_path(spec.output, spec.shard_index, spec.shard_count))
        print(f"stored {len(rows)} rows in {stored}")
    if args.fit:
        for scenario, fit in sorted(fit_sweep(table_rows).items()):
            print(f"fit {scenario}: rounds ~ n^{fit.exponent:.2f} (r2={fit.r2:.3f})")
    return status


def _cmd_bench(args, parser) -> int:
    from repro.api import BenchSpec, SpecError, run_bench_spec

    spec = _load_spec_file(args.spec, BenchSpec, parser) if args.spec else BenchSpec()
    try:
        spec = spec.replace(
            experiments=args.experiments,
            repeats=args.repeats,
            output=args.output,
            quick=args.quick,
            factor=args.factor,
            backend=args.backend,
        )
    except SpecError as exc:
        parser.error(str(exc))

    try:
        outcome = run_bench_spec(spec)
    except SpecError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2

    repeats = 1 if spec.quick else spec.repeats
    # The gate verdict is explicit, machine-readable state — a missing
    # baseline must never read as "gate passed" (it used to exit 0 with
    # zero violations, silently skipping the CI perf gate).
    gate = None
    if spec.quick:
        if outcome.baseline is None:
            gate = "skipped-no-baseline"
        elif outcome.violations:
            gate = "failed"
        else:
            gate = "ok"
    if args.json:
        print(json.dumps({
            "results": outcome.results,
            "repeats": repeats,
            "violations": list(outcome.violations),
            "baseline_path": outcome.baseline_path,
            "wrote": outcome.wrote,
            "gate": gate,
        }, indent=2))
    else:
        for name, ms in sorted(outcome.results.items()):
            print(f"{name:8s} {ms:10.1f} ms   (median of {repeats})")
        if outcome.wrote:
            print(f"wrote {outcome.wrote}")
    if not spec.quick:
        return 0
    if gate == "skipped-no-baseline":
        print(
            f"no recorded baseline at {outcome.baseline_path}: gate SKIPPED, "
            "not passed (run `repro bench` to record one)",
            file=sys.stderr,
        )
        return 1
    if outcome.violations:
        for line in outcome.violations:
            print(f"PERF REGRESSION {line}", file=sys.stderr)
        return 1
    if not args.json:
        print(f"within {spec.factor:g}x of recorded baseline ({outcome.baseline_path})")
    return 0


def _cmd_report(args, parser) -> int:
    from repro.api import ReportSpec, SpecError, run_report_spec

    spec = _load_spec_file(args.spec, ReportSpec, parser) if args.spec else ReportSpec()
    try:
        spec = spec.replace(results_dir=args.results_dir, output=args.output)
    except SpecError as exc:
        parser.error(str(exc))
    text = run_report_spec(spec)
    if args.json:
        print(json.dumps({
            "results_dir": spec.results_dir, "output": spec.output, "report": text,
        }, indent=2))
    elif spec.output:
        print(f"wrote {spec.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Ghaffari & Trygub (PODC 2024): "
        "spec-driven sweeps, benchmarks, and reports.",
        epilog="sweep, bench, and report accept --spec FILE (a JSON job "
        "spec; explicit flags override its fields); info, demo, sweep, "
        "bench, and report accept --json for machine-readable output.",
    )
    commands = parser.add_subparsers(dest="command", title="Commands", metavar="<command>")

    info = commands.add_parser("info", help="library version and system inventory")
    info.add_argument("--json", action="store_true", help="machine-readable output")

    demo = commands.add_parser("demo", help="quick metered SSSP demo")
    demo.add_argument("n", nargs="?", type=int, default=48, help="graph size (default 48)")
    demo.add_argument("--json", action="store_true", help="machine-readable output")

    sweep = commands.add_parser(
        "sweep", help="run a (scenario x size x seed) sweep spec",
        description="Run a sweep. With --output the rows stream to a JSONL "
        "ResultSet; re-running the same spec resumes, skipping finished cells.",
    )
    sweep.add_argument("--spec", metavar="FILE", help="JSON SweepSpec to start from")
    sweep.add_argument("--scenarios", type=_csv, metavar="a,b",
                       help="scenario names (default: all registered)")
    sweep.add_argument("--sizes", type=_int_csv, metavar="16,32,48", help="graph sizes")
    sweep.add_argument("--seeds", type=_int_csv, metavar="0,1", help="per-cell seeds")
    sweep.add_argument("--workers", type=int, metavar="N", help="worker processes (default 1)")
    sweep.add_argument("--output", metavar="PATH", help="JSONL ResultSet store (resumable)")
    sweep.add_argument("--shard", type=_shard, metavar="I/K",
                       help="run only shard I of K (writes PATH.shard-I-of-K.jsonl)")
    sweep.add_argument("--merge", action="store_true",
                       help="merge PATH.shard-*-of-*.jsonl into PATH, then resume any gaps")
    sweep.add_argument("--max-retries", type=int, metavar="N",
                       help="re-dispatches of a group whose worker died/stalled (default 2)")
    sweep.add_argument("--task-timeout", type=float, metavar="SECONDS",
                       help="per-group deadline before a stuck worker is killed (default: none)")
    sweep.add_argument("--latency-model", metavar="MODEL",
                       help="network model for every cell: unit, uniform:K, or random:K "
                       "(default: each scenario's own model)")
    sweep.add_argument("--engine", choices=("round", "event"),
                       help="simulation backend (default: round for unit latency, "
                       "event otherwise; 'event' on unit latency is the differential check)")
    sweep.add_argument("--fault-model", metavar="MODEL",
                       help="seeded fault plane for every cell: none, drop:P, dup:P, "
                       "crash:K@R[+restart:D], or +-compositions (default: each "
                       "scenario's own plane); non-tolerant scenarios are refused")
    sweep.add_argument("--backend", choices=("scalar", "numpy"),
                       help="node-step dispatch path (default: numpy when importable); "
                       "provenance-only — rows are byte-identical either way")
    sweep.add_argument("--report", metavar="PATH", help="write a Markdown report instead of printing")
    sweep.add_argument("--fit", action="store_true", help="append per-scenario power-law fits")
    sweep.add_argument("--smoke", action="store_true", help="fixed tiny CI sweep (pins the selectors)")
    sweep.add_argument("--progress", action="store_true", help="stream per-cell progress to stderr")
    sweep.add_argument("--json", action="store_true", help="print rows as JSON")
    sweep.add_argument("--list", action="store_true", help="list registered scenarios and exit")

    bench = commands.add_parser(
        "bench", help="time the pinned benchmark subset / CI perf gate",
    )
    bench.add_argument("--spec", metavar="FILE", help="JSON BenchSpec to start from")
    bench.add_argument("--experiments", type=_csv, metavar="E2,E6",
                       help="experiments to time (default: E2,E6,E8,smoke)")
    bench.add_argument("--repeats", type=int, metavar="N", help="repetitions per experiment (default 3)")
    bench.add_argument("--output", metavar="PATH", help="baseline file (default BENCH.json)")
    bench.add_argument("--quick", action="store_true", default=None,
                       help="one repetition + gate against the recorded baseline")
    bench.add_argument("--factor", type=float, metavar="X", help="gate threshold (default 2.0)")
    bench.add_argument("--backend", choices=("scalar", "numpy"),
                       help="node-step dispatch path for the timed runs "
                       "(default: numpy when importable)")
    bench.add_argument("--json", action="store_true", help="machine-readable output")

    report = commands.add_parser("report", help="compile recorded experiment tables")
    report.add_argument("results_dir", nargs="?", default=None,
                        help="recorded tables directory (default benchmarks/results)")
    report.add_argument("output", nargs="?", default=None,
                        help="write the Markdown here instead of printing")
    report.add_argument("--spec", metavar="FILE", help="JSON ReportSpec to start from")
    report.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv:
        parser.print_help()
        return 0
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 0
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        return _cmd_report(args, parser)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep main()
        # callable in-process (tests, embedding) by returning the code.
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
